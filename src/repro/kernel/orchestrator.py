"""Batch replay orchestrator: chunked trace -> vectorized kernels.

``replay_vectorized`` reproduces :meth:`repro.device.ssd.SSD.replay`
bit for bit without the event engine.  The FIFO single-server device
makes request timing a pure recurrence — ``completion_i =
max(arrival_i, completion_{i-1}) + duration_i`` — and the replay
factors into *runs* of requests with no GC trigger between them:

1. slice a chunk of raw trace columns (``Trace.iter_chunks`` /
   ``StreamingTrace.iter_chunks``; the chunk size comes from
   ``SSDConfig.kernel_chunk_requests``);
2. find the run boundary.  For bulk schemes every write programs all
   its pages, so the first GC-triggering write follows from the
   allocator state alone (one binary search over the chunk's write
   page prefix sum, :func:`gc_trigger_ordinal`).  Trims program
   nothing, so they never end a run.  For the inline-dedupe scheme
   only dedup *misses* program, so
   :func:`repro.kernel.inline.plan_inline_run` resolves
   the window's dedup outcomes read-only — one vectorized index probe
   plus a dict loop — with the same watermark check fused in;
3. everything before that boundary is one run: service times come from
   one elementwise pass (bulk) or the plan's per-request program
   counts (inline), completions from the sequential recurrence
   (njit-compiled when numba is importable), latencies land via
   ``LatencyRecorder.record_many`` (and, when metrics are attached,
   one exact histogram fold plus a boundary-clocked series sample
   through ``DeviceMetrics.on_batch``), and the writes' and trims'
   state effects apply, net-final and in request order, through
   :func:`repro.kernel.write.apply_write_run` or
   :func:`repro.kernel.inline.apply_inline_run`;
4. the boundary request (the GC-triggering write) goes through the
   reference scheme calls — same ``run_gc`` / ``write_request``, same
   post-GC hook and metrics accounting — and the scan restarts behind
   it.

Requests the batched kernels do not model (negative fingerprints in a
chunk) drop to the same per-request reference path, so the fallback is
row-granular, never a mid-run abort.  The ``kernel`` tracer track
records one ``batch`` span per run and one ``fallback`` span per
slow-path request (with host ``wall_us`` attribution and a ``reason``
tag — ``gc-trigger`` or ``negative-fp``), which
``repro.obs.kernel_attribution`` folds into per-reason report rows.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.device.ssd import RunResult, SSD
from repro.ftl.allocator import Region
from repro.kernel._njit import completion_recurrence
from repro.kernel.cagcmig import install_fast_cagc
from repro.kernel.gcmig import install_fast_gc
from repro.kernel.inline import (
    apply_inline_run,
    inline_write_durations,
    plan_inline_run,
)
from repro.kernel.views import ColumnViews
from repro.kernel.write import apply_write_run
from repro.obs.trace import TRACK_KERNEL
from repro.schemes.inline_dedupe import InlineDedupeScheme
from repro.sim.engine import SimulationError
from repro.workloads.request import OpKind

_OP_WRITE = int(OpKind.WRITE)
_OP_READ = int(OpKind.READ)
_OP_TRIM = int(OpKind.TRIM)

#: Inline-dedupe plan window bounds (requests).  The plan re-resolves
#: from scratch after every GC boundary, so the window adapts to the
#: observed run length: big windows amortize the vectorized probe over
#: dedup-heavy traffic, small ones bound the wasted lookahead when GC
#: triggers every few dozen writes.  The cap also bounds the plan's
#: transient memory (per-page lists and dicts grow with the window):
#: on a 100k-request streamed replay an 8192 cap raised peak RSS by
#: ~6 MB over a 1024 cap at no measurable time gain.
_PLAN_WINDOW_MIN = 256
_PLAN_WINDOW_MAX = 1024


def write_prefix(wpages: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum of write page counts (one extra end slot):
    ``prefix[k]`` is the pages programmed by writes ``0..k-1``."""
    prefix = np.zeros(wpages.size + 1, dtype=np.int64)
    np.cumsum(wpages, out=prefix[1:])
    return prefix


def gc_trigger_ordinal(
    prefix: np.ndarray, lo: int, af0: int, ppb: int, budget: int
) -> int:
    """First write ordinal ``>= lo`` whose pre-write GC check fires.

    Writes from ordinal ``lo`` on pull ``ceil((c - af0) / ppb)`` fresh
    blocks after programming ``c = prefix[k] - prefix[lo]`` pages
    (``af0`` = pages left in the active block at ``lo``); the check
    fires once pulls exceed the free-block ``budget``.  For ``budget >=
    0`` that is exactly ``c > af0 + budget * ppb``, one binary search
    over the nondecreasing prefix; ``budget < 0`` (already below the
    watermark) fires on the first write.  A result ``>= len(prefix) -
    1`` (the write count) means none of the writes triggers.
    """
    if budget < 0:
        return lo
    limit = int(prefix[lo]) + af0 + budget * ppb
    return int(np.searchsorted(prefix, limit, side="right"))


def write_fps(
    fps_flat: np.ndarray,
    offsets: np.ndarray,
    contiguous: bool,
    i: int,
    e: int,
    wrows: np.ndarray,
) -> np.ndarray:
    """Concatenated fingerprints of the writes ``wrows`` in ``[i, e)``.

    When no other row carries a fingerprint span (``contiguous``) that
    is one slice of the flat column.
    """
    if contiguous:
        return fps_flat[offsets[i] : offsets[e]]
    if not wrows.size:
        return fps_flat[:0]
    return np.concatenate(
        [fps_flat[offsets[j] : offsets[j + 1]] for j in wrows.tolist()]
    )


def kernel_eligible(ssd: SSD, trace) -> bool:
    """Can this (device, trace) pair take the vectorized path?

    The batched kernels model the default replay configuration:
    blocking foreground GC, no DRAM write buffer, and either a
    bulk-write scheme or the inline-dedupe scheme (whose foreground
    hash/lookup path has its own plan/apply kernel).  Post-GC hooks,
    tracers, metrics and heartbeats are supported — metrics fold
    per-batch with exact histogram counts, series samples clock at
    batch boundaries.  Anything else
    silently takes the reference event loop under the same
    ``FTLScheme`` interface.
    """
    scheme = ssd.scheme
    return (
        scheme.config.kernel == "vectorized"
        and scheme.config.gc_mode == "blocking"
        and ssd.buffer is None
        and (scheme.bulk_user_writes or type(scheme) is InlineDedupeScheme)
        and hasattr(trace, "iter_chunks")
    )


def replay_vectorized(ssd: SSD, trace) -> RunResult:
    """Replay ``trace`` through the batched kernels; see module docs."""
    scheme = ssd.scheme
    views = ColumnViews(scheme)
    install_fast_gc(scheme, views) or install_fast_cagc(scheme, views)
    timing = scheme.timing
    channels = scheme.flash.geometry.channels
    allocator = scheme.allocator
    ppb = scheme.flash.pages_per_block
    trigger_blocks = scheme._gc_trigger_blocks
    latency = ssd.latency
    tracer = ssd.tracer
    metrics = ssd.metrics
    heartbeat = ssd.heartbeat
    hot = Region.HOT
    inline = not scheme.bulk_user_writes  # eligibility: inline-dedupe

    try:
        chunks = trace.iter_chunks(scheme.config.kernel_chunk_requests)
    except TypeError:
        chunks = trace.iter_chunks()  # streaming traces fix their own size

    t = 0.0  # completion time of the previous request
    served = False  # at least one request completed (sim clock moved)
    last_time = 0.0
    fallback_requests = 0
    window = 1024  # current inline plan window (requests)

    for chunk in chunks:
        n = len(chunk)
        if n == 0:
            continue
        times = chunk.times_us
        ops = chunk.ops
        lpns = chunk.lpns
        npages = chunk.npages
        offsets = chunk.fp_offsets
        fps_flat = chunk.fps_flat
        if float(times[0]) < last_time or bool((np.diff(times) < 0).any()):
            raise SimulationError(
                "cannot schedule into the past (trace arrivals not monotone)"
            )
        last_time = float(times[-1])
        if bool((ops > _OP_TRIM).any()):
            bad = int(ops[ops > _OP_TRIM][0])
            raise ValueError(f"unknown opcode {bad}")

        is_write = ops == _OP_WRITE
        is_trim = ops == _OP_TRIM
        lengths = offsets[1:] - offsets[:-1]
        # Fingerprint spans are the authoritative write page counts.
        wn_all = np.where(is_write, lengths, 0).astype(np.int64)
        # Slow-path chunk: negative fingerprints (never produced by
        # traces; exactness over speed when hand-built rows carry them).
        if fps_flat.size and bool((fps_flat < 0).any()):
            for i in range(n):
                fview = (
                    fps_flat[offsets[i] : offsets[i + 1]]
                    if is_write[i]
                    else None
                )
                t = _slow_request(
                    ssd, float(times[i]), int(ops[i]), int(lpns[i]),
                    int(npages[i]), fview, t, tracer, "negative-fp",
                )
                fallback_requests += 1
                served = True
            continue
        # Non-write rows with nonzero fingerprint spans would break the
        # contiguous-slice fast path; gather the writes' spans instead.
        contiguous = int(np.where(~is_write, lengths, 0).sum()) == 0

        # Elementwise service durations.  Write durations are
        # state-independent for bulk schemes; for inline-dedupe they
        # depend on the per-request dedup miss count, so the plan
        # scatters them in per run below.
        slots = (npages.astype(np.int64) + (channels - 1)) // channels
        durations = np.where(
            is_write,
            np.where(
                wn_all > 0,
                timing.overhead_us
                + ((wn_all + (channels - 1)) // channels) * timing.write_us,
                timing.overhead_us + timing.lookup_us,
            ),
            np.where(
                is_trim,
                timing.overhead_us + timing.lookup_us * npages,
                np.where(
                    npages > 0,
                    timing.overhead_us + slots * timing.read_us,
                    timing.overhead_us,
                ),
            ),
        )

        # State-changing rows: writes and trims.
        is_row = is_write | is_trim
        if not inline:
            write_positions = np.nonzero(is_write)[0]
            wprefix = write_prefix(wn_all[write_positions])

        i = 0
        while i < n:
            reason: Optional[str] = None
            plan = None
            af0 = (
                allocator._active_free[hot]
                if allocator._active[hot] is not None
                else 0
            )
            budget = allocator.free_blocks - trigger_blocks
            if inline:
                # Inline plan window: resolve at most `window` requests
                # ahead (the plan restarts after every boundary, so the
                # lookahead bounds wasted work, not correctness — a
                # window edge is just another place a run may split).
                e = n if n - i <= window else i + window
            else:
                # Bulk: the first GC-triggering write is an exact
                # integer prediction from the allocator state.
                e = n
                k = gc_trigger_ordinal(
                    wprefix, int(np.searchsorted(write_positions, i)),
                    af0, ppb, budget,
                )
                if k < write_positions.size:
                    e = int(write_positions[k])
                    reason = "gc-trigger"
            # The run's rows with their page counts: a write's
            # fingerprint span, a trim's extent.
            w = i + np.flatnonzero(is_row[i:e])
            wt = is_trim[w]
            wn = np.where(wt, npages[w], wn_all[w])
            wfps = write_fps(fps_flat, offsets, contiguous, i, e, w[~wt])
            if inline and w.size:
                jw, plan = plan_inline_run(
                    scheme, views, lpns[w], wn, wt, wfps, af0, budget, ppb
                )
                if jw < w.size:
                    e = int(w[jw])
                    reason = "gc-trigger"
                    w = w[:jw]
                    wn = wn[:jw]
                    wt = wt[:jw]
                    wfps = wfps[: int(wn[~wt].sum())]
                wm = ~wt
                durations[w[wm]] = inline_write_durations(
                    timing, channels, plan.programs[: w.size][wm], wn[wm]
                )
            if e > i:
                wall0 = time.perf_counter()
                seg_times = times[i:e]
                completions, t = completion_recurrence(
                    np.ascontiguousarray(seg_times, dtype=np.float64),
                    np.ascontiguousarray(durations[i:e]),
                    t,
                )
                lat_batch = completions - seg_times
                latency.record_many(lat_batch)
                ssd.requests_completed += e - i
                served = True
                if metrics is not None:
                    metrics.on_batch(lat_batch, t, ssd)
                if heartbeat is not None:
                    heartbeat.tick(
                        t,
                        ssd.requests_completed,
                        ssd.requests_completed,
                        gc_collects=scheme.gc_counters.gc_invocations,
                    )
                # Reads: counter-only effects.
                is_read = ops[i:e] == _OP_READ
                seg_reads = int(np.count_nonzero(is_read))
                if seg_reads:
                    io = scheme.io_counters
                    io.read_requests += seg_reads
                    io.pages_read += int(npages[i:e][is_read].sum())
                pages = 0
                if w.size:
                    starts = completions[w - i] - durations[w]
                    if inline:
                        apply_inline_run(
                            scheme, views, lpns[w], wn, wt, wfps, starts, plan
                        )
                    else:
                        apply_write_run(
                            scheme, views, lpns[w], wn, wt, wfps, starts
                        )
                    pages = len(wfps)
                if tracer is not None:
                    ts = float(completions[0] - durations[i])
                    tracer.span(
                        TRACK_KERNEL, "batch", ts, float(t - ts),
                        requests=e - i, pages=pages,
                        wall_us=(time.perf_counter() - wall0) * 1e6,
                    )
                    tracer.counter(TRACK_KERNEL, "batch_requests", ts, e - i)
            if reason is not None:
                # The GC-triggering write: reference scheme calls.
                t = _slow_request(
                    ssd, float(times[e]), _OP_WRITE, int(lpns[e]),
                    int(npages[e]), fps_flat[offsets[e] : offsets[e + 1]],
                    t, tracer, reason,
                )
                fallback_requests += 1
                served = True
                if tracer is not None:
                    tracer.counter(
                        TRACK_KERNEL, "fallback_requests", t, fallback_requests
                    )
                i = e + 1
            else:
                i = e
            if inline:
                # Adapt the plan window to the observed run length.
                if reason == "gc-trigger":
                    runlen = max(int(e) - i + 1, 1)  # i already advanced
                    window = min(
                        _PLAN_WINDOW_MAX, max(_PLAN_WINDOW_MIN, 2 * runlen)
                    )
                elif window < _PLAN_WINDOW_MAX:
                    window = min(_PLAN_WINDOW_MAX, window * 2)

    ssd.sim.now = t if served else ssd.sim.now
    if metrics is not None:
        metrics.finish(ssd.sim.now, ssd)
    if heartbeat is not None:
        heartbeat.finish(
            ssd.sim.now,
            ssd.requests_completed,
            ssd.requests_completed,
            gc_collects=scheme.gc_counters.gc_invocations,
        )
    return RunResult(
        scheme=scheme.name,
        trace=trace.name,
        latency=latency.summary(),
        response_times_us=latency.samples().copy(),
        gc=scheme.gc_counters,
        io=scheme.io_counters,
        wear=scheme.wear(),
        simulated_us=ssd.sim.now,
        buffer=None,
        metrics=metrics.snapshot() if metrics is not None else None,
    )


def _slow_request(
    ssd: SSD,
    arrival: float,
    op: int,
    lpn: int,
    npages: int,
    fps: Optional[np.ndarray],
    t_prev: float,
    tracer,
    reason: str,
) -> float:
    """One request through the reference scheme calls.

    Exactly :meth:`SSD._service` under blocking GC with no write
    buffer: the GC-triggering writes and any request the batched
    kernels do not model.  ``reason`` tags the fallback span
    for the attribution report.  Returns the completion time.
    """
    wall0 = time.perf_counter()
    scheme = ssd.scheme
    timing = scheme.timing
    now = arrival if arrival > t_prev else t_prev
    ssd.sim.now = now  # post-GC hooks read the service-start clock
    if op == _OP_WRITE:
        gc_us = scheme.run_gc(now) if scheme.needs_gc() else 0.0
        if gc_us > 0.0 and ssd.gc_hook is not None:
            ssd.gc_hook(ssd)
        outcome = scheme.write_request(lpn, fps, now + gc_us)
        service = timing.write_request_us(
            outcome.programs, scheme.flash.geometry.channels
        )
        if outcome.hashed_pages:
            service += timing.inline_dedup_us(outcome.hashed_pages)
        if outcome.programs == 0:
            service += timing.lookup_us
        duration = gc_us + service
    elif op == _OP_READ:
        scheme.read_request(lpn, npages)
        duration = timing.read_request_us(npages, scheme.flash.geometry.channels)
    else:
        scheme.trim_request(lpn, npages, now)
        duration = timing.overhead_us + timing.lookup_us * npages
    completion = now + duration
    ssd.latency.record(completion - arrival)
    ssd.requests_completed += 1
    if ssd.metrics is not None:
        # The reference completion event fires with the sim clock at
        # the completion time; the histogram/series view matches.
        ssd.metrics.on_complete(completion, completion - arrival, ssd)
        ssd.metrics.on_fallback(reason)
    if ssd.heartbeat is not None:
        ssd.heartbeat.tick(
            completion,
            ssd.requests_completed,
            ssd.requests_completed,
            gc_collects=scheme.gc_counters.gc_invocations,
        )
    if tracer is not None:
        tracer.span(
            TRACK_KERNEL, "fallback", now, duration,
            requests=1, wall_us=(time.perf_counter() - wall0) * 1e6,
            reason=reason,
        )
    return completion
