"""The run step of the vectorized replay: chunked trace -> batched kernels.

The vectorized replay reproduces :meth:`repro.device.ssd.SSD.replay`
bit for bit without the event engine.  The FIFO single-server device
makes request timing a pure recurrence — ``completion_i =
max(arrival_i, completion_{i-1}) + duration_i`` — and the replay
factors into *runs* of requests with no GC trigger between them:

1. take the next chunk of raw trace columns from the trace source's
   ``iter_chunks()`` (a :class:`~repro.workloads.trace.Trace` or a
   :class:`~repro.workloads.stream.StreamingTrace`; the source owns
   its chunk size) and derive its :class:`RunColumns` once: write page
   counts, elementwise service durations, the write page prefix sum
   (arrival order is the trace's own contract);
2. plan the next run (:func:`plan_run`).  For bulk schemes every write
   programs all its pages, so the first GC-triggering write follows
   from the allocator state alone (one binary search over the chunk's
   write page prefix sum, :func:`gc_trigger_ordinal`).  Trims program
   nothing, so they never end a run.  For the inline-dedupe scheme only
   dedup *misses* program, so :func:`repro.kernel.inline.plan_inline_run`
   resolves the window's dedup outcomes read-only — one vectorized index
   probe plus a dict loop — with the same watermark check fused in;
3. everything before that boundary is one run: completions come from
   :func:`completion_recurrence`, and :func:`commit_run` lands it —
   latencies via ``LatencyRecorder.record_many`` (and, when metrics are
   attached, one exact histogram fold plus a boundary-clocked series
   sample through the observer's ``on_batch``), the writes' and trims'
   state effects net-final and in request order through
   :func:`repro.kernel.write.apply_write_run` or
   :func:`repro.kernel.inline.apply_inline_run`;
4. the boundary request (the GC-triggering write) goes through the
   reference write path, ``SSD._serve_write`` — same ``run_gc`` /
   ``write_request``, same post-GC hook — accounted by
   :func:`commit_scalar`, and the scan restarts behind it.

This module holds those parts; the loop that strings them together
is :class:`repro.kernel.arrayepoch._EpochRunner`, for a bare SSD (one
uncoordinated lane, :func:`replay_vectorized`) and for every array
lane alike.

The trace contract (:class:`repro.workloads.trace.Trace` checks it at
construction) leaves no request the batched kernels cannot model: the
only per-request fallback is the GC-triggering write, so the fallback
is row-granular, never a mid-run abort.  The ``kernel`` tracer track
records one ``batch`` span per run and one ``fallback`` span per
slow-path request (with host ``wall_us`` attribution and a ``reason``
tag, ``gc-trigger``); the attached metrics count the same batches and
per-reason fallbacks, and those counters feed the report rows.
"""

from __future__ import annotations

import time

import numpy as np

from repro.device.parallel import ParallelSSD
from repro.device.ssd import RunResult, SSD, make_run_result
from repro.ftl.allocator import Region
from repro.kernel.burst import install_burst_pass
from repro.kernel.inline import (
    apply_inline_run,
    inline_write_durations,
    plan_inline_run,
)
from repro.kernel.views import ColumnViews
from repro.kernel.write import apply_write_run
from repro.obs.trace import TRACK_KERNEL
from repro.schemes.inline_dedupe import InlineDedupeScheme
from repro.workloads.request import OpKind

_OP_WRITE = int(OpKind.WRITE)
_OP_READ = int(OpKind.READ)
_OP_TRIM = int(OpKind.TRIM)

#: Run window bounds (requests), bulk or inline.  A window edge is one
#: more place a run may end, so the window adapts to the observed run
#: length (:func:`next_window`): big windows amortize the per-run cost
#: and the inline plan's vectorized probe, small ones bound the wasted
#: inline lookahead when GC triggers every few dozen writes.  The cap
#: also bounds the inline plan's transient memory (per-page lists and
#: dicts grow with the window): on a 100k-request streamed replay an
#: 8192 cap raised peak RSS by ~6 MB over a 1024 cap at no measurable
#: time gain.
_WINDOW_MIN = 256
_WINDOW_MAX = 1024


def next_window(window: int, run_len: int) -> int:
    """The run window after a committed run of ``run_len`` requests.

    A run that filled its window doubles it; a shorter one (a boundary
    cut it) sets it to twice the run, both within the bounds.
    """
    if run_len >= window:
        return min(_WINDOW_MAX, 2 * window)
    return min(_WINDOW_MAX, max(_WINDOW_MIN, 2 * run_len))


def completion_recurrence(arrivals, durations, t_prev):
    """FIFO single-server completions ``t_i = max(a_i, t_{i-1}) + d_i``
    from ``t_prev``; returns ``(completions, t_final)``.

    Exactly what the event engine computes one event at a time.  Float
    addition is not associative, so a cumsum reformulation would not be
    bit-identical: the recurrence runs sequentially over ``tolist()``
    floats (no per-element ndarray boxing).
    """
    comp = []
    t = t_prev
    for a, d in zip(arrivals.tolist(), durations.tolist()):
        t = (a if a > t else t) + d
        comp.append(t)
    return np.array(comp, dtype=np.float64), t


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


# ------------------------------------------------------------- run step


def kernel_views(scheme) -> ColumnViews:
    """The scheme's column views, with its GC burst pass installed."""
    views = ColumnViews(scheme)
    install_burst_pass(scheme, views)
    return views


class RunColumns:
    """One chunk's request columns and what every run derives from them.

    Built once per chunk (a whole sub-trace for an array lane; the
    chunk's :class:`~repro.workloads.trace.Trace` already checked its
    arrival order, opcodes, extents and fingerprint spans): the
    elementwise service durations and the write page prefix sum.  Write
    durations are state-independent for bulk schemes; for inline-dedupe
    they depend on the per-request dedup miss count, so
    :func:`plan_run` scatters them in per run.
    """

    __slots__ = (
        "n", "times", "ops", "lpns", "npages", "offsets", "fps_flat",
        "is_read", "is_trim", "is_row",
        "durations", "write_positions", "wprefix",
    )

    def __init__(self, chunk, timing, channels: int):
        times = np.ascontiguousarray(chunk.times_us, dtype=np.float64)
        ops = chunk.ops
        npages = chunk.npages.astype(np.int64)
        self.n = len(times)
        self.times = times
        self.ops = ops
        self.lpns = chunk.lpns
        self.npages = npages
        self.offsets = chunk.fp_offsets
        self.fps_flat = chunk.fps_flat
        is_write = ops == _OP_WRITE
        is_trim = ops == _OP_TRIM
        self.is_read = ops == _OP_READ
        self.is_trim = is_trim
        #: state-changing rows: writes and trims.
        self.is_row = is_write | is_trim
        # A write's npages is its fingerprint span (the trace contract).
        slots = (npages + (channels - 1)) // channels
        self.durations = np.where(
            is_write,
            timing.overhead_us + slots * timing.write_us,
            np.where(
                is_trim,
                timing.overhead_us + timing.lookup_us * npages,
                timing.overhead_us + slots * timing.read_us,
            ),
        ).astype(np.float64, copy=False)
        self.write_positions = np.nonzero(is_write)[0]
        self.wprefix = write_prefix(npages[self.write_positions])


class RunPlan:
    """One planned run ``[i, e)``: its state-changing rows ``w`` with
    their page counts ``wn`` (``npages``), trim mask ``wt``,
    fingerprints ``wfps`` and flash program counts ``progs``; the
    inline-dedupe ``plan``; and the allocator state it was planned from.
    ``boundary`` marks request ``e`` as the write whose pre-write GC
    check fires."""

    __slots__ = (
        "e", "boundary", "w", "wn", "wt", "wfps", "progs", "plan",
        "af0", "free0", "budget",
    )

    def truncate(self, e: int, keep: int) -> None:
        """End the run at request ``e``, keeping its first ``keep`` rows."""
        self.e = e
        self.w = self.w[:keep]
        self.wn = self.wn[:keep]
        self.wt = self.wt[:keep]
        self.progs = self.progs[:keep]
        self.wfps = self.wfps[: int(self.wn[~self.wt].sum())]


def plan_run(
    scheme, views: ColumnViews, cols: RunColumns, i: int, window: int,
    floor_blocks: int,
) -> RunPlan:
    """Plan the run starting at request ``i``, read-only.

    The run ends at the window edge, the chunk end, or the first write
    whose pre-write check finds the free blocks it would leave below
    ``floor_blocks`` — the exact integer prediction of
    :func:`gc_trigger_ordinal` for bulk schemes, the inline plan's fused
    watermark check for inline-dedupe.  A window edge is just another
    place a run may split, so the window bounds wasted lookahead, not
    correctness.
    """
    allocator = scheme.allocator
    ppb = scheme.flash.pages_per_block
    hot = Region.HOT
    run = RunPlan()
    run.af0 = af0 = (
        allocator._active_free[hot] if allocator._active[hot] is not None else 0
    )
    run.free0 = allocator.free_blocks
    run.budget = budget = run.free0 - floor_blocks
    run.e = e = min(i + window, cols.n)
    run.w = w = i + np.flatnonzero(cols.is_row[i:e])
    run.wt = wt = cols.is_trim[w]
    run.wn = wn = cols.npages[w]
    # Only writes carry fingerprint spans (the trace contract): the
    # run's write fingerprints are one slice of the flat column.
    run.wfps = cols.fps_flat[cols.offsets[i] : cols.offsets[e]]
    run.plan = None
    inline = not scheme.bulk_user_writes
    if inline:
        jw = 0
        run.progs = wn[:0]
        if w.size:
            jw, run.plan = plan_inline_run(
                scheme, views, cols.lpns[w], wn, wt, run.wfps, af0, budget, ppb
            )
            run.progs = run.plan.programs
    else:
        positions = cols.write_positions
        k = gc_trigger_ordinal(
            cols.wprefix, int(np.searchsorted(positions, i)), af0, ppb, budget
        )
        jw = int(np.searchsorted(w, positions[k])) if k < positions.size else w.size
        run.progs = np.where(wt, 0, wn)
    run.boundary = jw < w.size
    if run.boundary:
        run.truncate(int(w[jw]), jw)
    if inline and run.w.size:
        wm = ~run.wt
        cols.durations[run.w[wm]] = inline_write_durations(
            scheme.timing, scheme.flash.geometry.channels,
            run.progs[wm], run.wn[wm],
        )
    return run


def commit_run(
    ssd: SSD, views: ColumnViews, cols: RunColumns, run: RunPlan, i: int,
    completions: np.ndarray, t_end: float, observer, tracer, wall0: float,
) -> np.ndarray:
    """Land the planned run ``[i, run.e)`` whose ``completions`` (ending
    at ``t_end``) the caller computed; returns the service start of each
    of its rows ``run.w``.

    ``observer`` is the device's metrics bundle or an array lane's fold
    (both follow the ``DeviceMetrics`` observer protocol).
    """
    scheme = ssd.scheme
    e = run.e
    lat_batch = completions - cols.times[i:e]
    ssd.latency.record_many(lat_batch)
    if observer is not None:
        observer.on_batch(lat_batch, t_end, ssd)
    if ssd.heartbeat is not None:
        ssd.heartbeat.tick(
            t_end,
            len(ssd.latency),
            len(ssd.latency),
            gc_collects=scheme.gc_counters.gc_invocations,
        )
    # Reads: counter-only effects.
    is_read = cols.is_read[i:e]
    seg_reads = int(np.count_nonzero(is_read))
    if seg_reads:
        io = scheme.io_counters
        io.read_requests += seg_reads
        io.pages_read += int(cols.npages[i:e][is_read].sum())
    w = run.w
    starts = completions[w - i] - cols.durations[w]
    if run.plan is not None:
        apply_inline_run(
            scheme, views, cols.lpns[w], run.wn, run.wt, run.wfps, starts,
            run.plan,
        )
    elif w.size:
        apply_write_run(
            scheme, views, cols.lpns[w], run.wn, run.wt, run.wfps, starts
        )
    if tracer is not None:
        ts = float(completions[0] - cols.durations[i])
        tracer.span(
            TRACK_KERNEL, "batch", ts, float(t_end - ts),
            requests=e - i, pages=len(run.wfps),
            wall_us=(time.perf_counter() - wall0) * 1e6,
        )
        tracer.counter(TRACK_KERNEL, "batch_requests", ts, e - i)
    return starts


def commit_scalar(
    ssd: SSD, observer, tracer, arrival: float, start: float,
    duration: float, reason: str, wall0: float,
) -> float:
    """Account one request the reference scheme calls served from
    ``start`` for ``duration``; ``reason`` tags its fallback span for
    the attribution report.  Returns the completion time."""
    completion = start + duration
    ssd.latency.record(completion - arrival)
    if observer is not None:
        # The reference completion event fires with the sim clock at
        # the completion time; the histogram/series view matches.
        observer.on_complete(completion, completion - arrival, ssd)
        observer.on_fallback(reason)
    if ssd.heartbeat is not None:
        ssd.heartbeat.tick(
            completion,
            len(ssd.latency),
            len(ssd.latency),
            gc_collects=ssd.scheme.gc_counters.gc_invocations,
        )
    if tracer is not None:
        tracer.span(
            TRACK_KERNEL, "fallback", start, duration,
            requests=1, wall_us=(time.perf_counter() - wall0) * 1e6,
            reason=reason,
        )
    return completion


# ---------------------------------------------------------------- entry


def device_eligible(ssd: SSD) -> bool:
    """Does the device run the configuration the batched kernels model?

    One FIFO server (not the per-channel :class:`ParallelSSD`),
    blocking foreground GC, no DRAM write buffer, and either a
    bulk-write scheme or the inline-dedupe scheme (whose foreground
    hash/lookup path has its own plan/apply kernel).  Post-GC hooks,
    tracers, metrics and heartbeats are supported — metrics fold
    per-batch with exact histogram counts, series samples clock at
    batch boundaries.  Any other device silently takes the reference
    event loop under the same ``FTLScheme`` interface.
    """
    scheme = ssd.scheme
    return (
        scheme.config.kernel == "vectorized"
        and not isinstance(ssd, ParallelSSD)
        and scheme.config.gc_mode == "blocking"
        and ssd.buffer is None
        and (scheme.bulk_user_writes or type(scheme) is InlineDedupeScheme)
    )


def replay_vectorized(ssd: SSD, trace) -> RunResult:
    """Replay ``trace`` through the batched kernels; see module docs."""
    # Imported here: the epoch runner's module imports this one.
    from repro.kernel.arrayepoch import _EpochRunner, _LaneState

    scheme = ssd.scheme
    state = _LaneState(
        ssd, ssd.metrics, ssd.take_chunks(trace), scheme._gc_trigger_blocks,
        "gc-trigger",
    )
    _EpochRunner(ssd.sim, ssd.tracer, None, [state]).run()
    if state.cols is not None:  # at least one request completed
        ssd.sim.now = state.t
    if ssd.metrics is not None:
        ssd.metrics.finish(ssd.sim.now, ssd)
    if ssd.heartbeat is not None:
        ssd.heartbeat.finish(
            ssd.sim.now,
            len(ssd.latency),
            len(ssd.latency),
            gc_collects=scheme.gc_counters.gc_invocations,
        )
    return make_run_result(
        scheme, trace.name, ssd.latency, ssd.sim.now, metrics=ssd.metrics
    )


# Unused: boundary writes go through _EpochRunner._commit_scalar.  Kept
# only so bench/tracing.py's sites for this module resolve; drop with
# them at the next benchmark change.
_slow_request = commit_scalar
