"""Event-driven SSD controller.

Replays a trace against an FTL scheme under the discrete-event engine:

* request arrivals fire at trace timestamps (scheduled lazily, one
  ahead, so the event heap stays O(1));
* the device services requests FIFO — the single-FTL-thread model of
  FlashSim; multi-page requests stripe across channels inside the
  service-time computation;
* before servicing a write, the controller checks the free-space
  watermark and, if crossed, runs garbage collection.  Two modes
  (``config.gc_mode``):

  - ``blocking`` — the triggering write stalls for a whole burst (up to
    ``gc_burst_blocks`` victims), the classic FlashSim behaviour whose
    interference Figs 11 and 12 quantify;
  - ``preemptive`` — the write stalls only until a small free-block
    reserve is restored; the rest of the reclamation happens one block
    per chunk in device idle time, so a queued request waits at most one
    block-collection (semi-preemptive GC, Lee et al. ISPASS'11);

* response time = completion − arrival (queueing included).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING, Callable, Deque, Dict, Optional, Tuple

import numpy as np

from repro.device.writebuffer import WriteBuffer, WriteBufferStats
from repro.metrics.counters import GCCounters, IOCounters
from repro.metrics.latency import LatencyRecorder, LatencySummary
from repro.ftl.wear import WearStats
from repro.schemes.base import FTLScheme
from repro.sim.engine import Simulator
from repro.sim.events import Event, EventKind
from repro.workloads.request import OpKind
from repro.workloads.trace import Trace

if TYPE_CHECKING:
    from repro.obs.metrics import MetricsSnapshot

#: Queued row: (arrival_us, op, lpn, npages, fps).
_Row = Tuple[float, int, int, int, Optional[np.ndarray]]


@dataclass(frozen=True)
class RunResult:
    """Everything one replay produced, for the experiment harness."""

    scheme: str
    trace: str
    latency: LatencySummary
    response_times_us: np.ndarray
    gc: GCCounters
    io: IOCounters
    wear: WearStats
    simulated_us: float
    #: present when the device ran with a DRAM write buffer.
    buffer: Optional[WriteBufferStats] = None
    #: present when the device ran with a metrics registry attached
    #: (final values + columnar time series; see repro.obs.metrics).
    metrics: Optional["MetricsSnapshot"] = None
    #: the scheme's ``kernel_gc_stats`` (GC collects per fast path or
    #: fallback reason); empty when no vectorized kernel ran.
    kernel_gc: Dict[str, int] = field(default_factory=dict)

    @property
    def blocks_erased(self) -> int:
        return self.gc.blocks_erased

    @property
    def pages_migrated(self) -> int:
        return self.gc.pages_migrated

    @property
    def mean_response_us(self) -> float:
        return self.latency.mean_us

    def write_amplification(self) -> float:
        return self.io.write_amplification(self.gc)


class SSD:
    """One simulated SSD: a scheme plus the admission/service machinery.

    ``tracer`` / ``heartbeat`` / ``metrics`` are the optional observers
    from :mod:`repro.obs`, and ``gc_hook`` an optional ``fn(ssd)``
    called after every GC episode (foreground burst or idle chunk; the
    differential oracle wires its invariant checker here).  Each one
    costs exactly one ``is not None`` test per site when absent — the
    default replay path stays untouched.
    """

    def __init__(
        self,
        scheme: FTLScheme,
        sim: Optional[Simulator] = None,
        tracer=None,
        heartbeat=None,
        metrics=None,
        keep_samples: bool = True,
    ) -> None:
        self.scheme = scheme
        self.sim = sim if sim is not None else Simulator()
        #: keep_samples=False folds latencies into the shared
        #: LatencyHistogram (repro.obs.telemetry) so replay memory is
        #: independent of trace length: count/mean/max stay exact, each
        #: percentile is a bucket upper edge (within one ~7 % bucket),
        #: and RunResult.response_times_us comes back empty.
        self.latency = LatencyRecorder(keep_samples=keep_samples)
        self._queue: Deque[_Row] = deque()
        self._busy = False
        self._rows = None  # type: Optional[object]
        self._preemptive = scheme.config.gc_mode == "preemptive"
        # Hot-path constants: _service runs once per request, so resolve
        # the attribute chains and opcode enums once here.
        self._timing = scheme.timing
        self._channels = scheme.flash.geometry.channels
        self._op_write = int(OpKind.WRITE)
        self._op_read = int(OpKind.READ)
        self._op_trim = int(OpKind.TRIM)
        self._op_names = {
            self._op_write: "write",
            self._op_read: "read",
            self._op_trim: "trim",
        }
        #: idle-time GC chunks completed (preemptive mode telemetry).
        self.background_gc_chunks = 0
        self.buffer: Optional[WriteBuffer] = None
        if scheme.config.write_buffer_pages > 0:
            self.buffer = WriteBuffer(
                scheme.config.write_buffer_pages,
                dram_us=scheme.config.write_buffer_dram_us,
            )
        self.gc_hook: Optional[Callable[["SSD"], None]] = None
        self.tracer = tracer
        #: the scheme emits GC-phase spans through the same tracer.
        scheme.tracer = tracer
        self.heartbeat = heartbeat
        #: resolved-handle metrics bundle (repro.obs.metrics); binding
        #: here registers every gauge against this scheme/buffer once.
        self.metrics = metrics
        if metrics is not None:
            metrics.bind(self)

    # ------------------------------------------------------------------ replay

    def replay(self, trace: Trace) -> RunResult:
        """Replay ``trace`` to completion and summarize the run.

        ``trace`` is a trace source: ``name`` plus a restartable
        ``iter_chunks()`` of :class:`Trace` chunks — a materialized
        :class:`Trace`, or a :class:`repro.workloads.stream.StreamingTrace`
        over a file; the replay is single-pass, one chunk at a time,
        either way.

        With ``config.kernel = "vectorized"`` the replay runs through
        the batched kernels in :mod:`repro.kernel` instead of the event
        engine — bit-identical results, one pass per chunk.  Devices
        the kernels do not model (preemptive GC, write buffers,
        per-channel queues, per-page-hashing schemes) take the
        reference loop below, which reads the chunks row by row.  Both
        take the chunks through :meth:`take_chunks`.
        """
        if self.heartbeat is not None:
            try:
                self.heartbeat.expect(len(trace))
            except TypeError:
                pass  # streaming traces have no known length (no ETA)
        if self.scheme.config.kernel == "vectorized":
            from repro.kernel import device_eligible, replay_vectorized

            if device_eligible(self):
                return replay_vectorized(self, trace)
        self._rows = chain.from_iterable(
            chunk.iter_rows() for chunk in self.take_chunks(trace)
        )
        self._schedule_next_arrival()
        self.sim.run()
        if self.buffer is not None:
            # End-of-run flush: destage whatever is still buffered so the
            # GC/WAF counters reflect the full write traffic (untimed).
            remaining = self.buffer.drain()
            if remaining:
                self._destage_with_gc(remaining, self.sim.now)
        if self.metrics is not None:
            self.metrics.finish(self.sim.now, self)
        if self.heartbeat is not None:
            self.heartbeat.finish(
                self.sim.now,
                self.sim.events_processed,
                len(self.latency),
                gc_collects=self.scheme.gc_counters.gc_invocations,
            )
        return make_run_result(
            self.scheme, trace.name, self.latency, self.sim.now,
            buffer=self.buffer, metrics=self.metrics,
        )

    def take_chunks(self, trace):
        """``trace``'s chunks, each checked against the device's logical
        capacity as a replay takes it (a request past it raises
        :class:`TraceError` by its offset in the whole trace)."""
        logical = self.scheme.config.logical_pages
        offset = 0
        for chunk in trace.iter_chunks():
            chunk.check_capacity(logical, offset)
            offset += len(chunk)
            yield chunk

    def state_snapshot(self):
        """The scheme's comparable state (see ``FTLScheme.state_snapshot``)."""
        return self.scheme.state_snapshot()

    # ------------------------------------------------------------------ events

    def _schedule_next_arrival(self) -> None:
        assert self._rows is not None
        row = next(self._rows, None)
        if row is not None:
            self.sim.schedule_at(
                row[0], EventKind.REQUEST_ARRIVAL, row, self._on_arrival
            )

    def _on_arrival(self, event: Event) -> None:
        self._queue.append(event.payload)
        self._schedule_next_arrival()
        if not self._busy:
            self._start_service()

    def _start_service(self) -> None:
        row = self._queue.popleft()
        self._busy = True
        duration = self._service(row)
        if self.tracer is not None:
            now = self.sim.now
            self.tracer.span(
                "io",
                self._op_names.get(row[1], "op"),
                now,
                duration,
                lpn=row[2],
                npages=row[3],
                queued_us=now - row[0],
            )
        self.sim.schedule(
            duration, EventKind.OP_COMPLETE, row[0], self._on_complete
        )

    def _on_complete(self, event: Event) -> None:
        self._record_completion(event.payload)
        if self._queue:
            self._start_service()
        else:
            self._busy = False
            self._maybe_background_gc()

    def _record_completion(self, arrival_us: float) -> None:
        """Account one completed request: latency, progress, metrics."""
        now = self.sim.now
        latency_us = now - arrival_us
        self.latency.record(latency_us)
        if self.metrics is not None:
            self.metrics.on_complete(now, latency_us, self)
        if self.heartbeat is not None:
            self.heartbeat.tick(
                now,
                self.sim.events_processed,
                len(self.latency),
                gc_collects=self.scheme.gc_counters.gc_invocations,
            )

    # ------------------------------------------------------------------ idle GC

    def _maybe_background_gc(self) -> None:
        """Preemptive mode: reclaim one block per idle gap."""
        if not self._preemptive:
            return
        duration = self.scheme.reclaim(self.sim.now, max_victims=1)
        if duration > 0.0:
            self.start_idle_collection(duration)

    def start_idle_collection(self, duration: float) -> None:
        """Occupy the idle device for a ``duration``-long collection."""
        self._busy = True
        self.background_gc_chunks += 1
        self.sim.schedule(duration, EventKind.GC_COMPLETE, None, self._on_bg_gc_done)

    def _on_bg_gc_done(self, event: Event) -> None:
        self._busy = False
        if self.gc_hook is not None:
            self.gc_hook(self)
        if self._queue:
            self._start_service()
        else:
            self._maybe_background_gc()

    # ------------------------------------------------------------------ service

    def _service(self, row: _Row) -> float:
        """Apply the request to the FTL and return its service time."""
        _, op, lpn, npages, fps = row
        scheme = self.scheme
        timing = self._timing
        now = self.sim.now
        if op == self._op_write:
            if self.buffer is not None:
                return self._service_buffered_write(lpn, npages, fps, now)
            return self._serve_write(lpn, fps, now)
        if op == self._op_read:
            if self.buffer is not None:
                return self._service_buffered_read(lpn, npages)
            scheme.read_request(lpn, npages)
            return timing.read_request_us(npages, self._channels)
        if op == self._op_trim:
            if self.buffer is not None:
                for offset in range(npages):
                    self.buffer.trim(lpn + offset)
            scheme.trim_request(lpn, npages, now)
            return timing.overhead_us + timing.lookup_us * npages
        raise ValueError(f"unknown opcode {op}")

    def _serve_write(self, lpn: int, fps, start: float) -> float:
        """Serve one unbuffered write from ``start``; returns its duration.

        The GC watermark check happens on the write path: writes are
        what consume free pages.  In blocking mode the whole burst
        stalls this request and everything queued behind it; in
        preemptive mode only the minimum reclamation needed to restore
        the free-block reserve does.
        """
        timing = self._timing
        gc_us = self._gc_before_write(start)
        outcome = self.scheme.write_request(lpn, fps, start + gc_us)
        service = timing.write_request_us(outcome.programs, self._channels)
        if outcome.hashed_pages:
            # Inline dedup: hash + lookup serial on the critical path.
            service += timing.inline_dedup_us(outcome.hashed_pages)
        if outcome.programs == 0:
            service += timing.lookup_us  # metadata-only update
        return gc_us + service

    def _gc_before_write(self, now: float) -> float:
        gc_us = self._foreground_gc(now)
        if gc_us > 0.0 and self.gc_hook is not None:
            self.gc_hook(self)
        return gc_us

    def _foreground_gc(self, now: float) -> float:
        """GC a write at ``now`` waits for: a whole burst (blocking) or
        only the free-block reserve's restoration (preemptive)."""
        scheme = self.scheme
        if self._preemptive:
            return scheme.reclaim(now, scheme.reserve_blocks())
        return scheme.run_gc(now) if scheme.needs_gc() else 0.0

    def _service_buffered_write(
        self, lpn: int, npages: int, fps, now: float
    ) -> float:
        """Absorb a write into the DRAM buffer, destaging on overflow."""
        timing = self._timing
        buffer = self.buffer
        assert buffer is not None
        evicted = []
        for offset in range(npages):
            evicted.extend(buffer.put(lpn + offset, int(fps[offset])))
        service = timing.overhead_us + npages * buffer.dram_us
        if not evicted:
            return service
        if self.tracer is not None:
            self.tracer.instant("io", "destage", now, pages=len(evicted))
        gc_us, programs, hashed = self._destage_with_gc(evicted, now)
        service += timing.write_request_us(programs, self._channels)
        if hashed:
            service += timing.inline_dedup_us(hashed)
        return gc_us + service

    def _destage_with_gc(self, pages, now: float):
        """Destage in block-sized chunks, interleaving GC so a large
        batch can never outrun the bounded per-burst reclamation.
        Returns ``(gc_us, programs, hashed_pages)``."""
        scheme = self.scheme
        chunk = scheme.flash.pages_per_block
        gc_us = 0.0
        programs = 0
        hashed = 0
        for start in range(0, len(pages), chunk):
            gc_us += self._gc_before_write(now + gc_us)
            outcome = scheme.destage(pages[start : start + chunk], now + gc_us)
            programs += outcome.programs
            hashed += outcome.hashed_pages
        return gc_us, programs, hashed

    def _service_buffered_read(self, lpn: int, npages: int) -> float:
        """Serve buffered pages from DRAM, the rest from flash.

        The per-request firmware overhead is charged exactly once:
        a pure miss costs precisely ``read_request_us`` (as if no
        buffer existed), a pure hit costs overhead + DRAM slots, and a
        mixed request costs the flash read for the misses plus a DRAM
        slot per hit.
        """
        scheme = self.scheme
        timing = self._timing
        buffer = self.buffer
        assert buffer is not None
        hits = sum(1 for offset in range(npages) if buffer.read(lpn + offset) is not None)
        misses = npages - hits
        scheme.read_request(lpn, npages)
        if hits == 0:
            return timing.read_request_us(npages, self._channels)
        service = timing.overhead_us + hits * buffer.dram_us
        if misses:
            # Flash slots for the misses; their request overhead is
            # already covered by the single charge above.
            service += (
                timing.read_request_us(misses, self._channels) - timing.overhead_us
            )
        return service


def make_run_result(
    scheme: FTLScheme,
    trace_name: str,
    latency: LatencyRecorder,
    simulated_us: float,
    buffer: Optional[WriteBuffer] = None,
    metrics=None,
) -> RunResult:
    """The one :class:`RunResult` assembly every replay driver ends with."""
    return RunResult(
        scheme=scheme.name,
        trace=trace_name,
        latency=latency.summary(),
        response_times_us=latency.samples().copy(),
        gc=scheme.gc_counters,
        io=scheme.io_counters,
        wear=scheme.wear(),
        simulated_us=simulated_us,
        buffer=buffer.stats if buffer is not None else None,
        metrics=metrics.snapshot() if metrics is not None else None,
        kernel_gc=dict(getattr(scheme, "kernel_gc_stats", {})),
    )


def run_trace(
    scheme: FTLScheme,
    trace: Trace,
    tracer=None,
    heartbeat=None,
    metrics=None,
    keep_samples: bool = True,
) -> RunResult:
    """Convenience wrapper: replay ``trace`` on a fresh SSD."""
    return SSD(
        scheme,
        tracer=tracer,
        heartbeat=heartbeat,
        metrics=metrics,
        keep_samples=keep_samples,
    ).replay(trace)
