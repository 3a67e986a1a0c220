"""SSD array: N independent devices behind a range router, one clock.

The serving-tier model: a multi-tenant request stream (usually a
:class:`~repro.workloads.multiplex.MultiplexedTrace`) is split by the
:class:`~repro.array.router.RangeRouter` into per-device sub-streams,
and every device replays its share as an ordinary event-driven
:class:`~repro.device.ssd.SSD` — same scheme code, same service-time
model, same GC drivers — on one shared :class:`Simulator` so the
devices' timelines interleave on a common clock.

Two array-only mechanisms sit on top:

* **NCQ admission** — each lane bounds its in-flight window (queued +
  in-service) at ``ncq_depth``, the native-command-queue model.  A
  bounded queue ahead of a FIFO work-conserving server never changes
  completion times (service start is ``max(arrival, prev completion)``
  either way), which is why an ``ncq_depth``-bounded lane is
  trajectory-identical to the unbounded bare device — the equivalence
  suite pins exactly this.
* **GC coordination** — the policies in :mod:`repro.array.coord`.
  ``independent`` leaves every lane on the stock single-SSD path
  (per-device trajectories equal solo replays, bit for bit);
  ``staggered`` and ``global-token`` bound foreground stalls and move
  bulk reclamation into coordinated idle windows.

Per-request completions are attributed to tenants positionally: a
lane's completions are FIFO in arrival order, so the *i*-th completion
on a lane belongs to the *i*-th row of that lane's sub-trace — no
tenant bookkeeping on the hot path beyond one array lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.array.coord import GCCoordinator, make_coordinator
from repro.array.router import RangeRouter
from repro.array.telemetry import ArrayTelemetry
from repro.device.ssd import SSD, RunResult, make_run_result
from repro.obs.trace import TRACK_ARRAY
from repro.schemes.base import FTLScheme
from repro.sim.engine import Simulator
from repro.sim.events import Event, EventKind
from repro.workloads.trace import Trace


@dataclass(frozen=True)
class ArrayResult:
    """Everything one array replay produced."""

    coordination: str
    trace: str
    #: per-device :class:`RunResult`, index = device id.
    devices: Tuple[RunResult, ...]
    tenants: int
    telemetry: ArrayTelemetry
    #: shared-clock end time (max over devices' last events).
    simulated_us: float
    ncq_depth: int
    #: per-device peak in-flight window occupancy.
    ncq_peaks: Tuple[int, ...]
    #: per-device count of arrivals held at the admission gate.
    ncq_held: Tuple[int, ...]
    #: coordinator counters (deferrals, idle bursts, grants, ...).
    coord_stats: Dict[str, float] = field(default_factory=dict)
    #: set when a vectorized-kernel request fell back to the event loop.
    kernel_fallback_reason: Optional[str] = None
    #: present when the array ran with an ArrayMetrics registry
    #: attached (global + per-device/per-tenant labeled families).
    metrics: Optional[object] = None

    def __len__(self) -> int:
        return len(self.devices)

    @property
    def kernel_gc(self) -> Tuple[Dict[str, int], ...]:
        """Per-device :attr:`RunResult.kernel_gc` (empty dicts on the
        reference loop)."""
        return tuple(device.kernel_gc for device in self.devices)

    @property
    def requests_completed(self) -> int:
        return int(self.telemetry.hist.total)

    def percentile(self, p: float) -> float:
        """Array-wide latency percentile from the global histogram."""
        return self.telemetry.hist.percentile(p)


class _ArrayLane(SSD):
    """One device of the array: a stock SSD plus NCQ + coordination.

    Every override either narrows admission (NCQ) or routes a GC
    decision through the coordinator; a lane with ``_coord is None``
    and effectively-unbounded depth executes exactly the inherited
    code path.
    """

    def __init__(
        self,
        index: int,
        array: "SSDArray",
        scheme: FTLScheme,
        sim: Simulator,
        ncq_depth: int,
        coord: Optional[GCCoordinator],
        tracer=None,
        keep_samples: bool = True,
    ) -> None:
        super().__init__(
            scheme, sim=sim, tracer=tracer, keep_samples=keep_samples
        )
        self.index = index
        self._array = array
        self._ncq_depth = ncq_depth
        self._coord = coord
        self._inflight = 0
        self._ncq_blocked: Optional[tuple] = None
        self._tenants: Optional[np.ndarray] = None
        self._completed = 0
        #: this lane's own last activity on the shared clock — the
        #: per-device ``simulated_us`` (``sim.now`` covers the array).
        self.last_event_us = 0.0
        self.ncq_peak = 0
        self.ncq_held = 0
        self.rows_done = False
        #: set to the epoch runner while the vectorized array kernel
        #: drives this lane (idle-burst completions route to it).
        self._epoch = None

    @property
    def busy(self) -> bool:
        return self._busy

    # --------------------------------------------------- NCQ admission

    def _schedule_next_arrival(self) -> None:
        assert self._rows is not None
        while True:
            row = next(self._rows, None)
            if row is None:
                self.rows_done = True
                return
            now = self.sim.now
            if row[0] <= now and self._inflight > 0:
                # The admission chain fell behind real time while the
                # gate was closed: take every already-due row
                # synchronously — the bare device would have queued
                # them at their timestamps, and idle-GC decisions key
                # off queue emptiness, so they must be *in the queue*
                # (not pending as events) by the time the inherited
                # completion logic looks.  The chain pauses when a row
                # parks at the full gate.
                if self._inflight >= self._ncq_depth:
                    self._ncq_blocked = row
                    self.ncq_held += 1
                    return
                self._inflight += 1
                if self._inflight > self.ncq_peak:
                    self.ncq_peak = self._inflight
                self._queue.append(row)
                continue
            self.sim.schedule_at(
                max(row[0], now),
                EventKind.REQUEST_ARRIVAL,
                row,
                self._on_arrival,
            )
            return

    def _on_arrival(self, event: Event) -> None:
        if self._inflight >= self._ncq_depth:
            self._ncq_blocked = event.payload
            self.ncq_held += 1
            return
        self._admit(event.payload)

    def _admit(self, row: tuple) -> None:
        self._inflight += 1
        if self._inflight > self.ncq_peak:
            self.ncq_peak = self._inflight
        self._queue.append(row)
        self._schedule_next_arrival()
        if not self._busy:
            self._start_service()

    def _on_complete(self, event: Event) -> None:
        self._inflight -= 1
        self.last_event_us = self.sim.now
        tenants = self._tenants
        tenant = int(tenants[self._completed]) if tenants is not None else 0
        self._completed += 1
        self._array._on_lane_complete(
            self, tenant, self.sim.now - event.payload
        )
        if self._ncq_blocked is not None:
            # Re-open the gate *before* the inherited completion logic
            # pops the queue: the queue then holds exactly what the
            # bare device's would, so idle-GC decisions cannot diverge.
            row = self._ncq_blocked
            self._ncq_blocked = None
            self._admit(row)
        super()._on_complete(event)

    # ------------------------------------------------- GC coordination

    def _foreground_gc(self, now: float) -> float:
        if self._coord is None or self._preemptive:
            return super()._foreground_gc(now)
        return self._coord.foreground_gc(self, now)

    def _maybe_background_gc(self) -> None:
        if self._coord is not None and not self._preemptive:
            self._coord.on_idle(self)
            return
        super()._maybe_background_gc()

    def _on_bg_gc_done(self, event: Event) -> None:
        self.last_event_us = self.sim.now
        if self._coord is not None:
            self._coord.on_collection_done(self, self.sim.now)
        if self._epoch is not None:
            # Epoch-kernel mode keeps no event-queue rows; the runner
            # owns the queue-or-idle decision the inherited handler
            # would make.
            self._epoch.on_bg_gc_done(self)
            return
        super()._on_bg_gc_done(event)

    # ------------------------------------------------------- lifecycle

    def start(self, sub_trace: Trace, tenant_ids: np.ndarray) -> None:
        self._rows = sub_trace.iter_rows()
        self._trace_name = sub_trace.name
        self._tenants = tenant_ids
        self.rows_done = False
        self._schedule_next_arrival()

    def finish(self) -> RunResult:
        return make_run_result(
            self.scheme, self._trace_name, self.latency, self.last_event_us
        )

    def pending(self) -> bool:
        return (
            not self.rows_done
            or bool(self._queue)
            or self._busy
            or self._ncq_blocked is not None
        )


class SSDArray:
    """N devices, one clock, one router, one coordination policy."""

    def __init__(
        self,
        schemes: Sequence[FTLScheme],
        coordination: str = "independent",
        ncq_depth: int = 32,
        pages_per_device: Optional[int] = None,
        tracer=None,
        heartbeat=None,
        metrics=None,
        keep_samples: bool = True,
        window_us: Optional[float] = None,
    ) -> None:
        if not schemes:
            raise ValueError("need at least one device scheme")
        if ncq_depth < 1:
            raise ValueError(f"ncq_depth must be >= 1, got {ncq_depth}")
        if any(s.config.write_buffer_pages > 0 for s in schemes):
            raise ValueError(
                "SSDArray does not model per-device DRAM write buffers"
            )
        logical = min(s.config.logical_pages for s in schemes)
        if pages_per_device is None:
            pages_per_device = schemes[0].config.logical_pages
        elif pages_per_device > logical:
            raise ValueError(
                f"pages_per_device={pages_per_device} exceeds the devices' "
                f"{logical} logical pages"
            )
        self.sim = Simulator()
        self.router = RangeRouter(len(schemes), pages_per_device)
        self.coordination = coordination
        self.coordinator = make_coordinator(coordination, window_us=window_us)
        self.ncq_depth = ncq_depth
        self.tracer = tracer
        self.heartbeat = heartbeat
        #: ArrayMetrics bundle; bound in replay() once the tenant count
        #: is known (label children are resolved per device/tenant).
        self.metrics = metrics
        self.telemetry: Optional[ArrayTelemetry] = None
        self.lanes: List[_ArrayLane] = [
            _ArrayLane(
                index=i,
                array=self,
                scheme=scheme,
                sim=self.sim,
                ncq_depth=ncq_depth,
                coord=self.coordinator,
                tracer=tracer,
                keep_samples=keep_samples,
            )
            for i, scheme in enumerate(schemes)
        ]
        if self.coordinator is not None:
            self.coordinator.bind(self)
        self.kernel_fallback_reason: Optional[str] = None

    @property
    def devices(self) -> int:
        return len(self.lanes)

    # ---------------------------------------------------------- replay

    def replay(self, trace: Trace) -> ArrayResult:
        """Split ``trace`` across the lanes and run the shared clock dry."""
        config = self.lanes[0].scheme.config
        placements = getattr(trace, "placements", None)
        tenant_ids = getattr(trace, "tenant_ids", None)
        if placements is not None:
            tenants = len(placements)
        elif tenant_ids is not None and len(tenant_ids):
            tenants = int(np.max(tenant_ids)) + 1
        else:
            tenants = 1
        self.telemetry = ArrayTelemetry(self.devices, tenants)
        if self.metrics is not None:
            self.metrics.bind_array(self, self.devices, tenants)
        if config.kernel == "vectorized":
            from repro.kernel.arrayepoch import (
                array_kernel_eligible,
                replay_array_vectorized,
            )

            reason = array_kernel_eligible(self, trace)
            if reason is None:
                return replay_array_vectorized(self, trace, tenants)
            # Something in the replay is outside the epoch model; run
            # the reference loop and tag the fallback so kernel-matrix
            # CI can tell "reference on purpose" from "silently slow".
            self.kernel_fallback_reason = reason
            if self.tracer is not None:
                self.tracer.instant(
                    TRACK_ARRAY,
                    "kernel-fallback",
                    0.0,
                    reason=reason,
                )
        if self.heartbeat is not None:
            try:
                self.heartbeat.expect(len(trace))
            except TypeError:
                pass  # streaming traces have no known length (no ETA)
        for lane, (sub, lane_tenants) in zip(
            self.lanes, self.router.split(trace)
        ):
            lane.start(sub, lane_tenants)
        from repro.array.coord import StaggeredCoordinator

        if isinstance(self.coordinator, StaggeredCoordinator):
            self._schedule_window(self.coordinator.window_us)
        self.sim.run()
        if self.metrics is not None:
            self.metrics.finish(self.sim.now, self)
        if self.heartbeat is not None:
            self.heartbeat.finish(
                self.sim.now,
                self.sim.events_processed,
                self.telemetry.hist.total,
                gc_collects=self._gc_collects(),
            )
        return self.result(trace.name, tenants)

    def simulated_us(self) -> float:
        """Shared-clock end time: the latest lane's last activity."""
        return max([lane.last_event_us for lane in self.lanes] + [0.0])

    def result(self, trace_name: str, tenants: int) -> ArrayResult:
        """The one :class:`ArrayResult` assembly both replay drivers
        end with, once the lanes are drained and the observers finished."""
        return ArrayResult(
            coordination=self.coordination,
            trace=trace_name,
            devices=tuple(lane.finish() for lane in self.lanes),
            tenants=tenants,
            telemetry=self.telemetry,
            simulated_us=self.simulated_us(),
            ncq_depth=self.ncq_depth,
            ncq_peaks=tuple(lane.ncq_peak for lane in self.lanes),
            ncq_held=tuple(lane.ncq_held for lane in self.lanes),
            coord_stats=(
                self.coordinator.stats() if self.coordinator is not None else {}
            ),
            kernel_fallback_reason=self.kernel_fallback_reason,
            metrics=(
                self.metrics.snapshot() if self.metrics is not None else None
            ),
        )

    # ----------------------------------------------------------- hooks

    def _gc_collects(self) -> int:
        return sum(
            lane.scheme.gc_counters.gc_invocations for lane in self.lanes
        )

    def _on_lane_complete(
        self, lane: _ArrayLane, tenant: int, latency_us: float
    ) -> None:
        self.telemetry.on_complete(lane.index, tenant, latency_us)
        if self.metrics is not None:
            self.metrics.on_array_complete(lane.index, tenant, self.sim.now)
        if self.heartbeat is not None:
            self.heartbeat.tick(
                self.sim.now,
                self.sim.events_processed,
                self.telemetry.hist.total,
                gc_collects=self._gc_collects(),
            )

    def _schedule_window(self, window_us: float) -> None:
        """Staggered mode: tick the coordinator at every window edge.

        Re-arms itself only while any lane still has work, so the event
        heap drains once the last request (and trailing idle burst)
        completes.
        """
        next_edge = (self.sim.now // window_us + 1.0) * window_us
        self.sim.schedule_at(
            next_edge, EventKind.GENERIC, None, self._on_window
        )

    def _on_window(self, event: Event) -> None:
        self.coordinator.on_window(self.sim.now)
        if any(lane.pending() for lane in self.lanes):
            self._schedule_window(self.coordinator.window_us)


__all__ = ["ArrayResult", "SSDArray", "_ArrayLane"]
