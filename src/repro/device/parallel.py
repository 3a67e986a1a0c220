"""Channel-parallel SSD controller.

The default :class:`~repro.device.ssd.SSD` models the device as one
FIFO server whose multi-page requests stripe internally — adequate for
the paper's single-queue FlashSim setup, but it serializes *requests*
and lets a GC burst stall the whole device.  This controller models
what the related work (Shahidi et al., SC'16 — parallel GC) exploits:
``channels`` independent servers, each with its own queue, where a GC
burst occupies only the channel whose write triggered it while the
other channels keep serving user I/O.

Dispatch model: write requests hash to a channel by start LPN (so
repeated writes of the same extent stay ordered; overlapping extents
with *different* starts may reorder, a documented approximation); reads
follow the channel of their first mapped page; each request is serviced
by one channel end-to-end (``channels=1`` timing).

State mutations still happen on a single FTL (mapping, allocator,
dedup state are shared and mutated atomically at service start), so all
correctness invariants of the schemes hold unchanged; the channel model
only changes *when* things complete.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

import numpy as np

from repro.device.ssd import RunResult, make_run_result
from repro.metrics.latency import LatencyRecorder
from repro.schemes.base import FTLScheme
from repro.sim.engine import Simulator
from repro.sim.events import Event, EventKind
from repro.workloads.request import OpKind
from repro.workloads.trace import Trace

_Row = Tuple[float, int, int, int, Optional[np.ndarray]]


class ParallelSSD:
    """Per-channel queues; GC blocks only its own channel."""

    _OP_NAMES = {
        int(OpKind.WRITE): "write",
        int(OpKind.READ): "read",
        int(OpKind.TRIM): "trim",
    }

    def __init__(
        self,
        scheme: FTLScheme,
        sim: Optional[Simulator] = None,
        tracer=None,
        heartbeat=None,
    ) -> None:
        self.scheme = scheme
        self.sim = sim if sim is not None else Simulator()
        self.latency = LatencyRecorder()
        self.channels = scheme.flash.geometry.channels
        self._queues: List[Deque[_Row]] = [deque() for _ in range(self.channels)]
        self._busy = [False] * self.channels
        self._rows = None  # type: Optional[object]
        self.requests_completed = 0
        self.tracer = tracer
        #: the scheme's GC-phase spans flow through the same tracer.
        scheme.tracer = tracer
        self.heartbeat = heartbeat

    # ------------------------------------------------------------------ replay

    def replay(self, trace: Trace) -> RunResult:
        self._rows = trace.iter_rows()
        self._schedule_next_arrival()
        self.sim.run()
        if self.heartbeat is not None:
            self.heartbeat.finish(
                self.sim.now, self.sim.events_processed, self.requests_completed
            )
        return make_run_result(self.scheme, trace.name, self.latency, self.sim.now)

    # ------------------------------------------------------------------ events

    def _schedule_next_arrival(self) -> None:
        assert self._rows is not None
        row = next(self._rows, None)
        if row is not None:
            self.sim.schedule_at(row[0], EventKind.REQUEST_ARRIVAL, row, self._on_arrival)

    def _dispatch_channel(self, row: _Row) -> int:
        _, op, lpn, _, _ = row
        if op == int(OpKind.WRITE):
            return lpn % self.channels
        ppn = self.scheme.mapping.lookup(lpn)
        if ppn is not None:
            return self.scheme.flash.geometry.ppn_to_channel(ppn)
        return lpn % self.channels

    def _on_arrival(self, event: Event) -> None:
        row = event.payload
        channel = self._dispatch_channel(row)
        self._queues[channel].append(row)
        self._schedule_next_arrival()
        if not self._busy[channel]:
            self._start_service(channel)

    def _start_service(self, channel: int) -> None:
        row = self._queues[channel].popleft()
        self._busy[channel] = True
        duration = self._service(row)
        if self.tracer is not None:
            now = self.sim.now
            self.tracer.span(
                f"io.ch{channel}",
                self._OP_NAMES.get(row[1], "op"),
                now,
                duration,
                lpn=row[2],
                npages=row[3],
                queued_us=now - row[0],
            )
        self.sim.schedule(
            duration,
            EventKind.OP_COMPLETE,
            (channel, row[0]),
            self._on_complete,
        )

    def _on_complete(self, event: Event) -> None:
        channel, arrival_us = event.payload
        self.latency.record(self.sim.now - arrival_us)
        self.requests_completed += 1
        if self.heartbeat is not None:
            self.heartbeat.tick(
                self.sim.now, self.sim.events_processed, self.requests_completed
            )
        if self._queues[channel]:
            self._start_service(channel)
        else:
            self._busy[channel] = False

    # ------------------------------------------------------------------ service

    def _service(self, row: _Row) -> float:
        """One channel serves the request end-to-end (channels=1)."""
        _, op, lpn, npages, fps = row
        scheme = self.scheme
        timing = scheme.timing
        now = self.sim.now
        if op == int(OpKind.WRITE):
            gc_us = scheme.run_gc(now) if scheme.needs_gc() else 0.0
            outcome = scheme.write_request(lpn, fps, now + gc_us)
            service = timing.write_request_us(outcome.programs, 1)
            if outcome.hashed_pages:
                service += timing.inline_dedup_us(outcome.hashed_pages)
            if outcome.programs == 0:
                service += timing.lookup_us
            return gc_us + service
        if op == int(OpKind.READ):
            scheme.read_request(lpn, npages)
            return timing.read_request_us(npages, 1)
        if op == int(OpKind.TRIM):
            scheme.trim_request(lpn, npages, now)
            return timing.overhead_us + timing.lookup_us * npages
        raise ValueError(f"unknown opcode {op}")
