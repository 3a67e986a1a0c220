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
only changes *when* things complete.  Everything but dispatch — the
write/read/trim service with its GC trigger and ``gc_hook``, the DRAM
write buffer, latency capture, metrics, heartbeat and the run result —
is the inherited :class:`SSD` code.  Idle-time (``preemptive``) GC is
single-queue logic the per-channel model does not define, so that mode
is rejected.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.device.ssd import SSD, _Row
from repro.schemes.base import FTLScheme
from repro.sim.engine import Simulator
from repro.sim.events import Event, EventKind


class ParallelSSD(SSD):
    """Per-channel queues; GC blocks only its own channel."""

    def __init__(
        self,
        scheme: FTLScheme,
        sim: Optional[Simulator] = None,
        tracer=None,
        heartbeat=None,
        metrics=None,
        keep_samples: bool = True,
    ) -> None:
        if scheme.config.gc_mode == "preemptive":
            raise ValueError(
                "the channel-parallel device models blocking GC only "
                "(idle-time preemptive GC is single-queue logic)"
            )
        super().__init__(
            scheme,
            sim=sim,
            tracer=tracer,
            heartbeat=heartbeat,
            metrics=metrics,
            keep_samples=keep_samples,
        )
        self.channels = scheme.flash.geometry.channels
        # Each request is served by one channel end-to-end.
        self._channels = 1
        self._queues: List[Deque[_Row]] = [deque() for _ in range(self.channels)]
        self._busy = [False] * self.channels

    # ------------------------------------------------------------------ events

    def _dispatch_channel(self, row: _Row) -> int:
        _, op, lpn, _, _ = row
        if op == self._op_write:
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
                self._op_names.get(row[1], "op"),
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
        self._record_completion(arrival_us)
        if self._queues[channel]:
            self._start_service(channel)
        else:
            self._busy[channel] = False
