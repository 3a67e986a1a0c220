"""Array-level GC coordination policies.

The research hook ("Optimize Unsynchronized Garbage Collection in an
SSD Array", Zheng/Burns/Szalay): when every device in an array runs its
foreground GC independently, the merged request stream sees each
device's multi-block stall — the array-wide tail latency is inflated
far past any single device's.  The fix is scheduling: bound what a
foreground write may reclaim and move bulk reclamation into coordinated
windows.

Three policies, orthogonal to the per-device victim-selection policies:

* ``independent`` — no coordination.  Every lane keeps the stock
  single-SSD behaviour (full blocking bursts at the watermark), which
  is both the uncoordinated baseline the experiment measures *and* the
  mode under which per-device trajectories are bit-identical to solo
  replays (the array equivalence suite pins this).
* ``staggered`` — foreground writes may only restore the small
  free-block reserve (the semi-preemptive minimum); bulk reclamation
  happens in a rotating per-device window: device ``floor(t / W) % N``
  owns window ``t`` and drains up to one burst per idle gap inside it.
* ``global-token`` — same bounded foreground reclamation, with bulk
  idle GC serialized by a single array-wide token: at most one device
  performs an idle burst at any moment.

Coordinated lanes therefore never stall a write for more than a
reserve-restoring collection, and the deferral is visible on the
``array`` tracer track plus the coordinator's stats.

Every policy also answers :meth:`GCCoordinator.may_act_in_gap`: could
it start an idle burst on a lane during a given idle gap?  The answer
must be sound (never "no" when the hooks above would act) and may be
conservative; the epoch-batched array kernel keeps every gap the
coordinator provably declines inside one batched run.

Determinism: all three policies are pure functions of the shared
simulated clock and the lanes' own state — replaying the same merged
trace yields the same decisions, event for event.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.obs.trace import TRACK_ARRAY

COORDINATIONS = ("independent", "staggered", "global-token")


class GCCoordinator:
    """Base/no-op coordinator (= ``independent``).

    Lanes under ``independent`` bypass the coordinator entirely (their
    ``_coord`` slot is ``None``), so this class only carries the common
    machinery: binding, stats, tracer access.
    """

    name = "independent"

    def __init__(self) -> None:
        self.array = None
        self.deferrals = 0
        self.idle_bursts = 0
        self.idle_busy_us = 0.0

    def bind(self, array) -> None:
        self.array = array

    # -- hooks (coordinated lanes only) ---------------------------------

    def foreground_gc(self, lane, now: float) -> float:
        """Foreground GC decision for a write on ``lane`` at ``now``."""
        raise NotImplementedError

    def on_idle(self, lane) -> None:
        """``lane`` just went idle (empty queue, nothing in service)."""

    def on_collection_done(self, lane, now: float) -> None:
        """An idle collection scheduled by this coordinator finished."""

    def may_act_in_gap(self, lane, gap_start, next_arrival) -> np.ndarray:
        """May an idle burst start on ``lane`` while it idles from
        ``gap_start`` until its next arrival at ``next_arrival``?

        Elementwise over array arguments.  Sound, not exact: ``False``
        only where ``on_idle`` at ``gap_start`` and every coordinator
        event up to and including ``next_arrival`` (a same-instant tie
        may fire before the arrival) are guaranteed to leave the lane
        alone.  The base answer is always ``True``.
        """
        return np.ones(np.shape(gap_start), dtype=bool)

    # -- common helpers -------------------------------------------------

    def _defer(self, lane, now: float) -> float:
        """Minimal foreground reclamation: free blocks back to the
        reserve, the device's semi-preemptive floor — a deferred lane
        never runs out of allocatable blocks, so coordination changes
        only *timing*, not reachability."""
        self.deferrals += 1
        scheme = lane.scheme
        duration = scheme.reclaim(now, scheme.reserve_blocks())
        tracer = self.array.tracer if self.array is not None else None
        if tracer is not None:
            tracer.instant(
                TRACK_ARRAY,
                "gc-deferred",
                now,
                device=lane.index,
                emergency_us=duration,
            )
        return duration

    def _start_idle_burst(self, lane) -> float:
        """One bounded idle-time burst: up to ``gc_burst_blocks`` victims."""
        now = lane.sim.now
        scheme = lane.scheme
        duration = scheme.reclaim(now, max_victims=scheme.config.gc_burst_blocks)
        if duration > 0.0:
            self.idle_bursts += 1
            self.idle_busy_us += duration
            tracer = self.array.tracer if self.array is not None else None
            if tracer is not None:
                tracer.span(
                    TRACK_ARRAY,
                    f"idle-gc-dev{lane.index}",
                    now,
                    duration,
                    policy=self.name,
                )
            lane.start_idle_collection(duration)
        return duration

    def stats(self) -> Dict[str, float]:
        return {
            "coordination": self.name,
            "gc_deferrals": self.deferrals,
            "idle_bursts": self.idle_bursts,
            "idle_busy_us": self.idle_busy_us,
        }


class StaggeredCoordinator(GCCoordinator):
    """Rotating per-device GC windows on the shared clock.

    Window ``k`` (time ``[k*W, (k+1)*W)``) is owned by device
    ``k % N``; only the owner may run idle bursts during it.  The
    window length ``W`` defaults to the cost of one full burst on the
    lane's timing config, so a device that needs GC can drain roughly
    one burst per turn of the rotation.
    """

    name = "staggered"

    def __init__(self, window_us: Optional[float] = None) -> None:
        super().__init__()
        self.window_us = window_us
        self.windows_fired = 0

    def bind(self, array) -> None:
        super().bind(array)
        if self.window_us is None:
            config = array.lanes[0].scheme.config
            timing = config.timing
            per_block = timing.erase_us + config.geometry.pages_per_block * (
                timing.read_us + timing.write_us
            )
            self.window_us = config.gc_burst_blocks * per_block

    def owner(self, now: float) -> int:
        return int(now // self.window_us) % len(self.array.lanes)

    def foreground_gc(self, lane, now: float) -> float:
        if not lane.scheme.needs_gc():
            return 0.0
        return self._defer(lane, now)

    def on_idle(self, lane) -> None:
        if self.owner(lane.sim.now) != lane.index:
            return
        if lane.scheme.needs_background_gc():
            self._start_idle_burst(lane)

    def may_act_in_gap(self, lane, gap_start, next_arrival) -> np.ndarray:
        """``owner(gap_start)`` is the lane, or a window tick that hands
        the lane its turn falls in ``(gap_start, next_arrival]``.

        The ticks are ``SSDArray._schedule_window``'s edge sequence and
        owners use :meth:`owner`'s expression, in the same float
        arithmetic.  More than ``N`` ticks in one gap answer ``True``.
        """
        w = self.window_us
        n = len(self.array.lanes)
        a = np.asarray(next_arrival, dtype=np.float64)
        k = np.asarray(gap_start, dtype=np.float64) // w
        act = k.astype(np.int64) % n == lane.index
        edge = (k + 1.0) * w
        for _ in range(n):
            k = edge // w
            act |= (edge <= a) & (k.astype(np.int64) % n == lane.index)
            edge = (k + 1.0) * w
        return act | (edge <= a)

    def on_window(self, now: float) -> None:
        """Window-rotation tick: give the new owner its idle slot."""
        self.windows_fired += 1
        lane = self.array.lanes[self.owner(now)]
        if not lane.busy and lane.scheme.needs_background_gc():
            self._start_idle_burst(lane)

    def stats(self) -> Dict[str, float]:
        out = super().stats()
        out["window_us"] = self.window_us
        out["windows_fired"] = self.windows_fired
        return out


class TokenCoordinator(GCCoordinator):
    """Array-wide mutual exclusion of bulk GC via a single token.

    A lane going idle takes the token (if free) and runs one bounded
    burst; the token is released when the burst completes.  Foreground
    writes everywhere are limited to the reserve-restoring minimum, so
    at any instant at most one device in the array is doing bulk
    reclamation — unsynchronized simultaneous bursts cannot happen.
    """

    name = "global-token"

    def __init__(self) -> None:
        super().__init__()
        self.holder = None
        #: when the holder's burst completes (grant time + duration,
        #: the instant its ``GC_COMPLETE`` event fires).
        self.release_us = 0.0
        self.grants = 0

    def foreground_gc(self, lane, now: float) -> float:
        if not lane.scheme.needs_gc():
            return 0.0
        return self._defer(lane, now)

    def on_idle(self, lane) -> None:
        if self.holder is not None:
            return
        if not lane.scheme.needs_background_gc():
            return
        now = lane.sim.now
        duration = self._start_idle_burst(lane)
        if duration > 0.0:
            self.holder = lane
            self.release_us = now + duration
            self.grants += 1
            tracer = self.array.tracer if self.array is not None else None
            if tracer is not None:
                tracer.instant(
                    TRACK_ARRAY, "token-grant", now, device=lane.index
                )

    def may_act_in_gap(self, lane, gap_start, next_arrival) -> np.ndarray:
        """``on_idle`` runs only when the gap opens, and it declines
        while another lane holds the token; the token cannot change
        hands before the holder's release, so only gaps opening at or
        after the release (or with the token free) may act."""
        g = np.asarray(gap_start, dtype=np.float64)
        if self.holder is None or self.holder is lane:
            return np.ones(g.shape, dtype=bool)
        return g >= self.release_us

    def on_collection_done(self, lane, now: float) -> None:
        if self.holder is lane:
            self.holder = None

    def stats(self) -> Dict[str, float]:
        out = super().stats()
        out["token_grants"] = self.grants
        return out


def make_coordinator(
    name: str, window_us: Optional[float] = None
) -> Optional[GCCoordinator]:
    """Coordinator instance for ``name``; ``None`` for ``independent``.

    ``independent`` returns ``None`` on purpose: uncoordinated lanes
    run the stock single-SSD code path untouched, which is what makes
    the per-device solo-replay equivalence exact.
    """
    if name == "independent":
        return None
    if name == "staggered":
        return StaggeredCoordinator(window_us=window_us)
    if name == "global-token":
        return TokenCoordinator()
    raise ValueError(
        f"unknown coordination {name!r}; choose from {COORDINATIONS}"
    )


__all__ = [
    "COORDINATIONS",
    "GCCoordinator",
    "StaggeredCoordinator",
    "TokenCoordinator",
    "make_coordinator",
]
