"""Epoch-batched array replay: vectorized kernels across N lanes.

``replay_array_vectorized`` reproduces :meth:`repro.array.SSDArray
.replay` bit for bit without running every request through the shared
event loop.  The array's coupling surface is narrow by construction:

* the :class:`~repro.array.router.RangeRouter` is a pure function of
  the LPN, so the merged multi-tenant stream splits into per-device
  sub-streams in one vectorized pass (:func:`split_epoch_streams`);
* NCQ admission is trajectory-transparent — a bounded queue ahead of a
  FIFO work-conserving server never changes completion times — so the
  gate's ``peak``/``held`` counters are recomputed analytically from
  the per-device arrival/completion columns after the fact;
* devices interact only through the GC-coordination policy.  Under
  ``independent`` there is no interaction at all and the epochs
  degenerate to full-trace per-device runs through the existing
  single-device kernel (:func:`repro.kernel.orchestrator
  .replay_vectorized`).  Under ``staggered``/``global-token`` each
  lane replays *epochs*: batched runs up to the next cross-device
  synchronization point — the predicted foreground GC grant (the first
  write that would drop free blocks below the reserve), or an idle gap
  with background reclamation pending in which the coordinator may act
  (where the real coordinator gets to decide about windows and tokens)
  — then advances the shared clock to that barrier through the
  ordinary event heap and repeats.

A coordinated lane takes the single-device kernel's run step as is:
:class:`~repro.kernel.orchestrator.RunColumns` over its sub-trace,
:func:`~repro.kernel.orchestrator.plan_run` with the coordinator's
reserve as the free-block floor, :func:`~repro.kernel.orchestrator
.commit_run` through its :class:`_LaneFold`, the same adaptive run
window, and :meth:`SSD._serve_write <repro.device.ssd.SSD._serve_write>`
plus :func:`~repro.kernel.orchestrator.commit_scalar` for a grant
boundary.  What is array-only lives here: idle-gap cuts, batched
deferral counts, and the two-hop completion scheduling on the shared
event heap.

The coordinated epoch planner leans on one watermark fact: a deferred
foreground GC (``GCCoordinator._defer`` -> ``FTLScheme.reclaim``) does
*zero work* while ``free_blocks >= reserve_blocks()`` — it only bumps
the deferral counter and emits a tracer instant.  Free blocks fall
monotonically inside a run (no GC between requests), so both the
deferral onset and the first *working* grant are exact integer prefix
scans over the write page counts, just like the single-device
GC-trigger prediction.  Idle-gap barriers are equally analytic: the
background-need onset is a prefix scan too, and a gap only matters
once ``needs_background_gc()`` is true (before that, ``on_idle`` and
``on_window`` are no-ops for every policy) and the coordinator's
:meth:`~repro.array.coord.GCCoordinator.may_act_in_gap` holds for it
(a staggered lane that owns no window edge in the gap, or a gap opening
while another lane's token burst is still running, stays in the run).

Fallback stays reason-tagged at the same three granularities the
single-device kernel established:

* ``array-unmodelled`` — whole-array: a feature the epoch model does
  not cover (preemptive lanes, heartbeat observers, streaming traces);
* ``array-coord-grant`` — per-request: a coordination grant boundary
  (the write whose deferral must actually reclaim) re-enters the
  reference scheme calls, composing like ``gc-trigger``; trims ride
  inside runs like writes;
* ``array-ncq-stall`` — per-lane counters: the closed-form NCQ
  occupancy hit an admission tie or a closed gate and the counters
  were re-derived through the scalar gate replay (trajectories are
  gate-independent, so this never touches timing).
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

import numpy as np

from repro.kernel._njit import completion_recurrence
from repro.kernel.inline import plan_inline_run
from repro.kernel.orchestrator import (
    _WINDOW_MAX,
    RunColumns,
    commit_run,
    commit_scalar,
    device_eligible,
    kernel_views,
    next_window,
    plan_run,
    replay_vectorized,
)
from repro.obs.trace import TRACK_ARRAY
from repro.sim.events import EventKind

# Unused here: commit_run applies runs through the orchestrator's
# bindings.  Kept only so bench/tracing.py's sites for this module
# resolve; drop with them at the next benchmark change.
from repro.kernel.inline import apply_inline_run  # noqa: F401,E402
from repro.kernel.write import apply_write_run  # noqa: F401,E402

#: Whole-array fallback reason: some device or observer feature is
#: outside the epoch model and the replay runs the reference loop.
FALLBACK_UNMODELLED = "array-unmodelled"
#: Per-request fallback reason: a coordination grant boundary (the
#: deferral that must actually restore the reserve) went through the
#: reference scheme calls.
FALLBACK_COORD_GRANT = "array-coord-grant"
#: Per-lane counter fallback reason: NCQ peak/held re-derived via the
#: scalar admission-gate replay (closed gate or an arrival/completion
#: tie the closed form cannot order).
FALLBACK_NCQ_STALL = "array-ncq-stall"

ARRAY_FALLBACK_REASONS = (
    FALLBACK_COORD_GRANT,
    FALLBACK_NCQ_STALL,
    FALLBACK_UNMODELLED,
)


# --------------------------------------------------------------- splitter


def split_epoch_streams(router, trace) -> List[Tuple[object, np.ndarray]]:
    """Split ``trace`` per device: one ``(sub_trace, tenant_ids)`` pair
    per device, each in merged-trace order (the router preserves
    relative order, and every request lands on exactly one device; the
    Hypothesis suite pins both)."""
    return router.split(trace)


# ---------------------------------------------------------- NCQ counters


def ncq_occupancy(
    arrivals: np.ndarray, completions: np.ndarray, depth: int
) -> Tuple[int, int, bool]:
    """``(peak, held, scalar)`` for one lane's admission gate.

    When the unbounded in-flight window never reaches ``depth`` and no
    completion lands exactly on an arrival instant, the closed form is
    exact: occupancy just after arrival ``i`` is ``i + 1`` minus the
    completions strictly before it, and nothing is ever held.  Any
    closed gate or tie drops to :func:`_gate_replay` (``scalar`` is
    then True, reported as ``array-ncq-stall`` in the attribution).
    """
    n = int(arrivals.size)
    if n == 0:
        return 0, 0, False
    a = np.ascontiguousarray(arrivals, dtype=np.float64)
    c = np.ascontiguousarray(completions, dtype=np.float64)
    freed = np.searchsorted(c, a, side="left")
    peak = int((np.arange(1, n + 1) - freed).max())
    tie = bool(np.isin(a, c).any())
    if peak < depth and not tie:
        return peak, 0, False
    peak, held = _gate_replay(a, c, depth)
    return peak, held, True


def _gate_replay(a: np.ndarray, c: np.ndarray, depth: int) -> Tuple[int, int]:
    """Faithful scalar replay of ``_ArrayLane``'s admission mechanics.

    Ports the reference chain exactly: the catch-up loop admits every
    already-due row synchronously, a row arriving at a full gate parks
    (one ``held`` count, chain paused), and a completion frees a slot
    and re-admits the parked row before anything else.  Completion
    events are ordered against pending arrival events by (time,
    schedule order); the completion for request ``k`` is scheduled at
    its service start ``max(a_k, c_{k-1})``, which is what breaks
    exact-time ties the same way the event heap does.
    """
    n = int(a.size)
    al = a.tolist()
    cl = c.tolist()
    inflight = 0
    peak = 0
    held = 0
    r = 0  # next row to admit/schedule
    blocked = False
    pend_t: Optional[float] = None  # pending arrival event time
    pend_sched = 0.0  # when that arrival event was scheduled

    def chain(now: float) -> None:
        nonlocal r, blocked, pend_t, pend_sched, inflight, peak, held
        while r < n:
            ar = al[r]
            if ar <= now and inflight > 0:
                if inflight >= depth:
                    blocked = True
                    held += 1
                    return
                inflight += 1
                if inflight > peak:
                    peak = inflight
                r += 1
                continue
            pend_t = ar if ar > now else now
            pend_sched = now
            return
        pend_t = None

    chain(0.0)
    prev_c = 0.0
    for k in range(n):
        ck = cl[k]
        sk = al[k] if al[k] > prev_c else prev_c
        while pend_t is not None and (
            pend_t < ck or (pend_t == ck and pend_sched <= sk)
        ):
            now = pend_t
            pend_t = None
            if inflight >= depth:
                blocked = True
                held += 1
            else:
                inflight += 1
                if inflight > peak:
                    peak = inflight
                r += 1
                chain(now)
        inflight -= 1
        if blocked:
            blocked = False
            inflight += 1
            if inflight > peak:
                peak = inflight
            r += 1
            chain(ck)
        prev_c = ck
    return peak, held


# ------------------------------------------------------- telemetry fold


class _LaneFold:
    """Per-lane metrics adapter: batched folds into ArrayTelemetry.

    Quacks like :class:`~repro.obs.metrics.DeviceMetrics` for the
    single-device kernel hooks (``on_batch``/``on_complete``/
    ``on_fallback``/``finish``/``snapshot``) but lands every latency
    once in the array's global, per-device and per-tenant histograms —
    the exact counts the reference's per-completion
    ``ArrayTelemetry.on_complete`` calls produce, folded per batch.
    It also keeps the lane's latency column (one float64 slot per
    sub-trace row, written in place at the cursor) so completions
    (arrival + latency) can be reconstructed for the NCQ counters.

    When the array carries an :class:`~repro.obs.metrics.ArrayMetrics`
    bundle (whose histogram handles wrap the same ``ArrayTelemetry``
    histograms) its counters move too (``on_array_batch`` /
    ``on_array_complete`` / ``on_fallback``) — exact increments; only
    the time-series recorder cadence differs (batch boundaries instead
    of per completion, same deliberate trade-off the single-device
    kernel makes).
    """

    __slots__ = (
        "telemetry", "metrics", "device", "tenants", "cursor", "column",
    )

    def __init__(
        self, telemetry, device: int, tenants: np.ndarray, n: int,
        metrics=None,
    ) -> None:
        self.telemetry = telemetry
        self.metrics = metrics
        self.device = device
        self.tenants = tenants
        self.cursor = 0
        self.column = np.empty(n, dtype=np.float64)

    def on_batch(self, latencies_us: np.ndarray, end_us: float, ssd) -> None:
        n = int(latencies_us.size)
        tel = self.telemetry
        tel.hist.record_many(latencies_us)
        tel.device_hists[self.device].record_many(latencies_us)
        tslice = self.tenants[self.cursor : self.cursor + n]
        if len(tel.tenant_hists) == 1:
            tel.tenant_hists[0].record_many(latencies_us)
        else:
            for tenant in np.unique(tslice):
                tel.tenant_hists[int(tenant)].record_many(
                    latencies_us[tslice == tenant]
                )
        if self.metrics is not None:
            self.metrics.on_array_batch(
                self.device, tslice, latencies_us, end_us
            )
        self.column[self.cursor : self.cursor + n] = latencies_us
        self.cursor += n

    def on_complete(self, now_us: float, latency_us: float, ssd) -> None:
        tel = self.telemetry
        tenant = int(self.tenants[self.cursor]) if self.tenants.size else 0
        tel.on_complete(self.device, tenant, latency_us)
        if self.metrics is not None:
            self.metrics.on_array_complete(self.device, tenant, now_us)
        self.column[self.cursor] = latency_us
        self.cursor += 1

    def on_fallback(self, reason: str) -> None:
        if self.metrics is not None:
            self.metrics.on_fallback(reason)

    def finish(self, now_us: float, ssd) -> None:
        pass  # the array finishes its own metrics bundle

    def snapshot(self) -> None:
        return None  # per-device RunResult.metrics stays None

    def latencies(self) -> np.ndarray:
        return self.column[: self.cursor]


# ------------------------------------------------------------ eligibility


def array_kernel_eligible(array, trace) -> Optional[str]:
    """``None`` when the epoch orchestrator models this replay exactly,
    else the ``array-unmodelled`` fallback reason.

    Every lane must pass the single-device
    :func:`repro.kernel.orchestrator.device_eligible` (blocking GC, no
    write buffer, bulk or inline-dedupe scheme) and the trace must be a
    :class:`~repro.workloads.trace.Trace` (random access to its
    columns); the array-only axis is heartbeat observers (they clock
    per completion on the shared loop).  An
    :class:`~repro.obs.metrics.ArrayMetrics` bundle is supported — the
    lane folds feed it batch-exactly, so runner-cached array runs stay
    kernel-eligible.
    """
    if not all(device_eligible(lane) for lane in array.lanes):
        return FALLBACK_UNMODELLED
    if array.heartbeat is not None:
        return FALLBACK_UNMODELLED
    if getattr(trace, "times_us", None) is None:
        return FALLBACK_UNMODELLED  # streaming traces: no random access
    return None


def _ncq_counters(array, lane, sub, latencies: np.ndarray) -> None:
    """Set the lane's NCQ ``peak``/``held`` from its arrival and
    completion (arrival + latency) columns, tracing an
    ``array-ncq-stall`` instant when the scalar gate replay was needed."""
    arrivals = np.asarray(sub.times_us, dtype=np.float64)
    completions = (
        arrivals + latencies if latencies.size == len(sub) else arrivals
    )
    peak, held, scalar = ncq_occupancy(arrivals, completions, array.ncq_depth)
    lane.ncq_peak = peak
    lane.ncq_held = held
    if scalar and array.tracer is not None:
        array.tracer.instant(
            TRACK_ARRAY,
            "kernel-fallback",
            float(lane.last_event_us),
            reason=FALLBACK_NCQ_STALL,
            device=lane.index,
        )


# -------------------------------------------------------- independent N


def _replay_independent(array, subs) -> None:
    """Degenerate epochs: one full-trace kernel run per lane.

    Lanes never interact under ``independent`` coordination (no
    coordinator, NCQ trajectory-transparent), so each lane replays its
    sub-stream through the single-device vectorized kernel on its own
    clock; the shared clock only has to end at the latest lane.
    """
    sim = array.sim
    for lane, (sub, tenants) in zip(array.lanes, subs):
        fold = _LaneFold(
            array.telemetry, lane.index, tenants, len(sub), array.metrics
        )
        # Assigned post-construction on purpose: the constructor would
        # bind it as a DeviceMetrics bundle.
        lane.metrics = fold
        lane._trace_name = sub.name
        sim.now = 0.0  # each lane replays on its own clock segment
        result = replay_vectorized(lane, sub)
        lane.metrics = None
        lane.last_event_us = result.simulated_us if len(sub) else 0.0
        lane.rows_done = True
        _ncq_counters(array, lane, sub, fold.latencies())
    sim.now = max([lane.last_event_us for lane in array.lanes] + [0.0])


# -------------------------------------------------------- coordinated N


class _LaneState:
    """One lane's replay cursor for the coordinated epoch runner: the
    sub-trace's :class:`~repro.kernel.orchestrator.RunColumns` (one
    chunk), the next request ``i``, the previous completion ``t`` and
    the adaptive run window."""

    __slots__ = (
        "lane", "sub", "fold", "cols", "n", "i", "t", "views", "window",
        "resume_pending", "run_end",
    )

    def __init__(self, lane, sub, tenants, telemetry, metrics=None) -> None:
        self.lane = lane
        self.sub = sub
        self.fold = _LaneFold(
            telemetry, lane.index, tenants, len(sub), metrics
        )
        lane._trace_name = sub.name
        lane.rows_done = False
        scheme = lane.scheme
        self.views = kernel_views(scheme)
        self.cols = RunColumns(
            sub, scheme.timing, scheme.flash.geometry.channels
        )
        self.n = self.cols.n
        self.i = 0
        self.t = 0.0  # completion time of this lane's previous request
        self.window = _WINDOW_MAX
        self.resume_pending = False
        self.run_end = 0.0


def _pulls(cum: np.ndarray, af0: int, ppb: int) -> np.ndarray:
    """Active-block pulls needed for ``cum`` pages (exact integers)."""
    return np.maximum(0, (cum - af0 + ppb - 1) // ppb)


class _EpochRunner:
    """Coordinated replay: batched epochs on the real event heap.

    Each lane alternates between (a) committing one *run* — a batch of
    requests with no working GC grant and no idle gap with background
    need — through the vectorized kernels, and (b) handing
    control back to the shared event heap until the run's completion
    time, so window ticks, token grants and idle bursts fire through
    the stock coordinator code at exactly the reference instants.
    State effects apply at commit time; that is safe because no other
    lane ever reads this lane's scheme state, and every coordinator
    decision about this lane while a run is in flight short-circuits
    on ``busy``.
    """

    def __init__(self, array, subs) -> None:
        self.array = array
        self.sim = array.sim
        self.tracer = array.tracer
        self.states: List[_LaneState] = []
        for lane, (sub, tenants) in zip(array.lanes, subs):
            state = _LaneState(
                lane, sub, tenants, array.telemetry, array.metrics
            )
            lane._epoch = self
            self.states.append(state)

    def run(self) -> None:
        for state in self.states:
            if state.n:
                self.advance(state)
            else:
                state.lane.rows_done = True
        self.sim.run()
        for state in self.states:
            state.lane._epoch = None

    # ------------------------------------------------------------ events

    def advance(self, state: _LaneState) -> None:
        """Plan the lane's next step at the current shared-clock event."""
        lane = state.lane
        if state.i >= state.n:
            lane.rows_done = True
            return
        now = self.sim.now
        arrival = float(state.cols.times[state.i])
        if (
            arrival > now
            and lane.scheme.needs_background_gc()
            and self.array.coordinator.may_act_in_gap(lane, now, arrival)
        ):
            # Genuine idle gap with reclamation pending and a
            # coordinator that may act in it: stay idle so window ticks
            # / token hand-offs happen at real instants, and resume at
            # the next arrival.
            lane._busy = False
            if not state.resume_pending:
                state.resume_pending = True
                self.sim.schedule_at(
                    arrival, EventKind.GENERIC, state, self._on_resume
                )
            return
        self._commit_next(state)

    def _on_resume(self, event) -> None:
        state = event.payload
        state.resume_pending = False
        if state.lane.busy or state.i >= state.n:
            return  # an idle burst (and its follow-up) got here first
        self.advance(state)

    def _on_run_start(self, event) -> None:
        # Intermediate hop at the run's *last service start*: the
        # reference schedules the final completion event there, so
        # scheduling RUN_DONE from this instant keeps exact-time ties
        # between lanes (token contention, window edges) in the same
        # heap order as the reference.
        state = event.payload
        self.sim.schedule_at(
            state.run_end, EventKind.OP_COMPLETE, state, self._on_run_done
        )

    def _on_run_done(self, event) -> None:
        state = event.payload
        lane = state.lane
        now = self.sim.now
        lane.last_event_us = now
        lane._busy = False
        if state.i >= state.n:
            lane.rows_done = True
            lane._maybe_background_gc()  # end-of-stream on_idle
            return
        if state.cols.times[state.i] > now:
            lane._maybe_background_gc()  # queue-empty on_idle
            if not lane.busy:
                self.advance(state)
            return
        self._commit_next(state)

    def on_bg_gc_done(self, lane) -> None:
        """Idle-burst completion for an epoch-mode lane.

        Replaces ``SSD._on_bg_gc_done``'s queue-or-idle tail (the
        epoch lanes keep no event-queue rows): after the stock
        bookkeeping, service anything already due, else re-enter the
        idle decision chain exactly like the reference's empty-queue
        branch.
        """
        state = self.states[lane.index]
        now = self.sim.now
        lane._busy = False
        if lane.gc_hook is not None:
            lane.gc_hook(lane)
        if now > state.t:
            state.t = now  # the burst occupied the server
        if state.i >= state.n:
            lane.rows_done = True
            lane._maybe_background_gc()
            return
        if state.cols.times[state.i] <= now:
            self._commit_next(state)
            return
        lane._maybe_background_gc()
        if not lane.busy:
            self.advance(state)

    # ------------------------------------------------------------ commit

    def _commit_next(self, state: _LaneState) -> None:
        """Commit one batched run (or one scalar boundary request)."""
        scheme = state.lane.scheme
        cols = state.cols
        i = state.i
        wall0 = time.perf_counter()
        run = plan_run(
            scheme, state.views, cols, i, state.window, scheme.reserve_blocks()
        )
        e = run.e
        if e == i:
            # Empty run: request i itself is the boundary (a working
            # grant) and goes through the reference scheme calls.
            self._commit_scalar(state, FALLBACK_COORD_GRANT, wall0)
            return
        completions, t_end = completion_recurrence(
            cols.times[i:e], cols.durations[i:e], state.t
        )
        # Idle-gap barrier: the first completion that strictly precedes
        # the next arrival *while background reclamation is needed*, in
        # a gap the coordinator may act in, hands control to the
        # coordinator.  Every other gap is one where on_idle/on_window
        # provably decline, so it stays inside the run.
        cut = self._bg_gap_cut(state, i, run, completions)
        if cut is not None:
            run.truncate(cut, int(np.searchsorted(run.w, cut)))
            completions = completions[: cut - i]
            t_end = float(completions[-1])
            if run.plan is not None:
                # Plans aggregate window-level state (refcount and
                # overlay deltas), so a shortened run re-resolves; the
                # per-request outcomes are prefix-stable, so the
                # already-used durations are unchanged.
                run.plan = (
                    plan_inline_run(
                        scheme, state.views, cols.lpns[run.w], run.wn,
                        run.wt, run.wfps, run.af0, run.budget,
                        scheme.flash.pages_per_block,
                    )[1]
                    if run.w.size
                    else None
                )
        self._commit_run(state, i, run.e, completions, t_end, run, wall0)

    def _bg_gap_cut(self, state, i, run, completions) -> Optional[int]:
        """First index after which an idle gap with background need
        opens inside the run ``[i, run.e)`` that the coordinator may act
        in, or ``None`` when the run is whole.

        A gap at position ``k`` (completion ``k`` strictly before
        arrival ``k+1``) matters only once ``needs_background_gc()``
        holds after request ``k`` — before that every policy's
        ``on_idle``/``on_window`` declines — and only if
        ``may_act_in_gap`` holds for it.  The need onset is the
        first write whose *inclusive* program count pulls free blocks
        below the stop watermark (free blocks fall monotonically
        inside a run).  The trailing gap (after ``e - 1``) is handled
        by the run-done event, not here.
        """
        e = run.e
        if e - i < 2:
            return None
        scheme = state.lane.scheme
        if scheme.needs_background_gc():
            j_bg = i  # background need is already pending at run start
        else:
            if not run.w.size:
                return None  # no writes: need cannot arise inside the run
            pulls = _pulls(
                np.cumsum(run.progs), run.af0, scheme.flash.pages_per_block
            )
            hit = pulls > run.free0 - scheme._gc_stop_blocks
            if not hit.any():
                return None
            j_bg = int(run.w[int(np.argmax(hit))])
        if j_bg >= e - 1:
            return None
        rel0 = j_bg - i
        starts = completions[rel0 : e - i - 1]
        arrivals = state.cols.times[j_bg + 1 : e]
        (gaps,) = np.nonzero(starts < arrivals)
        if not gaps.size:
            return None
        act = self.array.coordinator.may_act_in_gap(
            state.lane, starts[gaps], arrivals[gaps]
        )
        if not act.any():
            return None
        return j_bg + int(gaps[int(np.argmax(act))]) + 1

    def _commit_run(self, state, i, e, completions, t_end, run, wall0) -> None:
        lane = state.lane
        starts = commit_run(
            lane, state.views, state.cols, run, i, completions, t_end,
            state.fold, self.tracer, wall0,
        )
        if run.w.size:
            wm = ~run.wt  # only writes run the (deferred) GC check
            self._count_deferrals(
                state, run.progs[wm], starts[wm], run.af0, run.free0
            )
        state.i = e
        state.t = float(t_end)
        state.run_end = float(t_end)
        state.window = next_window(state.window, e - i)
        lane._busy = True
        # Two-hop completion scheduling: hop to the last request's
        # service start first so same-time completion ties across lanes
        # drain in the reference heap's schedule order (the reference
        # schedules each completion event at its service start).
        last_start = float(t_end - state.cols.durations[e - 1])
        now = self.sim.now
        self.sim.schedule_at(
            last_start if last_start > now else now,
            EventKind.GENERIC, state, self._on_run_start,
        )

    def _count_deferrals(self, state, progs, starts, af0, free0) -> None:
        """Batch the no-op deferrals the committed writes would log.

        Every coordinated write below the GC-trigger watermark calls
        ``foreground_gc`` -> ``_defer``; inside a run the reserve is
        never breached, so each is one counter bump plus (when traced)
        a ``gc-deferred`` instant with zero emergency time — nothing
        else.  The onset is a prefix scan over the pre-write program
        counts: free blocks only fall inside a run.
        """
        scheme = state.lane.scheme
        cum_before = np.cumsum(progs) - progs
        pulls = _pulls(cum_before, af0, ppb=scheme.flash.pages_per_block)
        deferred = pulls > free0 - scheme._gc_trigger_blocks
        count = int(deferred.sum())
        if not count:
            return
        coord = self.array.coordinator
        coord.deferrals += count
        if self.tracer is not None:
            device = state.lane.index
            for ts in starts[deferred]:
                self.tracer.instant(
                    TRACK_ARRAY,
                    "gc-deferred",
                    float(ts),
                    device=device,
                    emergency_us=0.0,
                )

    def _commit_scalar(self, state, reason: str, wall0: float) -> None:
        """One boundary request — the write whose working grant must
        reclaim — through the reference scheme calls."""
        lane = state.lane
        cols = state.cols
        i = state.i
        arrival = float(cols.times[i])
        start = arrival if arrival > state.t else state.t
        duration = lane._serve_write(
            int(cols.lpns[i]), cols.fps_flat[cols.offsets[i] : cols.offsets[i + 1]],
            start,
        )
        completion = commit_scalar(
            lane, state.fold, self.tracer, arrival, start, duration, reason,
            wall0,
        )
        state.i = i + 1
        state.t = completion
        state.run_end = completion
        lane._busy = True
        self.sim.schedule_at(
            max(start, self.sim.now), EventKind.GENERIC, state,
            self._on_run_start,
        )


# ----------------------------------------------------------- entry point


def replay_array_vectorized(array, trace, tenants: int):
    """Replay ``trace`` through the epoch orchestrator; see module docs.

    The caller (:meth:`SSDArray.replay`) has already verified
    :func:`array_kernel_eligible` and built the telemetry; this
    returns the fully-populated :class:`~repro.array.device
    .ArrayResult` with ``kernel_fallback_reason=None``.
    """
    from repro.array.coord import StaggeredCoordinator

    subs = split_epoch_streams(array.router, trace)
    if array.coordinator is None:
        _replay_independent(array, subs)
    else:
        runner = _EpochRunner(array, subs)
        if isinstance(array.coordinator, StaggeredCoordinator):
            array._schedule_window(array.coordinator.window_us)
        runner.run()
        for lane, state in zip(array.lanes, runner.states):
            _ncq_counters(array, lane, state.sub, state.fold.latencies())
    if array.metrics is not None:
        array.metrics.finish(array.simulated_us(), array)
    return array.result(trace.name, tenants)


__all__ = [
    "ARRAY_FALLBACK_REASONS",
    "FALLBACK_COORD_GRANT",
    "FALLBACK_NCQ_STALL",
    "FALLBACK_UNMODELLED",
    "array_kernel_eligible",
    "ncq_occupancy",
    "replay_array_vectorized",
    "split_epoch_streams",
]
