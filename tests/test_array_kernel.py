"""Epoch-kernel properties and digest identity with the reference array.

Two layers pin ``repro.kernel.arrayepoch`` to the reference event loop:

* **structural properties** (Hypothesis) — the epoch splitter is a true
  partition of the merged stream that preserves per-device order, and
  the stable completion merge is barrier-invariant: merging each side
  of *any* epoch boundary separately and concatenating equals the full
  merge, so epoch barriers can never reorder cross-device completions;
* **trajectory identity** — a 4-device / 4-tenant replay produces
  sha256-identical per-device trajectories on both kernels at NCQ
  depths {1, 4, 32} under every GC-coordination policy (depth 1 forces
  the scalar admission-gate replay, depth 32 the analytic counters);
* **idle-gap predicate soundness** (Hypothesis) — whenever the
  reference coordinator hooks would start a burst on a lane during an
  idle gap, ``may_act_in_gap`` says so, float edge ties included;
* **work counters** — the quick ``array-tail`` specs commit exactly
  the pinned number of batched runs, with result digests identical to
  the reference loop.
"""

import dataclasses
import hashlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.array import SSDArray
from repro.array.coord import StaggeredCoordinator, TokenCoordinator
from repro.array.router import RangeRouter
from repro.config import small_config
from repro.experiments.array_tail import array_tail_specs
from repro.kernel.arrayepoch import ncq_occupancy, split_epoch_streams
from repro.oracle.diff import build_scheme
from repro.workloads.fiu import build_fiu_trace
from repro.workloads.multiplex import multiplex_traces
from repro.workloads.request import OpKind
from repro.workloads.trace import Trace

# ------------------------------------------------------------ strategies


@st.composite
def array_traces(draw):
    """A random routable trace plus the router that owns its space."""
    devices = draw(st.integers(min_value=1, max_value=4))
    ppd = draw(st.integers(min_value=4, max_value=32))
    n = draw(st.integers(min_value=0, max_value=40))
    router = RangeRouter(devices, ppd)
    ops = np.array(
        draw(
            st.lists(
                st.sampled_from(
                    [int(OpKind.WRITE), int(OpKind.READ), int(OpKind.TRIM)]
                ),
                min_size=n,
                max_size=n,
            )
        ),
        dtype=np.uint8,
    )
    npages = np.array(
        draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)),
        dtype=np.int32,
    )
    # Extent start chosen so no request straddles a device boundary.
    lpns = np.empty(n, dtype=np.int64)
    for i in range(n):
        dev = draw(st.integers(0, devices - 1))
        off = draw(st.integers(0, ppd - int(npages[i])))
        lpns[i] = dev * ppd + off
    gaps = np.array(
        draw(
            st.lists(
                st.floats(0.0, 50.0, allow_nan=False), min_size=n, max_size=n
            )
        ),
        dtype=np.float64,
    )
    times = np.cumsum(gaps)
    counts = np.where(ops == int(OpKind.WRITE), npages, 0).astype(np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    total = int(offsets[-1])
    fps = np.array(
        draw(
            st.lists(
                st.integers(1, 40), min_size=total, max_size=total
            )
        ),
        dtype=np.int64,
    )
    return router, Trace(times, ops, lpns, npages, fps, offsets, name="hyp")


# ------------------------------------------------------- property suite


def _merged_positions(router, trace, device):
    """Positions in the merged trace of ``device``'s requests."""
    return np.nonzero(trace.lpns // router.pages_per_device == device)[0]


class TestSplitterProperties:
    @settings(deadline=None, max_examples=60)
    @given(array_traces())
    def test_split_is_a_partition(self, rt):
        router, trace = rt
        splits = split_epoch_streams(router, trace)
        assert len(splits) == router.devices
        # Every merged position lands on exactly one device, in merged
        # order (the split is stable)...
        assert sum(len(sub) for sub, _ in splits) == len(trace)
        for device, (sub, _) in enumerate(splits):
            idx = _merged_positions(router, trace, device)
            assert len(sub) == idx.size
            # ...its home device.
            assert np.array_equal(
                sub.lpns, trace.lpns[idx] - device * router.pages_per_device
            )

    @settings(deadline=None, max_examples=60)
    @given(array_traces())
    def test_split_preserves_rows(self, rt):
        router, trace = rt
        for device, (sub, _) in enumerate(split_epoch_streams(router, trace)):
            idx = _merged_positions(router, trace, device)
            assert np.array_equal(sub.times_us, trace.times_us[idx])
            assert np.array_equal(sub.ops, trace.ops[idx])
            assert np.array_equal(sub.npages, trace.npages[idx])
            assert np.array_equal(
                sub.lpns, trace.lpns[idx] - device * router.pages_per_device
            )
            # Fingerprint payloads survive row for row.
            for k, j in enumerate(idx):
                assert np.array_equal(
                    sub.fps_flat[sub.fp_offsets[k] : sub.fp_offsets[k + 1]],
                    trace.fps_flat[
                        trace.fp_offsets[j] : trace.fp_offsets[j + 1]
                    ],
                )


class TestNCQOccupancy:
    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(st.floats(0.0, 30.0, allow_nan=False), max_size=15).map(sorted),
        st.data(),
    )
    def test_analytic_matches_gate_replay(self, arrivals, data):
        """An open gate's analytic peak equals a full scalar replay at
        unbounded depth, and a bounded gate never exceeds its depth."""
        a = np.asarray(arrivals, dtype=np.float64)
        durs = [
            data.draw(st.floats(0.1, 10.0, allow_nan=False))
            for _ in range(len(arrivals))
        ]
        c = np.empty_like(a)
        t = 0.0
        for i in range(len(a)):
            t = max(a[i], t) + durs[i]
            c[i] = t
        open_peak, open_held, _ = ncq_occupancy(a, c, depth=10_000)
        assert open_held == 0
        for depth in (1, 2, 4):
            peak, held, scalar = ncq_occupancy(a, c, depth)
            assert peak <= max(depth, open_peak)
            if not scalar:
                assert peak == open_peak and held == 0


# -------------------------------------------------- trajectory identity


def _trajectory_digest(result, scheme) -> str:
    h = hashlib.sha256()
    h.update(result.response_times_us.tobytes())
    h.update(repr(result.gc).encode())
    h.update(repr(result.io).encode())
    h.update(repr(result.wear).encode())
    h.update(repr(result.simulated_us).encode())
    h.update(repr(sorted(scheme.state_snapshot().content.items())).encode())
    return h.hexdigest()


def _replay_digests(kernel, coordination, ncq_depth, scheme_name="cagc"):
    cfg = small_config(
        blocks=64, pages_per_block=16, gc_mode="blocking", kernel=kernel
    )
    tenant_traces = [
        build_fiu_trace(
            "mail", cfg, n_requests=500, fill_factor=3.0, seed=700 + t
        )
        for t in range(4)
    ]
    merged = multiplex_traces(
        tenant_traces, devices=4, pages_per_device=cfg.logical_pages
    )
    schemes = [build_scheme(scheme_name, "greedy", cfg) for _ in range(4)]
    result = SSDArray(
        schemes, coordination=coordination, ncq_depth=ncq_depth
    ).replay(merged)
    digests = tuple(
        _trajectory_digest(r, s) for r, s in zip(result.devices, schemes)
    )
    return result, digests


class TestEpochDigestIdentity:
    """Epoch replay == reference array loop, digest for digest."""

    @pytest.mark.parametrize(
        "coordination", ("independent", "staggered", "global-token")
    )
    @pytest.mark.parametrize("ncq_depth", (1, 4, 32))
    def test_identical_across_depths_and_coordinations(
        self, coordination, ncq_depth
    ):
        ref, ref_digests = _replay_digests("reference", coordination, ncq_depth)
        vec, vec_digests = _replay_digests("vectorized", coordination, ncq_depth)
        assert vec.kernel_fallback_reason is None
        assert ref_digests == vec_digests
        assert ref.ncq_peaks == vec.ncq_peaks
        assert ref.ncq_held == vec.ncq_held
        assert ref.coord_stats == vec.coord_stats
        assert ref.simulated_us == vec.simulated_us

    def test_identical_with_inline_dedupe(self):
        ref, ref_digests = _replay_digests(
            "reference", "staggered", 8, scheme_name="inline-dedupe"
        )
        vec, vec_digests = _replay_digests(
            "vectorized", "staggered", 8, scheme_name="inline-dedupe"
        )
        assert vec.kernel_fallback_reason is None
        assert ref_digests == vec_digests

    def test_epoch_kernel_reports_gc_stats(self):
        vec, _ = _replay_digests("vectorized", "independent", 32)
        assert len(vec.kernel_gc) == 4
        assert any(any(stats.values()) for stats in vec.kernel_gc)


class TestBadInput:
    """Every driver rejects an unknown opcode the same way: the
    coordinated epoch lanes build their columns through the same
    checks as the single-device kernel."""

    @pytest.mark.parametrize("kernel", ("reference", "vectorized"))
    @pytest.mark.parametrize(
        "coordination", ("independent", "staggered", "global-token")
    )
    def test_unknown_opcode_raises(self, kernel, coordination):
        cfg = small_config(
            blocks=64, pages_per_block=16, gc_mode="blocking", kernel=kernel
        )
        tenant_traces = [
            build_fiu_trace(
                "mail", cfg, n_requests=300, fill_factor=3.0, seed=700 + t
            )
            for t in range(4)
        ]
        merged = multiplex_traces(
            tenant_traces, devices=4, pages_per_device=cfg.logical_pages
        )
        assert len(merged) == 1200
        merged.ops[600] = 7
        schemes = [build_scheme("cagc", "greedy", cfg) for _ in range(4)]
        array = SSDArray(schemes, coordination=coordination, ncq_depth=4)
        with pytest.raises(ValueError, match="unknown opcode 7"):
            array.replay(merged)


# ------------------------------------------------------------ metrics


def _replay_metered(kernel, coordination):
    from repro.obs.metrics import ArrayMetrics

    cfg = small_config(
        blocks=64, pages_per_block=16, gc_mode="blocking", kernel=kernel
    )
    tenant_traces = [
        build_fiu_trace(
            "mail", cfg, n_requests=300, fill_factor=3.0, seed=700 + t
        )
        for t in range(4)
    ]
    merged = multiplex_traces(
        tenant_traces, devices=4, pages_per_device=cfg.logical_pages
    )
    schemes = [build_scheme("cagc", "greedy", cfg) for _ in range(4)]
    metrics = ArrayMetrics()
    result = SSDArray(
        schemes, coordination=coordination, ncq_depth=4, metrics=metrics
    ).replay(merged)
    return result, metrics


class TestMetricsEquivalence:
    """An attached ArrayMetrics bundle stays observational on the epoch
    kernel: the run remains kernel-eligible, and every kernel-independent
    aggregate — the global request counter and latency histogram plus all
    per-device and per-tenant children — matches the reference loop's
    per-completion accounting (bucket counts / totals / maxima exactly,
    sums to float fold-order tolerance).  Time-series sample counts are
    deliberately not compared: the kernels clock the recorder differently
    (per completion vs per batch boundary) by design.
    """

    @pytest.mark.parametrize(
        "coordination", ("independent", "staggered", "global-token")
    )
    def test_aggregates_match_reference(self, coordination):
        ref, rm = _replay_metered("reference", coordination)
        vec, vm = _replay_metered("vectorized", coordination)
        assert vec.kernel_fallback_reason is None
        assert vec.metrics is not None
        assert vm.kernel_batches.value > 0
        assert rm.requests.value == vm.requests.value
        for ra, rb in zip(
            rm._device_req + rm._tenant_req, vm._device_req + vm._tenant_req
        ):
            assert ra.value == rb.value
        pairs = [(rm.latency.hist, vm.latency.hist)]
        pairs += list(
            zip(rm._device_hist + rm._tenant_hist,
                vm._device_hist + vm._tenant_hist)
        )
        for rh, vh in pairs:
            assert np.array_equal(rh.counts, vh.counts)
            assert rh.total == vh.total
            assert rh.max_us == vh.max_us
            assert rh.sum_us == pytest.approx(vh.sum_us, rel=1e-9, abs=1e-6)


# ------------------------------------------------ idle-gap predicate


def _bound(coord, devices):
    """``coord`` bound to ``devices`` stub lanes that always need
    background GC; ``started`` records the lanes a burst starts on."""
    sim = SimpleNamespace(now=0.0)
    scheme = SimpleNamespace(needs_background_gc=lambda: True)
    lanes = [
        SimpleNamespace(index=d, busy=False, sim=sim, scheme=scheme)
        for d in range(devices)
    ]
    coord.bind(SimpleNamespace(lanes=lanes, tracer=None))
    started = []

    def burst(lane, duration=5.0):
        started.append(lane.index)
        return duration

    coord._start_idle_burst = burst
    return coord, lanes, sim, started


def _window_ticks(w, until):
    """The staggered tick instants up to ``until``, generated exactly as
    ``SSDArray._schedule_window`` re-arms them from time 0."""
    t = 0.0
    while True:
        nxt = (t // w + 1.0) * w
        if nxt > until or nxt <= t:
            return
        yield nxt
        t = nxt


def _staggered_acts(w, devices, lane_index, gap_start, next_arrival):
    """Does the reference staggered coordinator start a burst on the
    lane in this gap?  ``on_idle`` fires when the gap opens; a tick at
    the gap's start or at the next arrival may fire on either side of
    the lane's own event, so both ends count."""
    coord, lanes, sim, started = _bound(
        StaggeredCoordinator(window_us=w), devices
    )
    lane = lanes[lane_index]
    sim.now = gap_start
    coord.on_idle(lane)
    for tick in _window_ticks(w, next_arrival):
        if tick >= gap_start:
            coord.on_window(tick)
    return lane_index in started, coord, lane


@st.composite
def staggered_gaps(draw):
    w = draw(
        st.one_of(
            st.sampled_from([0.1, 1.0, 3.0, 7.5, 1250.0, 3278.0]),
            st.floats(0.5, 5000.0, allow_nan=False, allow_infinity=False),
        )
    )
    devices = draw(st.integers(1, 6))
    lane = draw(st.integers(0, devices - 1))
    k = draw(st.integers(0, 60))
    # Exact window edges (k*W, in the tick arithmetic) are the ties.
    gap_start = draw(
        st.one_of(
            st.just(k * w),
            st.floats(0.0, 1.0).map(lambda f: (k + f) * w),
        )
    )
    m = draw(st.integers(0, 2 * devices + 1))
    next_arrival = draw(
        st.one_of(
            st.just((gap_start // w + 1.0 + m) * w),
            st.floats(0.0, (m + 1) * w).map(lambda d: gap_start + d),
        )
    )
    return w, devices, lane, gap_start, max(next_arrival, gap_start)


class TestIdleGapPredicate:
    """``may_act_in_gap`` never says "no" where the reference acts."""

    @settings(deadline=None, max_examples=300)
    @given(staggered_gaps())
    def test_staggered_is_sound(self, case):
        w, devices, lane_index, gap_start, next_arrival = case
        acts, coord, lane = _staggered_acts(
            w, devices, lane_index, gap_start, next_arrival
        )
        may = coord.may_act_in_gap(lane, gap_start, next_arrival)
        if acts:
            assert may
        # The array form is the elementwise scalar form.
        vec = coord.may_act_in_gap(
            lane, np.array([gap_start, gap_start]),
            np.array([next_arrival, gap_start]),
        )
        assert vec[0] == may
        assert vec[1] == coord.may_act_in_gap(lane, gap_start, gap_start)

    def test_staggered_edge_ties(self):
        w, devices = 1250.0, 4
        coord, lanes, _sim, _ = _bound(
            StaggeredCoordinator(window_us=w), devices
        )
        # Gap opening exactly on an edge: owner(edge) decides.
        assert coord.may_act_in_gap(lanes[2], 2 * w, 2 * w + 10.0)
        assert not coord.may_act_in_gap(lanes[3], 2 * w, 2 * w + 10.0)
        # The lane's own edge equal to the next arrival may still act.
        assert coord.may_act_in_gap(lanes[3], 2 * w + 1.0, 3 * w)
        assert not coord.may_act_in_gap(lanes[3], 2 * w + 1.0, 3 * w - 1e-6)
        # A gap spanning a whole rotation reaches every lane.
        assert all(
            coord.may_act_in_gap(lane, 0.5, 0.5 + devices * w)
            for lane in lanes
        )

    @settings(deadline=None, max_examples=200)
    @given(
        st.integers(2, 5),
        st.floats(0.0, 1000.0, allow_nan=False),
        st.floats(0.1, 500.0, allow_nan=False),
        st.sampled_from(["before", "at", "after"]),
        st.floats(1e-6, 500.0, allow_nan=False),
    )
    def test_token_is_sound(self, devices, grant, duration, where, delta):
        coord, lanes, sim, started = _bound(TokenCoordinator(), devices)
        holder, lane = lanes[0], lanes[-1]
        sim.now = grant
        coord._start_idle_burst = lambda l: started.append(l.index) or duration
        coord.on_idle(holder)
        release = grant + duration
        assert coord.holder is holder and coord.release_us == release
        gap_start = {
            "before": max(0.0, release - delta),
            "at": release,
            "after": release + delta,
        }[where]
        may = coord.may_act_in_gap(lane, gap_start, gap_start + delta)
        # Reference: the holder's GC_COMPLETE fires at ``release``; at
        # an exact tie it may run before the lane's completion.
        if release <= gap_start:
            coord.on_collection_done(holder, release)
        sim.now = gap_start
        coord.on_idle(lane)
        if lane.index in started:
            assert may
        if gap_start < release:
            assert not may  # the token provably stays with the holder
        assert may == (gap_start >= release)

    def test_token_free_or_own(self):
        coord, lanes, sim, _ = _bound(TokenCoordinator(), 2)
        assert coord.may_act_in_gap(lanes[1], 0.0, 10.0)
        coord.on_idle(lanes[1])
        assert coord.may_act_in_gap(lanes[1], 1.0, 10.0)
        assert not coord.may_act_in_gap(lanes[0], 1.0, 10.0)
        assert coord.may_act_in_gap(lanes[0], coord.release_us, 10.0)


# ---------------------------------------------- experiment work gates


def _result_digest(result) -> str:
    """sha256 over every device's counters and trajectory plus the
    array's NCQ counters and coordinator stats."""
    h = hashlib.sha256()
    for run in result.devices:
        h.update(repr((run.gc, run.io, run.wear, run.simulated_us)).encode())
        h.update(run.response_times_us.tobytes())
    stats = sorted(result.coord_stats.items())
    h.update(repr((result.ncq_peaks, result.ncq_held, stats)).encode())
    return h.hexdigest()


@pytest.mark.slow
class TestArrayTailWork:
    """The quick ``array-tail`` coordinated specs: identical on both
    kernels, and the idle-gap predicate keeps their epochs long.  The
    committed-run counts are exact deterministic work counters (before
    the predicate: 8,904 staggered and 5,926 global-token runs)."""

    @pytest.mark.parametrize(
        "coordination, runs, ceiling",
        [("staggered", 511, 1000), ("global-token", 2510, 3500)],
    )
    def test_identity_and_committed_runs(self, coordination, runs, ceiling):
        (spec,) = [
            s for s in array_tail_specs("quick") if s.gc_coord == coordination
        ]
        results = {
            kernel: dataclasses.replace(
                spec, config_overrides=(("kernel", kernel),)
            ).execute()
            for kernel in ("reference", "vectorized")
        }
        ref, vec = results["reference"], results["vectorized"]
        assert ref.metrics.values["cagc_kernel_batches_total"] == 0
        assert vec.kernel_fallback_reason is None
        assert _result_digest(vec) == _result_digest(ref)
        batches = vec.metrics.values["cagc_kernel_batches_total"]
        assert batches == runs <= ceiling
