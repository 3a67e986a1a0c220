"""Array differential oracle: every device of the array agrees with the
naive model, under every GC-coordination policy.

The array harness (:mod:`repro.oracle.arraydiff`) re-splits a
multi-tenant trace with the pure range router and diffs each lane's end
state against an independent :class:`OracleSSD` — so NCQ admission and
cross-device GC coordination must be *state-invisible*: they may move
collection work in time, never change what any device's flash ends up
holding.

The bug-detection half closes the loop exactly as the single-device
suite does: with the victim-index off-by-one re-injected the array
harness MUST report the divergence, and the committed shrunk trace
(``tests/regress/array-victim-index-off-by-one.csv``) must both replay
cleanly today and still trigger the re-injected bug.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.array import COORDINATIONS
from repro.oracle import (
    ARRAY_DEVICE_COUNTS,
    diff_array,
    fuzz_config,
    fuzz_trace,
    make_array_divergence_predicate,
    shrink_trace,
)
from repro.oracle.arraydiff import array_pages_per_device
from repro.workloads.trace import Trace

from tests._oracle_helpers import victim_index_off_by_one

REGRESS_DIR = Path(__file__).parent / "regress"
ARRAY_REGRESS = REGRESS_DIR / "array-victim-index-off-by-one.csv"


@pytest.fixture(scope="module")
def fuzz_cfg():
    return fuzz_config()


@pytest.fixture(scope="module")
def per_event_cfg():
    """The fuzz device on the reference kernel, for the injected-bug
    tests: the bug lives in ``VictimIndex.on_invalidate``, which the
    reference loop drives on every invalidation.  The batched kernels
    reconcile touched blocks once per run through ``sync_block``, and
    a run carries its trims too, so there the committed trigger (two
    invalidations of one full block) folds into one sync."""
    return fuzz_config(kernel="reference")


class TestArrayProfile:
    def test_extents_route_cleanly_at_every_device_count(self, fuzz_cfg):
        """The ``array`` profile keeps every extent inside one tenant
        quarter, so the router splits it for 1, 2 and 4 devices."""
        from repro.array.router import RangeRouter

        for seed in range(5):
            trace = fuzz_trace(seed, fuzz_cfg, profile="array")
            for devices in ARRAY_DEVICE_COUNTS:
                size = array_pages_per_device(fuzz_cfg, devices)
                parts = RangeRouter(devices, size).split(trace)
                assert sum(len(sub) for sub, _ in parts) == len(trace)

    def test_profile_touches_every_device(self, fuzz_cfg):
        from repro.array.router import RangeRouter

        trace = fuzz_trace(0, fuzz_cfg, profile="array")
        size = array_pages_per_device(fuzz_cfg, 4)
        parts = RangeRouter(4, size).split(trace)
        assert all(len(sub) > 0 for sub, _ in parts)


class TestNoDivergence:
    @pytest.mark.parametrize("coordination", COORDINATIONS)
    def test_blocking_gc_all_coordinations(self, coordination, fuzz_cfg):
        for seed in range(3):
            trace = fuzz_trace(seed, fuzz_cfg, profile="array")
            devices = ARRAY_DEVICE_COUNTS[seed % len(ARRAY_DEVICE_COUNTS)]
            divergence = diff_array(
                trace,
                devices=devices,
                scheme="cagc",
                config=fuzz_cfg,
                coordination=coordination,
            )
            assert divergence is None, str(divergence)

    @pytest.mark.parametrize("scheme", ("baseline", "inline-dedupe"))
    def test_other_schemes(self, scheme, fuzz_cfg):
        for seed in range(2):
            trace = fuzz_trace(seed, fuzz_cfg, profile="array")
            divergence = diff_array(
                trace, devices=4, scheme=scheme, config=fuzz_cfg
            )
            assert divergence is None, str(divergence)

    def test_preemptive_gc(self):
        cfg = fuzz_config(gc_mode="preemptive")
        for seed in range(2):
            trace = fuzz_trace(seed, cfg, profile="array")
            divergence = diff_array(trace, devices=4, scheme="cagc", config=cfg)
            assert divergence is None, str(divergence)

    def test_tight_ncq_depth(self, fuzz_cfg):
        """Admission pressure (depth 1) must stay state-invisible too."""
        trace = fuzz_trace(1, fuzz_cfg, profile="array")
        divergence = diff_array(
            trace, devices=2, scheme="cagc", config=fuzz_cfg, ncq_depth=1
        )
        assert divergence is None, str(divergence)


class TestBugDetection:
    def test_injected_bug_caught_on_array(self, per_event_cfg):
        with victim_index_off_by_one():
            hits = []
            for seed in range(3):
                divergence = diff_array(
                    fuzz_trace(seed, per_event_cfg, profile="array"),
                    devices=4,
                    scheme="baseline",
                    config=per_event_cfg,
                )
                if divergence is not None:
                    hits.append(divergence)
        assert hits, "corrupted victim index escaped the array harness"
        assert any(d.kind == "invariant" for d in hits)

    def test_injected_bug_shrinks_to_at_most_10_requests(self, per_event_cfg):
        """Full pipeline on the array: fuzz -> diff_array -> ddmin."""
        with victim_index_off_by_one():
            trace = None
            for seed in range(10):
                candidate = fuzz_trace(seed, per_event_cfg, profile="array")
                if (
                    diff_array(
                        candidate,
                        devices=4,
                        scheme="baseline",
                        config=per_event_cfg,
                    )
                    is not None
                ):
                    trace = candidate
                    break
            assert trace is not None, "bug never diverged across 10 seeds"
            predicate = make_array_divergence_predicate(
                devices=4,
                scheme="baseline",
                policy="greedy",
                config=per_event_cfg,
            )
            minimal = shrink_trace(trace, predicate)
            assert predicate(minimal), "shrunk trace no longer diverges"
            assert len(minimal) <= 10
        # Clean code replays the minimal trace without divergence.
        assert (
            diff_array(
                minimal, devices=4, scheme="baseline", config=per_event_cfg
            )
            is None
        )


class TestCommittedRegression:
    @pytest.mark.parametrize("coordination", COORDINATIONS)
    def test_regress_trace_stays_clean_on_array(self, coordination, fuzz_cfg):
        trace = Trace.load_csv(ARRAY_REGRESS, name=ARRAY_REGRESS.stem)
        divergence = diff_array(
            trace,
            devices=4,
            scheme="baseline",
            config=fuzz_cfg,
            coordination=coordination,
        )
        assert divergence is None, str(divergence)

    def test_regress_trace_still_triggers_bug(self, per_event_cfg):
        trace = Trace.load_csv(ARRAY_REGRESS, name=ARRAY_REGRESS.stem)
        with victim_index_off_by_one():
            divergence = diff_array(
                trace, devices=4, scheme="baseline", config=per_event_cfg
            )
        assert divergence is not None and divergence.kind == "invariant"
