"""Tests for run telemetry: histograms, GC phase attribution, the
report summary rows and the post-GC hook.

The latency histogram trades ~7% relative resolution (its bucket
growth factor) for constant memory, so accuracy tests compare against
``np.percentile`` with that tolerance.  Phase attribution tests pin the
closed-form identities the analytic accounting must satisfy on every
scheme.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import small_config
from repro.device.ssd import SSD, run_trace
from repro.kernel import replay_vectorized
from repro.metrics.report import GC_PHASES, gc_phase_breakdown, summary_rows
from repro.obs import LatencyHistogram
from repro.schemes import make_scheme
from repro.workloads.fiu import build_fiu_trace

ALL_SCHEMES = ("baseline", "inline-dedupe", "cagc", "lba-hotcold")


def _small_run(scheme_name, **cfg_kwargs):
    cfg = small_config(blocks=64, pages_per_block=16, **cfg_kwargs)
    trace = build_fiu_trace("homes", cfg, n_requests=0, fill_factor=2.0)
    return run_trace(make_scheme(scheme_name, cfg), trace), cfg


class TestLatencyHistogram:
    def test_percentiles_track_numpy_within_bucket_resolution(self):
        rng = np.random.default_rng(7)
        samples = rng.lognormal(mean=3.0, sigma=1.2, size=20_000)
        hist = LatencyHistogram.from_samples(samples)
        for p in (50, 90, 95, 99, 99.9):
            exact = float(np.percentile(samples, p))
            approx = hist.percentile(p)
            # one bucket of slack on top of the 7% growth factor
            assert approx == pytest.approx(exact, rel=0.15), f"p{p}"

    def test_record_matches_from_samples(self):
        samples = [0.05, 1.0, 17.3, 444.4, 99_999.0]
        live = LatencyHistogram()
        for s in samples:
            live.record(s)
        bulk = LatencyHistogram.from_samples(samples)
        assert (live.counts == bulk.counts).all()
        assert live.total == bulk.total == len(samples)
        assert live.max_us == bulk.max_us
        assert live.sum_us == pytest.approx(bulk.sum_us)

    def test_from_samples_equals_record_many_exactly(self):
        samples = np.random.default_rng(3).lognormal(3.0, 1.2, size=10_000)
        bulk = LatencyHistogram.from_samples(samples)
        live = LatencyHistogram()
        live.record_many(samples)
        assert np.array_equal(bulk.counts, live.counts)
        assert (bulk.total, bulk.max_us, bulk.sum_us) == (
            live.total, live.max_us, live.sum_us
        )

    def test_all_zero_samples_report_zero(self):
        from repro.obs.series import percentile_from_counts

        hist = LatencyHistogram.from_samples([0.0, 0.0])
        assert hist.percentile(99) == 0.0
        assert percentile_from_counts(hist.counts, hist.total, 0.0, 99) == 0.0

    def test_merge(self):
        a = LatencyHistogram.from_samples([1.0, 2.0])
        b = LatencyHistogram.from_samples([100.0])
        a.merge(b)
        assert a.total == 3
        assert a.max_us == 100.0
        assert a.percentile(100) == pytest.approx(100.0, rel=0.08)

    def test_empty_histogram(self):
        hist = LatencyHistogram()
        assert hist.percentile(99) == 0.0
        assert hist.mean_us == 0.0

    def test_overflow_reports_recorded_max(self):
        hist = LatencyHistogram.from_samples([1e12])  # beyond last edge
        assert hist.counts[-1] == 1
        assert hist.percentile(99) == 1e12

    def test_percentile_range_checked(self):
        with pytest.raises(ValueError):
            LatencyHistogram().percentile(101)
        with pytest.raises(ValueError):
            LatencyHistogram().percentile(-1)

    def test_percentile_never_exceeds_max(self):
        hist = LatencyHistogram.from_samples([5.0, 5.0, 5.0])
        assert hist.percentile(99) <= 5.0 * 1.0 + 1e-9 or hist.percentile(
            99
        ) == pytest.approx(5.0, rel=0.08)

    def test_to_dict_sparse(self):
        hist = LatencyHistogram.from_samples([1.0, 1.0, 1000.0])
        doc = hist.to_dict()
        assert doc["total"] == 3
        assert sum(doc["buckets"].values()) == 3
        assert len(doc["buckets"]) == 2


class TestPhaseAttribution:
    @pytest.mark.parametrize("scheme_name", ALL_SCHEMES)
    def test_erase_and_write_identities(self, scheme_name):
        result, cfg = _small_run(scheme_name)
        gc = result.gc
        timing = cfg.timing
        assert gc.blocks_erased > 0, "workload must trigger GC"
        # every erased block contributes exactly one erase
        assert gc.gc_erase_us == pytest.approx(gc.blocks_erased * timing.erase_us)
        # every migrated page (promotions included) is one program
        assert gc.gc_write_us == pytest.approx(gc.pages_migrated * timing.write_us)
        # the read path saw at least every examined page
        assert gc.gc_read_us >= gc.pages_examined * timing.read_us - 1e-6

    @pytest.mark.parametrize("scheme_name", ("baseline", "lba-hotcold"))
    def test_non_dedup_schemes_never_hash_in_gc(self, scheme_name):
        result, _ = _small_run(scheme_name)
        assert result.gc.gc_hash_us == 0.0

    def test_cagc_hashes_every_examined_page(self):
        result, cfg = _small_run("cagc")
        gc = result.gc
        t = cfg.timing
        assert gc.gc_hash_us == pytest.approx(
            gc.pages_examined * (t.hash_us + t.lookup_us)
        )

    def test_cagc_phases_overlap(self):
        # The overlapped pipeline's whole point: resource busy times sum
        # to more than the critical-path makespan would allow serially.
        result, _ = _small_run("cagc")
        gc = result.gc
        phases = gc_phase_breakdown(gc)
        assert set(phases) == set(GC_PHASES)
        assert all(v >= 0 for v in phases.values())
        serial = gc.gc_read_us + gc.gc_hash_us + gc.gc_write_us + gc.gc_erase_us
        assert gc.gc_busy_us < serial

    def test_baseline_serial_gc_is_exact(self):
        # Traditional GC (Fig 3) has no overlap: makespan == read+write+erase.
        result, _ = _small_run("baseline")
        gc = result.gc
        assert gc.gc_busy_us == pytest.approx(
            gc.gc_read_us + gc.gc_write_us + gc.gc_erase_us
        )


class TestReportRows:
    def test_summary_rows_cover_the_report(self):
        result, _ = _small_run("cagc")
        rows = dict(summary_rows(result))
        for key in (
            "requests",
            "write amplification",
            "GC dedup ratio",
            "blocks erased",
            "GC busy (makespan)",
            "GC read busy",
            "GC hash busy",
            "GC write busy",
            "GC erase busy",
        ):
            assert key in rows, key
        assert rows["blocks erased"] == f"{result.gc.blocks_erased:,}"


class TestSerialization:
    def test_phase_fields_round_trip_through_cache_format(self):
        from repro.runner.serialize import result_from_bytes, result_to_bytes

        result, _ = _small_run("cagc")
        clone = result_from_bytes(result_to_bytes(result))
        assert vars(clone.gc) == vars(result.gc)
        assert clone.gc.gc_read_us > 0.0


class TestGCHook:
    def test_gc_hook_is_a_plain_attribute(self):
        cfg = small_config(blocks=64, pages_per_block=16)
        ssd = SSD(make_scheme("baseline", cfg))
        assert ssd.gc_hook is None
        a, b = (lambda dev: None), (lambda dev: None)
        ssd.gc_hook = a
        ssd.gc_hook = b
        assert ssd.gc_hook is b
        ssd.gc_hook = None
        assert ssd.gc_hook is None

    def test_gc_hook_exceptions_propagate(self):
        # invariant checkers rely on their AssertionError killing the run
        cfg = small_config(blocks=64, pages_per_block=16)
        trace = build_fiu_trace("homes", cfg, n_requests=0, fill_factor=2.0)
        ssd = SSD(make_scheme("baseline", cfg))

        def boom(dev):
            raise AssertionError("boom")

        ssd.gc_hook = boom
        with pytest.raises(AssertionError, match="boom"):
            ssd.replay(trace)

    @pytest.mark.parametrize("gc_mode", ("blocking", "preemptive"))
    def test_gc_hook_fires_once_per_gc_episode(self, gc_mode):
        cfg = small_config(
            blocks=64, pages_per_block=16, gc_mode=gc_mode, kernel="reference"
        )
        trace = build_fiu_trace("homes", cfg, n_requests=0, fill_factor=2.0)
        ssd = SSD(make_scheme("cagc", cfg))
        calls = []
        ssd.gc_hook = lambda dev: calls.append(dev.sim.now)
        ssd.replay(trace)
        assert calls, "workload must trigger GC"
        if gc_mode == "blocking":
            # one call per foreground burst, from the same service path
            # the batched kernel's GC-trigger fallback runs
            assert len(calls) == ssd.scheme.gc_counters.gc_invocations
            vec = SSD(make_scheme("cagc", cfg))
            vec_calls = []
            vec.gc_hook = lambda dev: vec_calls.append(dev.sim.now)
            replay_vectorized(vec, trace)
            assert vec_calls == calls
