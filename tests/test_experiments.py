"""Tests for the experiment harness (quick scale)."""

import pytest

from repro.experiments import EXPERIMENTS, common, run_experiment
from repro.experiments.array_tail import array_tail_specs
from repro.experiments.common import (
    SCALES,
    ExperimentReport,
    get_scale,
    reduction_vs_baseline,
    result_for,
)
from repro.experiments.fig6_refcount_invalid import refcount_invalidation_histogram
from repro.experiments.fig8_example import run_scenario
from repro.runner import RunSpec
from repro.workloads.fiu import build_fiu_trace


def _quick_result(workload, scheme):
    """The quick-scale greedy run Figs 9-12 all read."""
    return result_for(RunSpec(workload=workload, scheme=scheme, scale="quick"))


class TestRegistry:
    def test_all_paper_artifacts_covered(self):
        for artifact in (
            "table1",
            "table2",
            "fig2",
            "fig6",
            "fig8",
            "fig9",
            "fig10",
            "fig11",
            "fig12",
            "fig13",
        ):
            assert artifact in EXPERIMENTS

    def test_ablations_registered(self):
        assert any(k.startswith("ablation-") for k in EXPERIMENTS)

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            run_experiment("fig99")

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            get_scale("galactic")

    def test_scales_have_valid_configs(self):
        for scale in SCALES.values():
            scale.config().validate()


class TestDeclarations:
    """Each experiment's declared fan-out is the one list of its runs."""

    def test_reports_read_only_declared_runs(self, monkeypatch):
        from repro.experiments.registry import warm_experiments

        assert warm_experiments(list(EXPERIMENTS), scale="quick") == 74

        def undeclared(specs, **kwargs):
            raise AssertionError(f"undeclared runs: {[s.label() for s in specs]}")

        monkeypatch.setattr(common, "run_specs", undeclared)
        for experiment_id in EXPERIMENTS:
            report = run_experiment(experiment_id, scale="quick")
            assert report.experiment_id == experiment_id

    def test_declared_specs_are_distinct(self):
        for experiment_id, experiment in EXPERIMENTS.items():
            specs = list(experiment.specs("quick"))
            assert len(set(specs)) == len(specs), experiment_id


class TestReportStructure:
    def test_report_renders_as_text(self):
        report = run_experiment("table1", scale="quick")
        text = str(report)
        assert "[table1]" in text
        assert "Page Size" in text

    def test_table1_matches_paper(self):
        assert run_experiment("table1", scale="quick").data["matches"]


class TestTable2:
    def test_characteristics_close_to_paper(self):
        report = run_experiment("table2", scale="quick")
        for workload, paper in (
            ("mail", (0.698, 0.893)),
            ("homes", (0.805, 0.300)),
            ("web-vm", (0.785, 0.493)),
        ):
            measured = report.data[workload]
            assert measured["write_ratio"] == pytest.approx(paper[0], abs=0.05)
            assert measured["dedup_ratio"] == pytest.approx(paper[1], abs=0.13)


class TestFig2:
    def test_inline_dedup_degrades_light_load(self):
        report = run_experiment("fig2", scale="quick")
        for workload in ("homes", "webmail", "mail"):
            assert report.data[workload]["normalized"] > 1.2
            assert report.data[workload]["gc_bursts_baseline"] == 0

    def test_homes_overhead_largest(self):
        # lowest dedup ratio -> least inline benefit -> worst slowdown
        data = run_experiment("fig2", scale="quick").data
        assert data["homes"]["normalized"] >= data["mail"]["normalized"]


class TestFig6:
    def test_refcount_one_dominates_invalidations(self):
        report = run_experiment("fig6", scale="quick")
        for workload in ("homes", "web-vm", "mail"):
            assert report.data[workload]["1"] > 0.8
            assert report.data[workload][">3"] < 0.05

    def test_histogram_helper_direct(self):
        from repro.config import small_config

        cfg = small_config(blocks=64, pages_per_block=16)
        trace = build_fiu_trace("mail", cfg, n_requests=3000)
        hist = refcount_invalidation_histogram(trace)
        assert hist.total > 0
        assert abs(sum(hist.fractions()) - 1.0) < 1e-9


class TestFig8:
    def test_paper_exact_page_writes(self):
        trad = run_scenario("baseline")
        cagc = run_scenario("cagc")
        assert trad["gc_page_writes"] == 12
        assert cagc["gc_page_writes"] == 7  # one per unique content A..G
        assert cagc["physical_pages_after_gc"] == 7
        assert trad["physical_pages_after_gc"] == 12

    def test_delete_frees_more_under_baseline(self):
        # baseline invalidates 5 pages (E,B,F,B,G); CAGC only loses the
        # contents whose last reference died (E, F, G).
        trad = run_scenario("baseline")
        cagc = run_scenario("cagc")
        assert trad["pages_freed_by_delete"] == 5
        assert cagc["pages_freed_by_delete"] == 3


class TestGCEfficiency:
    """Quick-scale shape checks for Figs 9-11."""

    @pytest.mark.parametrize("workload", ["homes", "web-vm", "mail"])
    def test_cagc_erases_fewer_blocks(self, workload):
        base = _quick_result(workload, "baseline")
        cagc = _quick_result(workload, "cagc")
        assert cagc.blocks_erased < base.blocks_erased

    @pytest.mark.parametrize("workload", ["homes", "web-vm", "mail"])
    def test_cagc_migrates_fewer_pages(self, workload):
        base = _quick_result(workload, "baseline")
        cagc = _quick_result(workload, "cagc")
        assert cagc.pages_migrated < base.pages_migrated

    @pytest.mark.parametrize("workload", ["homes", "web-vm", "mail"])
    def test_cagc_improves_mean_response(self, workload):
        base = _quick_result(workload, "baseline")
        cagc = _quick_result(workload, "cagc")
        assert cagc.latency.mean_us < base.latency.mean_us

    def test_mail_benefits_most_from_dedup(self):
        reductions = {}
        for workload in ("homes", "mail"):
            base = _quick_result(workload, "baseline")
            cagc = _quick_result(workload, "cagc")
            reductions[workload] = reduction_vs_baseline(
                base.pages_migrated, cagc.pages_migrated
            )
        assert reductions["mail"] > reductions["homes"]

    def test_results_memoized(self):
        a = _quick_result("homes", "baseline")
        b = _quick_result("homes", "baseline")
        assert a is b


class TestReports:
    @pytest.mark.parametrize("experiment_id", ["fig9", "fig10", "fig11", "fig12"])
    def test_quick_reports_render(self, experiment_id):
        report = run_experiment(experiment_id, scale="quick")
        assert isinstance(report, ExperimentReport)
        assert len(report.rows) >= 3
        assert str(report)


class TestArrayTail:
    def test_registered_with_spec_fanout(self):
        assert "array-tail" in EXPERIMENTS
        specs = EXPERIMENTS["array-tail"].specs("quick")
        assert list(specs) == list(array_tail_specs("quick"))
        assert len(specs) == 3
        assert {s.gc_coord for s in specs} == {
            "independent",
            "staggered",
            "global-token",
        }
        assert all(s.array_devices == 4 and s.tenants == 4 for s in specs)

    def test_reproduces_unsynchronized_gc_tail_inflation(self):
        """The experiment's headline claim, at quick scale: independent
        per-device GC shows the worst array-wide p999, strictly above
        the best coordinated policy."""
        report = run_experiment("array-tail", scale="quick")
        assert isinstance(report, ExperimentReport)
        assert len(report.rows) == 3
        assert str(report)
        p999 = report.data["p999"]
        coordinated = min(p999["staggered"], p999["global-token"])
        assert p999["independent"] > coordinated
        assert report.data["inflation"]["independent"] > 1.0
