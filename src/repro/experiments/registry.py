"""Experiment registry: every paper table/figure plus the ablations.

Each id maps to one :class:`~repro.experiments.common.Experiment`
declaration: its :class:`~repro.runner.RunSpec` fan-out and the report
builder that reads those runs' results.  The CLI prewarms the shared
result cache from the declared fan-outs (:func:`warm_experiments`, with
a process pool) before the serial report builders read them.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.experiments import (
    ablations,
    array_tail,
    stability,
    fig2_inline_overhead,
    fig6_refcount_invalid,
    fig7_placement_example,
    fig8_example,
    fig9_blocks_erased,
    fig10_pages_migrated,
    fig11_response_time,
    fig12_latency_cdf,
    fig13_victim_policy,
    table1_config,
    table2_workloads,
)
from repro.experiments.common import Experiment, ExperimentReport, prefetch_results
from repro.runner import RunSpec

#: The tables and worked examples (fig6/7/8) are analytic: no runs.  The
#: nine ablations declare themselves in :mod:`repro.experiments.ablations`.
EXPERIMENTS: Dict[str, Experiment] = {
    "table1": Experiment(table1_config.report),
    "table2": Experiment(table2_workloads.report),
    "fig2": Experiment(fig2_inline_overhead.report, fig2_inline_overhead.fig2_specs),
    "fig6": Experiment(fig6_refcount_invalid.report),
    "fig7": Experiment(fig7_placement_example.report),
    "fig8": Experiment(fig8_example.report),
    "fig9": Experiment(fig9_blocks_erased.report, fig9_blocks_erased.specs),
    "fig10": Experiment(fig10_pages_migrated.report, fig10_pages_migrated.specs),
    "fig11": Experiment(fig11_response_time.report, fig11_response_time.specs),
    "fig12": Experiment(fig12_latency_cdf.report, fig12_latency_cdf.specs),
    "fig13": Experiment(fig13_victim_policy.report, fig13_victim_policy.specs),
    **ablations.EXPERIMENTS,
    "stability": Experiment(stability.report, stability.specs),
    "array-tail": Experiment(array_tail.report, array_tail.array_tail_specs),
}


def _experiment(experiment_id: str) -> Experiment:
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        raise ValueError(
            f"unknown experiment {experiment_id!r}; choose from {sorted(EXPERIMENTS)}"
        ) from None


def specs_for_experiments(
    experiment_ids: Iterable[str], scale: str = "bench"
) -> List[RunSpec]:
    """Deduplicated spec fan-out behind the given experiments."""
    return list(
        dict.fromkeys(
            spec
            for experiment_id in experiment_ids
            for spec in _experiment(experiment_id).specs(scale)
        )
    )


def warm_experiments(
    experiment_ids: Iterable[str], scale: str = "bench", jobs: int = 1
) -> int:
    """Prewarm the result cache for the experiments' declared runs.

    Returns the number of distinct specs behind the selection; results
    land in the in-process memo and the persistent cache, so the
    subsequent (serial) report builders find every run precomputed.
    """
    specs = specs_for_experiments(experiment_ids, scale)
    prefetch_results(specs, jobs=jobs)
    return len(specs)


def run_experiment(experiment_id: str, scale: str = "bench") -> ExperimentReport:
    """Run one experiment by id (``fig9``, ``table2``, ...)."""
    return _experiment(experiment_id).run(scale)
