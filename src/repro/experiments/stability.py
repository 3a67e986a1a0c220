"""Seed-stability report for the headline results (Figs 9-11).

Each reduction in the paper comes from one trace replay; this
experiment re-draws the synthetic traces under independent seeds and
reports mean ± std of CAGC's reduction per workload and metric,
confirming the headline numbers are properties of the workload
*characteristics*, not of one particular trace realization.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import (
    WORKLOADS,
    ExperimentReport,
    Runs,
    reduction_vs_baseline,
    results_by,
    workload_specs,
)

METRICS = (
    ("blocks_erased", "Fig 9"),
    ("pages_migrated", "Fig 10"),
    ("mean_response_us", "Fig 11"),
)

SEEDS = (0, 1, 2)

specs = workload_specs("baseline", "cagc", seeds=SEEDS)


def report(runs: Runs, scale: str) -> ExperimentReport:
    results = results_by(runs, "workload", "scheme", "seed")
    rows = []
    data: dict = {}
    for workload in WORKLOADS:
        data[workload] = {}
        for metric, figure in METRICS:
            reductions = [
                reduction_vs_baseline(
                    float(getattr(results[workload, "baseline", seed], metric)),
                    float(getattr(results[workload, "cagc", seed], metric)),
                )
                for seed in SEEDS
            ]
            mean = float(np.mean(reductions))
            std = float(np.std(reductions))
            rows.append(
                (
                    workload,
                    figure,
                    metric,
                    f"{mean:.1f}%",
                    f"{std:.1f}",
                    f"{min(reductions):.1f}%",
                )
            )
            data[workload][metric] = {
                "mean_pct": mean,
                "std_pct": std,
                "per_seed": reductions,
            }
    return ExperimentReport(
        experiment_id="stability",
        title=f"CAGC-vs-Baseline reductions across {len(SEEDS)} independent trace seeds",
        headers=("Workload", "Figure", "Metric", "Mean cut", "Std", "Worst seed"),
        rows=rows,
        notes="all reductions must stay positive on every seed",
        data=data,
    )
