"""Fig 12 — response-time CDFs: Baseline vs CAGC.

The paper plots the empirical CDF of request response times per
workload: CAGC's curve sits left of (above) Baseline's everywhere, with
the largest separation under Mail — GC-induced stalls are both rarer
and shorter.  We report quantiles plus first-order stochastic dominance
checks over the full curves.
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import (
    WORKLOADS,
    ExperimentReport,
    Runs,
    grouped,
    workload_specs,
)
from repro.metrics.cdf import cdf_at, empirical_cdf

specs = workload_specs("baseline", "cagc")


def report(runs: Runs, scale: str) -> ExperimentReport:
    rows = []
    data = {}
    for workload, (base, cagc) in zip(WORKLOADS, grouped(runs, 2)):
        bs = base.response_times_us
        cs = cagc.response_times_us
        # Dominance: at a grid of latencies, CAGC's CDF >= Baseline's.
        grid = np.percentile(np.concatenate([bs, cs]), np.linspace(1, 99, 25))
        dominance = float(
            np.mean([cdf_at(cs, x) >= cdf_at(bs, x) - 1e-9 for x in grid])
        )
        p50b, p80b, p99b = np.percentile(bs, [50, 80, 99])
        p50c, p80c, p99c = np.percentile(cs, [50, 80, 99])
        rows.append(
            (
                workload,
                f"{p50b:.0f}/{p50c:.0f}",
                f"{p80b:.0f}/{p80c:.0f}",
                f"{p99b:.0f}/{p99c:.0f}",
                f"{dominance:.0%}",
            )
        )
        xs_b, fs_b = empirical_cdf(bs, points=100)
        xs_c, fs_c = empirical_cdf(cs, points=100)
        data[workload] = {
            "baseline_percentiles_us": {"p50": float(p50b), "p80": float(p80b), "p99": float(p99b)},
            "cagc_percentiles_us": {"p50": float(p50c), "p80": float(p80c), "p99": float(p99c)},
            "dominance_fraction": dominance,
            "baseline_cdf": (xs_b.tolist(), fs_b.tolist()),
            "cagc_cdf": (xs_c.tolist(), fs_c.tolist()),
        }
    return ExperimentReport(
        experiment_id="fig12",
        title="Response-time CDF quantiles, Baseline/CAGC (us)",
        headers=("Workload", "p50 B/C", "p80 B/C", "p99 B/C", "CAGC dominates"),
        rows=rows,
        paper_claim=(
            "CAGC's CDF dominates Baseline's for all three workloads; "
            "largest tail gap on Mail"
        ),
        data=data,
    )
