"""Fig 13 — sensitivity to the victim-selection algorithm.

The paper re-runs the Baseline-vs-CAGC comparison under Random, Greedy
and Cost-Benefit victim policies and reports CAGC's reduction in blocks
erased, pages migrated and response time under each — the claim being
that CAGC composes with any victim selector and always wins.
"""

from __future__ import annotations

from repro.experiments.common import (
    WORKLOADS,
    ExperimentReport,
    Runs,
    reduction_vs_baseline,
    results_by,
    workload_specs,
)

POLICIES = ("random", "greedy", "cost-benefit")

specs = workload_specs("baseline", "cagc", policies=POLICIES)


def report(runs: Runs, scale: str) -> ExperimentReport:
    results = results_by(runs, "workload", "scheme", "policy")
    rows = []
    data: dict = {m: {} for m in ("blocks_erased", "pages_migrated", "response")}
    for workload in WORKLOADS:
        for policy in POLICIES:
            base = results[workload, "baseline", policy]
            cagc = results[workload, "cagc", policy]
            r_erased = reduction_vs_baseline(base.blocks_erased, cagc.blocks_erased)
            r_migrated = reduction_vs_baseline(base.pages_migrated, cagc.pages_migrated)
            r_resp = reduction_vs_baseline(base.latency.mean_us, cagc.latency.mean_us)
            rows.append(
                (
                    workload,
                    policy,
                    f"{r_erased:.1f}%",
                    f"{r_migrated:.1f}%",
                    f"{r_resp:.1f}%",
                )
            )
            data["blocks_erased"].setdefault(workload, {})[policy] = r_erased
            data["pages_migrated"].setdefault(workload, {})[policy] = r_migrated
            data["response"].setdefault(workload, {})[policy] = r_resp
    return ExperimentReport(
        experiment_id="fig13",
        title="CAGC's reductions under each victim-selection policy",
        headers=("Workload", "Policy", "Blocks erased", "Pages migrated", "Response"),
        rows=rows,
        paper_claim=(
            "CAGC reduces blocks erased, pages migrated and response time "
            "under Random, Greedy and Cost-Benefit alike"
        ),
        data=data,
    )
