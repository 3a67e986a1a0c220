"""Fig 10 — valid pages migrated during GC: Baseline vs CAGC.

The paper reports CAGC migrating 35.1 % / 47.9 % / 85.9 % fewer pages
than Baseline under Homes / Web-vm / Mail.  This is the metric our
reproduction matches most directly: GC-time dedup skips rewriting any
page whose content already has a canonical copy, and refcount placement
keeps immortal pages out of future victims.
"""

from __future__ import annotations

from repro.experiments.common import (
    WORKLOADS,
    ExperimentReport,
    Runs,
    grouped,
    reduction_vs_baseline,
    workload_specs,
)

PAPER_REDUCTION_PCT = {"homes": 35.1, "web-vm": 47.9, "mail": 85.9}

specs = workload_specs("baseline", "cagc")


def report(runs: Runs, scale: str) -> ExperimentReport:
    rows = []
    data = {}
    for workload, (base, cagc) in zip(WORKLOADS, grouped(runs, 2)):
        reduction = reduction_vs_baseline(base.pages_migrated, cagc.pages_migrated)
        rows.append(
            (
                workload,
                base.pages_migrated,
                cagc.pages_migrated,
                f"{reduction:.1f}%",
                f"{PAPER_REDUCTION_PCT[workload]:.1f}%",
            )
        )
        data[workload] = {
            "baseline": base.pages_migrated,
            "cagc": cagc.pages_migrated,
            "dedup_skipped": cagc.gc.dedup_skipped,
            "reduction_pct": reduction,
            "paper_reduction_pct": PAPER_REDUCTION_PCT[workload],
        }
    return ExperimentReport(
        experiment_id="fig10",
        title="Data pages migrated during GC (Baseline vs CAGC, greedy policy)",
        headers=("Workload", "Baseline", "CAGC", "Reduction", "Paper"),
        rows=rows,
        paper_claim="CAGC migrates 35.1%/47.9%/85.9% fewer pages (Homes/Web-vm/Mail)",
        data=data,
    )
