"""Fig 11 — normalized mean response time: Inline-Dedupe / Baseline / CAGC.

The paper reports CAGC cutting the mean response time during GC periods
by 33.6 % / 29.6 % / 70.1 % versus Baseline (Homes / Web-vm / Mail),
with Inline-Dedupe *above* Baseline for the moderate-dedup workloads.

In our simulator CAGC's reduction reproduces; Inline-Dedupe's position
depends on how much GC pressure the regime has (its hash tax competes
against the GC traffic its write reduction removes) — at this scale it
lands at or below Baseline for high-dedup workloads, as discussed in
EXPERIMENTS.md.
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

PAPER_CAGC_REDUCTION_PCT = {"homes": 33.6, "web-vm": 29.6, "mail": 70.1}

specs = workload_specs("baseline", "inline-dedupe", "cagc")


def report(runs: Runs, scale: str) -> ExperimentReport:
    rows = []
    data = {}
    for workload, (base, inline, cagc) in zip(WORKLOADS, grouped(runs, 3)):
        b = base.latency.mean_us
        reduction = reduction_vs_baseline(b, cagc.latency.mean_us)
        rows.append(
            (
                workload,
                f"{inline.latency.mean_us / b:.2f}" if b else "-",
                "1.00",
                f"{cagc.latency.mean_us / b:.2f}" if b else "-",
                f"{reduction:.1f}%",
                f"{PAPER_CAGC_REDUCTION_PCT[workload]:.1f}%",
            )
        )
        data[workload] = {
            "baseline_mean_us": b,
            "inline_mean_us": inline.latency.mean_us,
            "cagc_mean_us": cagc.latency.mean_us,
            "cagc_reduction_pct": reduction,
            "paper_reduction_pct": PAPER_CAGC_REDUCTION_PCT[workload],
        }
    return ExperimentReport(
        experiment_id="fig11",
        title="Normalized mean response time (Inline-Dedupe / Baseline / CAGC)",
        headers=("Workload", "Inline", "Baseline", "CAGC", "CAGC cut", "Paper"),
        rows=rows,
        paper_claim="CAGC cuts mean response by 33.6%/29.6%/70.1% (Homes/Web-vm/Mail)",
        data=data,
    )
