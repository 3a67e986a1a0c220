"""Fig 9 — flash blocks erased: Baseline vs CAGC.

The paper reports CAGC erasing 23.3 % / 48.3 % / 86.6 % fewer blocks
than Baseline under Homes / Web-vm / Mail (greedy victim selection).

Our honest page-conservation accounting bounds the erase reduction by
the *migration share* of total programs (every user page still programs
once under CAGC), so the measured reductions are compressed relative to
the paper while preserving the ordering Homes < Web-vm < Mail; see
EXPERIMENTS.md for the full analysis.
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

PAPER_REDUCTION_PCT = {"homes": 23.3, "web-vm": 48.3, "mail": 86.6}

specs = workload_specs("baseline", "cagc")


def report(runs: Runs, scale: str) -> ExperimentReport:
    rows = []
    data = {}
    for workload, (base, cagc) in zip(WORKLOADS, grouped(runs, 2)):
        reduction = reduction_vs_baseline(base.blocks_erased, cagc.blocks_erased)
        rows.append(
            (
                workload,
                base.blocks_erased,
                cagc.blocks_erased,
                f"{reduction:.1f}%",
                f"{PAPER_REDUCTION_PCT[workload]:.1f}%",
            )
        )
        data[workload] = {
            "baseline": base.blocks_erased,
            "cagc": cagc.blocks_erased,
            "reduction_pct": reduction,
            "paper_reduction_pct": PAPER_REDUCTION_PCT[workload],
        }
    return ExperimentReport(
        experiment_id="fig9",
        title="Flash blocks erased during GC (Baseline vs CAGC, greedy policy)",
        headers=("Workload", "Baseline", "CAGC", "Reduction", "Paper"),
        rows=rows,
        paper_claim="CAGC erases 23.3%/48.3%/86.6% fewer blocks (Homes/Web-vm/Mail)",
        notes=(
            "reduction ordering (Homes < Web-vm < Mail, increasing with "
            "dedup ratio) reproduces; magnitudes are compressed by strict "
            "page-conservation accounting (see EXPERIMENTS.md)"
        ),
        data=data,
    )
