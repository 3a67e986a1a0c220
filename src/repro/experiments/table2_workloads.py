"""Table II — workload characteristics of the three FIU traces.

Generates each synthetic preset at the requested scale and measures its
write ratio, dedup ratio and mean request size, against the paper's
Table II targets.  This validates that the synthetic substitution for
the non-redistributable FIU traces reproduces the first-order
characteristics the paper's conclusions rest on.
"""

from __future__ import annotations

from repro.experiments.common import WORKLOADS, ExperimentReport, Runs, get_scale

#: Table II of the paper.
PAPER_TABLE2 = {
    "mail": {"write_ratio": 0.698, "dedup_ratio": 0.893, "avg_req_kb": 14.8},
    "homes": {"write_ratio": 0.805, "dedup_ratio": 0.300, "avg_req_kb": 13.1},
    "web-vm": {"write_ratio": 0.785, "dedup_ratio": 0.493, "avg_req_kb": 40.8},
}


def report(runs: Runs, scale: str) -> ExperimentReport:
    sc = get_scale(scale)
    config = sc.config()
    rows = []
    data = {}
    for workload in WORKLOADS:
        trace = sc.trace(workload, config)
        stats = trace.stats()
        paper = PAPER_TABLE2[workload]
        rows.append(
            (
                workload,
                f"{paper['write_ratio']:.1%}",
                f"{stats.write_ratio:.1%}",
                f"{paper['dedup_ratio']:.1%}",
                f"{stats.dedup_ratio:.1%}",
                f"{paper['avg_req_kb']:.1f}KB",
                f"{stats.avg_req_kb:.1f}KB",
            )
        )
        data[workload] = {
            "write_ratio": stats.write_ratio,
            "dedup_ratio": stats.dedup_ratio,
            "avg_req_kb": stats.avg_req_kb,
            "requests": stats.requests,
            "written_pages": stats.written_pages,
        }
    return ExperimentReport(
        experiment_id="table2",
        title="Workload characteristics (synthetic presets vs paper Table II)",
        headers=(
            "Trace",
            "WR paper",
            "WR ours",
            "Dedup paper",
            "Dedup ours",
            "Req paper",
            "Req ours",
        ),
        rows=rows,
        paper_claim="Mail 69.8%/89.3%/14.8KB; Homes 80.5%/30.0%/13.1KB; Web-vm 78.5%/49.3%/40.8KB",
        notes=(
            "dedup ratio runs slightly under target at small scales: the "
            "popular-content pool's first occurrences count as unique"
        ),
        data=data,
    )
