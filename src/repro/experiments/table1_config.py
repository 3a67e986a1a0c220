"""Table I — the simulated SSD configuration.

Verifies the library's paper-faithful defaults against the values
printed in the paper's Table I.
"""

from __future__ import annotations

from repro.config import paper_config
from repro.experiments.common import ExperimentReport, Runs


def report(runs: Runs, scale: str) -> ExperimentReport:
    cfg = paper_config()
    geometry = cfg.geometry
    timing = cfg.timing
    rows = [
        ("Page Size", "4KB", f"{geometry.page_size // 1024}KB"),
        ("Block Size", "256KB", f"{geometry.block_size // 1024}KB"),
        ("OP Space", "7%", f"{cfg.op_ratio:.0%}"),
        ("Capacity", "80GB", f"{geometry.physical_bytes // 2**30}GB"),
        ("Read", "12us", f"{timing.read_us:g}us"),
        ("Write", "16us", f"{timing.write_us:g}us"),
        ("Erase Delay", "1.5ms", f"{timing.erase_us / 1000:g}ms"),
        ("Hash", "14us", f"{timing.hash_us:g}us"),
        ("GC Watermark", "20%", f"{cfg.gc_watermark:.0%}"),
    ]
    matches = all(paper == ours for _, paper, ours in rows)
    return ExperimentReport(
        experiment_id="table1",
        title="SSD configuration (paper Table I vs repro.config.paper_config)",
        headers=("Parameter", "Paper", "This repo"),
        rows=rows,
        paper_claim="Table I parameters of the simulated Z-NAND class device",
        notes="exact match" if matches else "MISMATCH — check repro.config defaults",
        data={"matches": matches},
    )
