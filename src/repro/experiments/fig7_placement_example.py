"""Fig 7 — reference-count-based data page placement, before/after GC.

Fig 7 sketches how CAGC's GC pass un-mixes pages: before GC, pages of
different reference counts sit interleaved in the same blocks; after
GC, high-refcount pages are grouped in the cold region and refcount-1
pages in the hot region.

We reproduce it measurably: build a population of shared and unique
contents, run GC passes, and report each region's composition (mean
resident refcount, invalid-page density) via
:func:`repro.ftl.regions.region_stats`.  The separation quality —
cold's mean refcount above the threshold, hot's near 1 — is the
figure's claim in numbers.
"""

from __future__ import annotations

from repro.config import GeometryConfig, SSDConfig
from repro.core.cagc import CAGCScheme
from repro.experiments.common import ExperimentReport, Runs
from repro.ftl.regions import region_stats
from repro.oracle.invariants import check_all


def _demo_config() -> SSDConfig:
    return SSDConfig(
        geometry=GeometryConfig(channels=2, pages_per_block=8, blocks=64),
        cold_region_ratio=0.5,
    )


def run_placement_demo() -> dict:
    """Drive the Fig 7 scenario; return per-region composition."""
    scheme = CAGCScheme(_demo_config())
    fp = 0
    lpns = int(scheme.config.logical_pages * 0.9)
    # Interleave shared content (drawn from a 8-content pool -> high
    # refcounts) with unique content, then churn so GC passes happen.
    for round_ in range(6):
        for lpn in range(lpns):
            if scheme.needs_gc():
                scheme.run_gc(0.0)
            shared = lpn % 2 == 0
            content = (lpn % 8) if shared else fp + 1_000_000
            scheme.write_page(lpn, content, float(fp))
            fp += 1
    check_all(scheme, accounting=False)  # write_page driver: no request counters
    stats = region_stats(scheme)
    return {
        name: {
            "blocks": s.blocks,
            "valid_pages": s.valid_pages,
            "invalid_density": s.invalid_density,
            "mean_refcount": s.mean_refcount,
        }
        for name, s in stats.items()
    }


def report(runs: Runs, scale: str) -> ExperimentReport:
    data = run_placement_demo()
    rows = [
        (
            name,
            row["blocks"],
            row["valid_pages"],
            f"{row['invalid_density']:.1%}",
            f"{row['mean_refcount']:.2f}",
        )
        for name, row in data.items()
    ]
    return ExperimentReport(
        experiment_id="fig7",
        title="Region composition after refcount-based placement",
        headers=("Region", "Blocks", "Valid pages", "Invalid density", "Mean refcount"),
        rows=rows,
        paper_claim=(
            "after GC, pages with high reference counts are grouped in the "
            "cold region (rarely invalidated); refcount-1 pages in the hot "
            "region (quickly invalidated)"
        ),
        data=data,
    )
