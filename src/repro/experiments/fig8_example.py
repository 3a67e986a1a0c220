"""Fig 8 — the worked four-file example.

The paper walks one tiny scenario through both GC schemes: four files
(File1 = A B C D, File2 = E B F, File3 = D A B, File4 = B G) are
written, space pressure forces a compaction GC, then Files 2 and 4 are
deleted.  Traditional GC rewrites every valid page (12 page writes) and
keeps duplicate content; CAGC writes each unique content once (7 page
writes: A..G) and deletion mostly just decrements reference counts.

We replay exactly that scenario on a 4-pages-per-block device.  The
compaction is forced by collecting every full block (the paper's GC is
triggered by space pressure; victim *selection* is not the point of
this figure).
"""

from __future__ import annotations

from typing import Dict, List

from repro.config import GeometryConfig, SSDConfig
from repro.experiments.common import ExperimentReport, Runs
from repro.oracle.invariants import check_all
from repro.schemes import make_scheme
from repro.workloads.filemodel import FileModelTrace
from repro.workloads.request import OpKind

#: The four files of Fig 8, pages named by content letter.
FIG8_FILES = {
    "file1": ["A", "B", "C", "D"],
    "file2": ["E", "B", "F"],
    "file3": ["D", "A", "B"],
    "file4": ["B", "G"],
}


def _example_config() -> SSDConfig:
    geometry = GeometryConfig(channels=1, pages_per_block=4, blocks=16)
    return SSDConfig(geometry=geometry, cold_threshold=2, cold_region_ratio=0.5)


def _force_compaction(scheme) -> None:
    """Collect every full, inactive block (space-pressure compaction).

    The victim set is snapshotted up front so blocks that fill up with
    migrated pages during the compaction are not re-collected.
    """
    flash = scheme.flash
    victims = [
        block
        for block in range(flash.blocks)
        if not scheme.allocator.is_active(block)
        and flash.write_ptr[block] == flash.pages_per_block
    ]
    for block in victims:
        scheme.collect_block(block, now_us=0.0)


def run_scenario(scheme_name: str) -> Dict[str, int]:
    """Run the Fig 8 scenario under one scheme; return the counters."""
    config = _example_config()
    scheme = make_scheme(scheme_name, config)
    builder = FileModelTrace()
    for name, pages in FIG8_FILES.items():
        builder.write_file(name, pages)
    builder.delete_file("file2").delete_file("file4")
    live_after_gc = 0
    compacted = False
    for _, op, lpn, npages, fps in builder.build().iter_rows():
        if op == int(OpKind.WRITE):
            scheme.write_request(lpn, fps, now_us=0.0)
        else:
            if not compacted:
                # Space pressure hits after the four files are written
                # and before the deletions (the order of Fig 8).
                _force_compaction(scheme)
                live_after_gc = len(scheme.page_fp)
                compacted = True
            scheme.trim_request(lpn, npages, now_us=0.0)
    promotions = scheme.gc_counters.promotions
    gc_writes = scheme.gc_counters.pages_migrated - promotions
    gc_erases = scheme.gc_counters.blocks_erased
    live_after_delete = len(scheme.page_fp)
    check_all(scheme)
    return {
        "gc_page_writes": gc_writes,
        "promotion_copies": promotions,
        "gc_blocks_erased": gc_erases,
        "physical_pages_after_gc": live_after_gc,
        "physical_pages_after_delete": live_after_delete,
        "pages_freed_by_delete": live_after_gc - live_after_delete,
    }


def report(runs: Runs, scale: str) -> ExperimentReport:
    rows: List[List[object]] = []
    data = {}
    for scheme_name, label in (("baseline", "traditional"), ("cagc", "CAGC")):
        r = run_scenario(scheme_name)
        data[label] = r
        rows.append(
            [
                label,
                r["gc_page_writes"],
                r["promotion_copies"],
                r["gc_blocks_erased"],
                r["physical_pages_after_gc"],
                r["physical_pages_after_delete"],
            ]
        )
    return ExperimentReport(
        experiment_id="fig8",
        title="Worked example: write 4 files, compact, delete files 2 & 4",
        headers=(
            "Scheme",
            "GC page writes",
            "Promotions",
            "GC erases",
            "phys pages after GC",
            "after delete",
        ),
        rows=rows,
        paper_claim=(
            "traditional GC: 12 page writes; CAGC: 7 page writes (one per "
            "unique content A-G) and fewer live physical pages throughout"
        ),
        notes=(
            "erase counts depend on block packing; the paper's cartoon packs "
            "12 pages into blocks differently than an append-only allocator"
        ),
        data=data,
    )
