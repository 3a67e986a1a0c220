"""Fast CAGC victim collection for the vectorized kernel.

:func:`_collect_block_lean` is the reference :meth:`CAGCScheme.collect_block`
walk with the no-op work stripped: victim-page invalidations are
skipped (the erase resets that state; only ``valid_count`` needs
zeroing first), the Fig 5 pipeline timing is inlined, and the
per-page ``index.lookup`` statistics are settled in one shot.  Traced
runs keep the full reference loop — the pipeline spans are per-page by
contract.  Both paths are bit-identical in trajectories, counters,
index statistics and open-addressing table layout; per-path pass
counts accumulate in ``scheme.kernel_gc_stats`` and, when traced, as
``gc_fallback`` instants on the kernel track.
"""

from __future__ import annotations

from repro.core.cagc import CAGCScheme
from repro.core.placement import NeverColdPlacement, PlacementPolicy
from repro.ftl.allocator import Region
from repro.flash.chip import PageState
from repro.obs.trace import TRACK_KERNEL
from repro.schemes.base import FTLScheme, GCBlockOutcome

#: ``scheme.kernel_gc_stats`` keys: collection passes per path.
GC_STAT_KEYS = ("lean", "fallback[traced-pipeline]")


def install_fast_cagc(scheme: FTLScheme) -> bool:
    """Swap in the lean collect_block for the exact CAGC scheme.

    Subclasses (ablations overriding the write path or the migration
    decisions) keep the reference loop.  Returns True when installed.
    """
    if type(scheme) is not CAGCScheme:
        return False
    reference = scheme.collect_block
    stats = {key: 0 for key in GC_STAT_KEYS}
    scheme.kernel_gc_stats = stats  # type: ignore[attr-defined]

    def collect_block(victim: int, now_us: float) -> GCBlockOutcome:
        tracer = scheme.tracer
        if tracer is not None:
            stats["fallback[traced-pipeline]"] += 1
            tracer.instant(
                TRACK_KERNEL, "gc_fallback", now_us, reason="traced-pipeline"
            )
            return reference(victim, now_us)
        stats["lean"] += 1
        return _collect_block_lean(scheme, victim, now_us)

    scheme.collect_block = collect_block  # type: ignore[method-assign]
    return True


def _collect_block_lean(
    scheme: CAGCScheme, victim: int, now_us: float
) -> GCBlockOutcome:
    """Reference CAGC collection with the no-op work stripped."""
    flash = scheme.flash
    valid = flash.valid_ppns_array(victim)
    fps = scheme.page_fp.gather(valid).tolist()
    valid = valid.tolist()
    mapping = scheme.mapping
    allocator = scheme.allocator
    placement = scheme.placement
    index = scheme.index
    page_fp = scheme.page_fp
    tracker = scheme.tracker
    peek = index.peek
    ref_col = mapping._ref  # every PPN here is in range (physical pages)
    state_of = flash.state_of
    t = scheme.timing
    # Promotion check: for the exact base placement the three conditions
    # of ``should_promote`` inline to array/dict probes on allocator
    # state (the canonical page's block region, the cold-block budget),
    # with the real ``_migrate_page`` only when they all pass —
    # promotions are rare, the checks are not.  The never-cold ablation
    # rejects everything; other placements get the full call every time.
    placement_type = type(placement)
    never_promote = placement_type is NeverColdPlacement
    inline_promote = placement_type is PlacementPolicy
    if inline_promote:
        cold_threshold = placement.cold_threshold
        max_cold = placement._max_cold_blocks
        block_region = allocator.block_region
        region_blocks = allocator.region_blocks
        cold = Region.COLD
        ppb = flash.pages_per_block

    # Inlined GCPipeline state (see repro.core.pipeline for the model).
    read_us = t.read_us
    hash_us = t.hash_us
    lookup_us = t.lookup_us
    write_us = t.write_us
    read_free = 0.0
    lanes_free = [0.0] * t.hash_lanes
    single_lane = t.hash_lanes == 1
    write_free = 0.0

    examined = 0
    migrated = 0
    skipped = 0
    promotions = 0
    hits = 0
    for pos, ppn in enumerate(valid):
        # Only a promotion can consume a page the loop has not reached
        # (canonical living inside the victim); merge/migrate
        # invalidations always land behind the cursor.
        if promotions and state_of(ppn) != PageState.VALID:
            continue
        examined += 1
        fp = fps[pos]
        canonical = peek(fp)
        if canonical is not None:
            hits += 1
        promote = False
        if canonical is not None and canonical != ppn:
            # _dedup_merge with the victim-page invalidation elided.
            mapping.remap_ppn(ppn, canonical)
            rc = ref_col[canonical]
            tracker.observe(canonical, rc)
            tracker.peaks.pop(ppn, None)
            page_fp.pop(ppn, None)
            skipped += 1
            write = False
            if not never_promote:
                if inline_promote:
                    # _maybe_promote, conditions inlined (same order:
                    # region, threshold, budget).
                    if (
                        block_region[canonical // ppb] != cold
                        and rc >= cold_threshold
                        and region_blocks[cold] < max_cold
                    ):
                        scheme._migrate_page(canonical, cold, now_us)
                        promote = True
                        promotions += 1
                elif scheme._maybe_promote(canonical, now_us):
                    promote = True
                    promotions += 1
        else:
            # _migrate_page with the victim-page invalidation elided.
            region = placement.region_for(ref_col[ppn], allocator)
            new_ppn = allocator.allocate_page(region, now_us)
            mapping.remap_ppn(ppn, new_ppn)
            if index.contains_ppn(ppn):
                index.move(ppn, new_ppn)
            moved_fp = page_fp.pop(ppn, None)
            if moved_fp is not None:
                page_fp[new_ppn] = moved_fp
            tracker.rekey(ppn, new_ppn)
            if canonical is None:
                index.insert(fp, new_ppn)
            write = True
            migrated += 1
        # pipeline.process_page(write)
        read_done = read_free + read_us
        read_free = read_done
        if single_lane:
            lane = 0
            lane_free = lanes_free[0]
        else:
            lane = min(range(len(lanes_free)), key=lanes_free.__getitem__)
            lane_free = lanes_free[lane]
        hash_start = read_done if read_done >= lane_free else lane_free
        # Two separate adds, like the reference pipeline (float addition
        # is not associative).
        hash_done = hash_start + hash_us + lookup_us
        lanes_free[lane] = hash_done
        if write:
            write_start = hash_done if hash_done >= write_free else write_free
            write_free = write_start + write_us
        if promote:
            # pipeline.extra_copy()
            read_done = read_free + read_us
            read_free = read_done
            write_start = read_done if read_done >= write_free else write_free
            write_free = write_start + write_us
    # The reference makes one index.lookup per examined page; the loop
    # above probes with peek, so settle the statistics in one shot.
    index.hits += hits
    index.misses += examined - hits
    # The elided invalidations left the examined pages VALID; the erase
    # resets their state either way, so only its precondition needs
    # restoring.
    flash.valid_count[victim] = 0
    scheme._erase_victim(victim)
    makespan = read_free
    for lane_free in lanes_free:
        if lane_free > makespan:
            makespan = lane_free
    if write_free > makespan:
        makespan = write_free
    outcome = GCBlockOutcome(
        victim=victim,
        duration_us=makespan + t.erase_us,
        pages_examined=examined,
        pages_migrated=migrated + promotions,
        dedup_skipped=skipped,
        promotions=promotions,
        read_us=(examined + promotions) * t.read_us,
        hash_us=examined * (t.hash_us + t.lookup_us),
        write_us=(migrated + promotions) * t.write_us,
        erase_us=t.erase_us,
    )
    scheme._account_gc(outcome)
    return outcome
