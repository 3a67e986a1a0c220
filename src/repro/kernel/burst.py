"""GC bursts in one pass: the vectorized kernel's victim collection.

:func:`install_burst_pass` gives the exact baseline, inline-dedupe and
CAGC schemes a :class:`BurstPass`.  The one select -> collect loop
behind :meth:`FTLScheme.run_gc <repro.schemes.base.FTLScheme.run_gc>`
and :meth:`FTLScheme.reclaim <repro.schemes.base.FTLScheme.reclaim>`
(``FTLScheme._gc_loop``) then collects each victim through the pass,
with the same stop rules and trace events.  The pass works on the raw
FTL columns (the mapping's ``_fwd``/``_ref``/``_solo``, the fingerprint
and peak columns, the index's ``_keys``/``_vals``/``_ppn_fp``) and on
the flash and allocator counters, instead of about ten method calls per
page.

Selection stays sequential: each victim is the policy's pick at the
burst start plus the time already spent, after the previous victim's
allocation and erase, so cost-benefit ages, the random policy's RNG
stream and greedy's ties do not move.

* **Plain copy** (baseline and inline-dedupe): per victim, in selection
  order, the destination pages are allocated, the mapping, fingerprint,
  peak and index-move scatters land as one set, and the victim is
  erased (allocation and erase feed the next pick through the flash
  hooks).
* **CAGC**: one scalar walk over all the burst's victims, in order.  It
  is the reference :meth:`CAGCScheme.collect_block
  <repro.core.cagc.CAGCScheme.collect_block>` with the victim-page
  invalidations skipped (the erase resets that state; only
  ``valid_count`` needs zeroing first), the Fig 5 pipeline timing
  inlined, and each page's index lookup, remap, insert, fingerprint and
  peak move done on the columns.  Destination programs land once per
  active-block stretch, before anything reads the flash state they
  change (a promotion, the erase, the next pick).  Index hits and
  misses are settled once per burst.  A traced burst keeps the
  reference collect per victim, whose pipeline spans are per page.

Both collects are bit-identical to the reference loops: trajectories,
counters folded per victim in victim order, index statistics and the
open-addressing table bytes.  Per-victim path counts accumulate in
``scheme.kernel_gc_stats``.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.cagc import CAGCScheme
from repro.core.placement import NeverColdPlacement
from repro.dedup.index import _EMPTY, _GOLD
from repro.flash.chip import PageState
from repro.ftl.allocator import Region
from repro.kernel.views import ColumnViews
from repro.obs.trace import TRACK_KERNEL
from repro.schemes.base import FTLScheme
from repro.schemes.baseline import BaselineScheme
from repro.schemes.inline_dedupe import InlineDedupeScheme

_VALID = PageState.VALID
_HOT = Region.HOT
_COLD = Region.COLD
_FP_ABSENT = -1
_NO_LPN = -1


def install_burst_pass(scheme: FTLScheme, views: ColumnViews) -> None:
    """Give the exact baseline, inline-dedupe or CAGC scheme its burst
    pass (``scheme.burst_pass``); other schemes keep ``None``.

    Subclasses may override the migration region (spatial hot/cold) or
    the write path and migration decisions, so they keep
    :meth:`~repro.schemes.base.FTLScheme.collect_block`.
    """
    cls = type(scheme)
    if cls in (BaselineScheme, InlineDedupeScheme):
        burst: BurstPass = PlainCopyBurst(views)
    elif cls is CAGCScheme:
        burst = CagcBurst()
    else:
        return
    scheme.kernel_gc_stats = burst.stats  # type: ignore[attr-defined]
    scheme.burst_pass = burst


class BurstPass:
    """Collects the victims of one ``run_gc``/``reclaim`` loop
    (:meth:`FTLScheme._gc_loop <repro.schemes.base.FTLScheme._gc_loop>`).

    The scheme comes with each :meth:`begin` and the pass keeps no
    reference to it past :meth:`end`, so the scheme and its pass form
    no reference cycle: a finished replay's columns free at once
    instead of waiting for the cyclic collector.
    """

    #: ``scheme.kernel_gc_stats`` keys: collection passes per path.
    STAT_KEYS: Tuple[str, ...] = ()

    def __init__(self) -> None:
        self.stats: Dict[str, int] = {key: 0 for key in self.STAT_KEYS}

    def begin(self, scheme: FTLScheme) -> Callable[[int, float], float]:
        """The per-victim collect ``(victim, now_us) -> duration`` for
        one loop."""
        raise NotImplementedError

    def end(self, scheme: FTLScheme) -> None:
        """Land whatever the loop deferred."""


class _Streams:
    """One burst's destination streams, one per region.

    A stream hands out the next PPN of its region's active block and
    programs the pages it handed out in one ``allocate_run`` per
    stretch, stamped with the time of the stretch's last page, so the
    flash and allocator end exactly as per-page ``allocate_page`` calls
    leave them.  A stretch lands before anything reads what it changes:
    when its block fills (a full block may become a victim candidate),
    before a promotion invalidates a page in it, and at the burst's end.
    """

    __slots__ = ("allocator", "ppb", "nxt", "end", "start", "stamp")

    def __init__(self, allocator, ppb: int) -> None:
        self.allocator = allocator
        self.ppb = ppb
        #: per region: the next PPN, the end of its block, the first
        #: PPN not yet programmed and the last page's time.
        self.nxt = [0, 0]
        self.end = [0, 0]
        self.start = [0, 0]
        self.stamp = [0.0, 0.0]
        # Take both streams up from the allocator's active blocks.
        for r in (_HOT, _COLD):
            block = allocator._active[r]
            if block is None:
                self.nxt[r] = self.end[r] = self.start[r] = 0
            else:
                self.end[r] = (block + 1) * self.ppb
                self.nxt[r] = self.start[r] = self.end[r] - allocator._active_free[r]

    def pull(self, r: int) -> int:
        """Open a fresh block for region ``r`` (its block is full);
        returns its first PPN."""
        self.land(r)
        first = self.allocator._pull_free(r) * self.ppb
        self.nxt[r] = self.start[r] = first
        self.end[r] = first + self.ppb
        return first

    def take(self, r: int, n: int, now_us: float) -> List[Tuple[int, int]]:
        """Hand out ``n`` PPNs of region ``r``; returns them as
        ``(first, count)`` runs, one per block."""
        nxt = self.nxt
        end = self.end
        runs = []
        while n:
            first = nxt[r]
            if first == end[r]:
                first = self.pull(r)
            count = min(end[r] - first, n)
            runs.append((first, count))
            nxt[r] = first + count
            self.stamp[r] = now_us
            n -= count
        return runs

    def land(self, r: int) -> None:
        """Program region ``r``'s pending stretch."""
        count = self.nxt[r] - self.start[r]
        if count:
            first, placed = self.allocator.allocate_run(r, count, self.stamp[r])
            assert first == self.start[r] and placed == count, "stream drifted"
            self.start[r] = self.nxt[r]

    def land_full(self) -> None:
        """Program the pending stretches whose block is full."""
        for r in (_HOT, _COLD):
            if self.nxt[r] == self.end[r]:
                self.land(r)

    def land_all(self) -> None:
        self.land(_HOT)
        self.land(_COLD)


class PlainCopyBurst(BurstPass):
    """Baseline / inline-dedupe bursts: each victim's pages are
    allocated on the streams and their metadata moved in one scatter
    set, then the victim is erased."""

    STAT_KEYS = ("batched",)

    def __init__(self, views: ColumnViews) -> None:
        super().__init__()
        self.views = views
        self._streams: Optional[_Streams] = None

    def begin(self, scheme: FTLScheme) -> Callable[[int, float], float]:
        self._streams = _Streams(scheme.allocator, scheme.flash._ppb)
        return partial(self._collect, scheme)

    def end(self, scheme: FTLScheme) -> None:
        self._streams.land_all()
        self._streams = None

    def _collect(self, scheme: FTLScheme, victim: int, now_us: float) -> float:
        flash = scheme.flash
        n = int(flash.valid_count[victim])
        if n:
            streams = self._streams
            region = int(scheme.allocator.block_region[victim])
            if region != _HOT and region != _COLD:
                region = _HOT
            # The victim's valid PPNs in page order (the reference's
            # copy order) and their destinations in run order.
            base = victim * streams.ppb
            states = flash.page_state[base : base + int(flash.write_ptr[victim])]
            old = np.flatnonzero(states == _VALID) + base
            new = np.concatenate(
                [
                    np.arange(first, first + count)
                    for first, count in streams.take(region, n, now_us)
                ]
            )
            _move_pages(scheme, self.views, old, new)
            streams.land_full()
            # The skipped per-page invalidations would leave the victim
            # with no valid page: the erase's precondition.
            flash.valid_count[victim] = 0
        scheme._erase_victim(victim)
        self.stats["batched"] += 1
        return scheme._plain_copy_done(victim, n, now_us)


def _move_pages(
    scheme: FTLScheme, views: ColumnViews, old: np.ndarray, new: np.ndarray
) -> None:
    """Carry every page of ``old`` to the fresh page ``new`` at the same
    position: referrers, canonical index entry, fingerprint and peak."""
    # Destinations are fresh, so each source page's referrers transfer
    # wholesale (solo pages as column scatters, shared pages by handing
    # the referrer set to the new PPN).  All-solo batches (every
    # baseline burst) scatter unmasked.
    ref_view = views.ref
    solo_view = views.solo
    fwd_view = views.fwd
    solo_sel = ref_view[old] == 1
    all_solo = bool(solo_sel.all())
    solo_old = old if all_solo else old[solo_sel]
    solo_new = new if all_solo else new[solo_sel]
    lpns = solo_view[solo_old].copy()
    fwd_view[lpns] = solo_new
    solo_view[solo_old] = _NO_LPN
    ref_view[solo_old] = 0
    ref_view[solo_new] = 1
    solo_view[solo_new] = lpns
    if not all_solo:
        shared = scheme.mapping._shared
        for src, dst in zip(old[~solo_sel].tolist(), new[~solo_sel].tolist()):
            referrers = shared.pop(src)
            for moved_lpn in referrers:
                fwd_view[moved_lpn] = dst
            shared[dst] = referrers
            ref_view[dst] = len(referrers)
            ref_view[src] = 0
    # Canonical index entries move in place, in page order (the
    # reference's per-page ``index.move`` calls).  An empty index
    # (always, in baseline) means no page is canonical.
    if len(scheme.index) != 0:
        canon_sel = views.rev[old] != _EMPTY
        if bool(canon_sel.any()):
            move = scheme.index.move
            for src, dst in zip(old[canon_sel].tolist(), new[canon_sel].tolist()):
                move(src, dst)
    # Fingerprints follow the pages; peaks rekey onto the new PPNs.
    fp_view = views.fp
    moved_fps = fp_view[old].copy()
    fp_view[old] = _FP_ABSENT
    if bool((moved_fps == _FP_ABSENT).any()):
        present = moved_fps != _FP_ABSENT
        fp_view[new[present]] = moved_fps[present]
    else:
        fp_view[new] = moved_fps
    peak_view = views.peak
    peaks = peak_view[old].copy()
    peak_view[old] = 0
    peak_view[new] = peaks




class CagcBurst(BurstPass):
    """CAGC bursts: one scalar dedup/promotion walk over the victims."""

    STAT_KEYS = ("lean", "fallback[traced-pipeline]")

    def __init__(self) -> None:
        super().__init__()
        self._finish = None

    def begin(self, scheme: FTLScheme) -> Callable[[int, float], float]:
        stats = self.stats
        tracer = scheme.tracer
        if tracer is None:
            collect, self._finish = _cagc_walk(scheme, stats)
            return collect

        def collect_traced(victim: int, now_us: float) -> float:
            stats["fallback[traced-pipeline]"] += 1
            tracer.instant(
                TRACK_KERNEL, "gc_fallback", now_us, reason="traced-pipeline"
            )
            return CAGCScheme.collect_block(scheme, victim, now_us).duration_us

        return collect_traced

    def end(self, scheme: FTLScheme) -> None:
        if self._finish is not None:
            self._finish()
            self._finish = None


def _cagc_walk(scheme: CAGCScheme, stats: Dict[str, int]):
    """One burst's CAGC walk: ``(collect(victim, now_us) -> duration,
    finish())``.

    ``collect`` is the reference collect without its method calls;
    ``finish`` lands the destination streams and settles the index
    statistics (the reference makes one ``index.lookup`` per examined
    page; the walk probes the table directly).
    """
    flash = scheme.flash
    allocator = scheme.allocator
    placement = scheme.placement
    mapping = scheme.mapping
    index = scheme.index
    t = scheme.timing
    gc = scheme.gc_counters
    ppb = flash._ppb
    page_state = flash.page_state
    write_ptr = flash.write_ptr
    valid_count = flash.valid_count
    erase_victim = scheme._erase_victim
    invalidate = flash.invalidate

    fwd = mapping._fwd
    ref = mapping._ref
    solo = mapping._solo
    shared = mapping._shared
    remap = mapping.remap_ppn
    fp_col = scheme.page_fp._col
    peak = scheme.tracker.peaks._col
    keys = index._keys
    vals = index._vals
    rev = index._ppn_fp
    mask = index._mask

    # The placement's ``region_for`` and ``should_promote`` inline to
    # probes of the allocator state.  The never-cold ablation classifies
    # nothing as cold: no reference count reaches an infinite threshold.
    cold_threshold = (
        math.inf
        if isinstance(placement, NeverColdPlacement)
        else placement.cold_threshold
    )
    max_cold = placement._max_cold_blocks
    block_region = allocator.block_region
    region_blocks = allocator.region_blocks

    streams = _Streams(allocator, ppb)
    nxt = streams.nxt
    end = streams.end
    start = streams.start
    stamp = streams.stamp

    # GCPipeline timing (see repro.core.pipeline for the model).
    read_us = t.read_us
    hash_us = t.hash_us
    lookup_us = t.lookup_us
    write_us = t.write_us
    erase_us = t.erase_us
    hash_cost = t.hash_us + t.lookup_us
    lanes = t.hash_lanes
    single_lane = lanes == 1

    gold = _GOLD
    empty = _EMPTY
    valid_state = _VALID
    valid_byte = bytes([_VALID])
    cold = _COLD
    hot = _HOT
    hits = 0
    looked_up = 0
    # The index's occupancy counters, kept here through the burst and
    # written back before anything reads them (growth, the burst end).
    used = index._used
    filled = index._filled
    # Growth point: ``_maybe_grow`` grows once ``(filled + 1) * 3 >
    # capacity * 2``; capacities are powers of two, so that is
    # ``filled >= 2 * capacity // 3``.
    grow_at = 2 * (mask + 1) // 3

    def collect(victim: int, now_us: float) -> float:
        nonlocal keys, vals, mask, hits, looked_up, used, filled, grow_at
        base = victim * ppb
        states = page_state[base : base + int(write_ptr[victim])].tobytes()
        read_free = 0.0
        hash_free = 0.0  # the single hash lane; lanes_free for several
        lanes_free = [0.0] * lanes
        write_free = 0.0
        examined = 0
        migrated = 0
        skipped = 0
        promotions = 0
        off = -1
        while True:
            off = states.find(valid_byte, off + 1)
            if off < 0:
                break
            ppn = base + off
            # Only a promotion can consume a page the walk has not
            # reached (canonical living inside the victim); merge and
            # migrate invalidations always land behind the cursor.
            if promotions and page_state[ppn] != valid_state:
                continue
            examined += 1
            fp = fp_col[ppn]
            # index.peek(fp) on the raw table.
            canonical = -1
            if fp >= 0:
                home = slot = (fp * gold) & mask
                while True:
                    k = keys[slot]
                    if k == fp:
                        canonical = vals[slot]
                        hits += 1
                        break
                    if k == empty:
                        break
                    slot = (slot + 1) & mask
            promote = False
            if canonical >= 0 and canonical != ppn:
                # _dedup_merge with the victim-page invalidation elided.
                if ref[ppn] == 1:
                    lpn = solo[ppn]
                    solo[ppn] = -1
                    ref[ppn] = 0
                    fwd[lpn] = canonical
                    rc = ref[canonical]
                    if rc == 0:
                        solo[canonical] = lpn
                        rc = 1
                    elif rc == 1:
                        referrers = {solo[canonical], lpn}
                        shared[canonical] = referrers
                        solo[canonical] = -1
                        rc = len(referrers)
                    else:
                        referrers = shared[canonical]
                        referrers.add(lpn)
                        rc = len(referrers)
                    ref[canonical] = rc
                else:
                    remap(ppn, canonical)
                    rc = ref[canonical]
                if rc > peak[canonical]:  # tracker.observe
                    peak[canonical] = rc
                peak[ppn] = 0
                fp_col[ppn] = -1
                skipped += 1
                write = False
                # _maybe_promote, conditions inlined.
                if (
                    rc >= cold_threshold
                    and block_region[canonical // ppb] != cold
                    and region_blocks[cold] < max_cold
                ):
                    # _migrate_page(canonical, COLD) on the streams.
                    # Its invalidation reads the canonical block's
                    # flash state: land a stretch pending there.
                    block = canonical // ppb
                    for r in (hot, cold):
                        if start[r] != nxt[r] and start[r] // ppb == block:
                            streams.land(r)
                    new = nxt[cold]
                    if new == end[cold]:
                        new = streams.pull(cold)
                    nxt[cold] = new + 1
                    stamp[cold] = now_us
                    remap(canonical, new)
                    if rev[canonical] != empty:
                        index.move(canonical, new)
                    moved_fp = fp_col[canonical]
                    if moved_fp >= 0:
                        fp_col[canonical] = -1
                        fp_col[new] = moved_fp
                    moved_peak = peak[canonical]
                    if moved_peak:  # tracker.rekey
                        peak[canonical] = 0
                        if moved_peak > peak[new]:
                            peak[new] = moved_peak
                    invalidate(canonical)
                    promote = True
                    promotions += 1
            else:
                # _migrate_page with the victim-page invalidation elided.
                rc = ref[ppn]
                region = (
                    cold
                    if rc >= cold_threshold and region_blocks[cold] < max_cold
                    else hot
                )
                new = nxt[region]
                if new == end[region]:
                    new = streams.pull(region)
                nxt[region] = new + 1
                stamp[region] = now_us
                if rc == 1 and ref[new] == 0:
                    lpn = solo[ppn]
                    solo[ppn] = -1
                    ref[ppn] = 0
                    fwd[lpn] = new
                    ref[new] = 1
                    solo[new] = lpn
                else:
                    remap(ppn, new)
                if rev[ppn] != empty:
                    if canonical == ppn and rev[new] == empty:
                        rev[ppn] = empty
                        rev[new] = fp
                        vals[slot] = new
                    else:
                        index.move(ppn, new)
                if fp >= 0:
                    fp_col[ppn] = -1
                    fp_col[new] = fp
                moved_peak = peak[ppn]
                if moved_peak:  # tracker.rekey
                    peak[ppn] = 0
                    if moved_peak > peak[new]:
                        peak[new] = moved_peak
                if canonical < 0:
                    # index.insert(fp, new) on the raw table: first copy
                    # of this content, it becomes canonical.
                    if fp < 0 or rev[new] != empty:
                        index.insert(fp, new)  # raises its error
                    if filled >= grow_at:
                        index._used = used
                        index._filled = filled
                        index._maybe_grow()
                        keys = index._keys
                        vals = index._vals
                        mask = index._mask
                        filled = index._filled
                        grow_at = 2 * (mask + 1) // 3
                        home = (fp * gold) & mask
                    slot = home
                    while keys[slot] >= 0:
                        slot = (slot + 1) & mask
                    if keys[slot] == empty:
                        filled += 1
                    keys[slot] = fp
                    vals[slot] = new
                    used += 1
                    rev[new] = fp
                write = True
                migrated += 1
            # pipeline.process_page(write): two separate adds per hash,
            # like the reference (float addition is not associative).
            read_free += read_us
            if single_lane:
                hash_free = (
                    read_free if read_free >= hash_free else hash_free
                ) + hash_us + lookup_us
                hash_done = hash_free
            else:
                lane = min(range(lanes), key=lanes_free.__getitem__)
                lane_free = lanes_free[lane]
                hash_done = (
                    read_free if read_free >= lane_free else lane_free
                ) + hash_us + lookup_us
                lanes_free[lane] = hash_done
            if write:
                write_free = (
                    hash_done if hash_done >= write_free else write_free
                ) + write_us
            if promote:
                # pipeline.extra_copy()
                read_free += read_us
                write_free = (
                    read_free if read_free >= write_free else write_free
                ) + write_us
        looked_up += examined
        streams.land_full()
        # The skipped invalidations left the examined pages VALID; the
        # erase resets their state either way, so only its precondition
        # needs restoring.
        valid_count[victim] = 0
        erase_victim(victim)
        stats["lean"] += 1
        makespan = read_free
        for lane_free in (lanes_free if not single_lane else (hash_free,)):
            if lane_free > makespan:
                makespan = lane_free
        if write_free > makespan:
            makespan = write_free
        duration = makespan + erase_us
        gc.merge_block(
            examined,
            migrated + promotions,
            skipped,
            promotions,
            duration,
            (examined + promotions) * read_us,
            examined * hash_cost,
            (migrated + promotions) * write_us,
            erase_us,
        )
        return duration

    def finish() -> None:
        streams.land_all()
        index.hits += hits
        index.misses += looked_up - hits
        index._used = used
        index._filled = filled

    return collect, finish
