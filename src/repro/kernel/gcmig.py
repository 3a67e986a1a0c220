"""Vectorized GC-migration kernel (plain-copy victim collection).

The baseline and inline-dedupe schemes collect a victim with the base
:meth:`collect_block` copy loop: every valid page moves to the victim's
own region, carrying its mapping, fingerprint and peak history along —
no dedup lookups, no promotions, no mid-pass state feedback.  That
makes the whole pass one mask-classification plus a handful of
scatters:

* gather the victim's valid PPNs and classify them in one pass (a
  baseline victim is all solo-referenced and non-canonical; for
  inline-dedupe shared and canonical pages are expected and handled);
* allocate destination pages in ``allocate_run`` stretches (same PPN
  order as the reference's per-page ``allocate_page`` calls);
* remap/move fingerprints/rekey peaks with one scatter per column
  (shared referrer sets transfer wholesale; canonical index entries
  move in-place in victim order);
* skip the per-page invalidation of the victim: the erase immediately
  after resets the same page states, so only ``valid_count`` needs
  zeroing first (the victim's index membership ends the same way — the
  erase hook removes it).

CAGC's collection lives in :mod:`repro.kernel.cagcmig` (its mid-pass
index inserts, promotions and cold-capacity feedback keep it a scalar
walk, not plain scatters).  Per-victim path counts land in
``scheme.kernel_gc_stats`` for the attribution report.
"""

from __future__ import annotations

import numpy as np

from repro.ftl.allocator import Region
from repro.kernel.views import ColumnViews
from repro.schemes.base import FTLScheme, GCBlockOutcome
from repro.schemes.baseline import BaselineScheme
from repro.schemes.inline_dedupe import InlineDedupeScheme

_FP_ABSENT = -1
_IDX_EMPTY = -1

#: ``scheme.kernel_gc_stats`` keys: collection passes per path.
GC_STAT_KEYS = ("batched",)


def install_fast_gc(scheme: FTLScheme, views: ColumnViews) -> bool:
    """Swap in the vectorized collect_block for plain-copy schemes.

    The exact baseline and inline-dedupe schemes qualify: subclasses
    may override the migration-region decision (spatial hot/cold) or
    the whole pass (CAGC).  Returns True when installed.
    """
    if type(scheme) not in (BaselineScheme, InlineDedupeScheme):
        return False
    stats = {key: 0 for key in GC_STAT_KEYS}
    scheme.kernel_gc_stats = stats  # type: ignore[attr-defined]

    def collect_block(victim: int, now_us: float) -> GCBlockOutcome:
        stats["batched"] += 1
        return _collect_block_fast(scheme, views, victim, now_us)

    scheme.collect_block = collect_block  # type: ignore[method-assign]
    return True


def _collect_block_fast(
    scheme: FTLScheme, views: ColumnViews, victim: int, now_us: float
) -> GCBlockOutcome:
    """One victim collection as column scatters."""
    valid = scheme.flash.valid_ppns_array(victim)
    n = len(valid)
    if n == 0:
        _finish_erase(scheme, victim, 0)
        return scheme._plain_copy_done(victim, 0, now_us)

    region = scheme.allocator.region_of(victim)
    if region not in (Region.HOT, Region.COLD):
        region = Region.HOT

    # Destination placement: same page order as per-page allocate_page,
    # every page stamped with the same now_us.
    allocator = scheme.allocator
    new_ppns = np.empty(n, dtype=np.int64)
    pos = 0
    while pos < n:
        base, count = allocator.allocate_run(region, n - pos, now_us)
        new_ppns[pos : pos + count] = np.arange(base, base + count, dtype=np.int64)
        pos += count

    # Remap: destinations are fresh, so each source page's referrers
    # transfer wholesale (solo pages as column scatters, shared pages
    # by handing the referrer set to the new PPN).  All-solo victims
    # (every baseline victim) scatter unmasked.
    ref_view = views.ref
    solo_view = views.solo
    fwd_view = views.fwd
    solo_sel = ref_view[valid] == 1
    all_solo = bool(solo_sel.all())
    solo_old = valid if all_solo else valid[solo_sel]
    solo_new = new_ppns if all_solo else new_ppns[solo_sel]
    lpns = solo_view[solo_old].copy()
    fwd_view[lpns] = solo_new
    solo_view[solo_old] = -1
    ref_view[solo_old] = 0
    ref_view[solo_new] = 1
    solo_view[solo_new] = lpns
    if not all_solo:
        shared = scheme.mapping._shared
        for old, new in zip(
            valid[~solo_sel].tolist(), new_ppns[~solo_sel].tolist()
        ):
            referrers = shared.pop(old)
            for moved_lpn in referrers:
                fwd_view[moved_lpn] = new
            shared[new] = referrers
            ref_view[new] = len(referrers)
            ref_view[old] = 0
    # Canonical index entries move in-place (victim order, exactly the
    # reference's per-page ``index.move`` calls).  An empty dedup index
    # (always, in baseline) means no page anywhere is canonical: an O(1)
    # check that skips the reverse-column gather.
    if len(scheme.index) != 0:
        canon_sel = views.rev[valid] != _IDX_EMPTY
        if bool(canon_sel.any()):
            move = scheme.index.move
            for old, new in zip(
                valid[canon_sel].tolist(), new_ppns[canon_sel].tolist()
            ):
                move(old, new)

    # Fingerprints follow the pages; peaks rekey onto the new PPNs.
    fp_view = views.fp
    moved_fps = fp_view[valid].copy()
    fp_view[valid] = _FP_ABSENT
    if bool((moved_fps == _FP_ABSENT).any()):
        present = moved_fps != _FP_ABSENT
        fp_view[new_ppns[present]] = moved_fps[present]
    else:
        fp_view[new_ppns] = moved_fps
    peak_view = views.peak
    peaks = peak_view[valid].copy()
    peak_view[valid] = 0
    peak_view[new_ppns] = peaks

    _finish_erase(scheme, victim, n)
    return scheme._plain_copy_done(victim, n, now_us)


def _finish_erase(scheme: FTLScheme, victim: int, migrated: int) -> None:
    """Erase the victim without per-page invalidation round-trips.

    The reference invalidates each migrated page and then erases; the
    erase resets the very page states the invalidations set, so only
    the valid counter (the erase precondition) needs zeroing.  The
    victim's index membership ends identically: the erase hook removes
    it whether or not the interim invalidations bumped its bucket.
    """
    if migrated:
        scheme.flash.valid_count[victim] = 0
    scheme._erase_victim(victim)
