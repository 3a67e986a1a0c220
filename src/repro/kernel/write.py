"""Batch-vectorized user-write kernel.

Applies a whole *run* of bulk-scheme write and trim requests (no GC
trigger in between — the orchestrator guarantees it) to the FTL state
in one pass over raw columns, producing exactly the state a
per-request :meth:`FTLScheme.write_request` /
:meth:`FTLScheme.trim_request` loop would: same mapping columns, same
flash counters, same refcount histogram, same victim-index membership.

The decomposition exploits that within a run every program goes to the
hot region and every page's fate is decided by occurrence order alone:

* **placement** — one ``allocate_run`` per active-block stretch (a thin
  Python loop over blocks, not pages); each block is touched by exactly
  one stretch per run, so stamping it with the service start of the
  request owning the stretch's last page reproduces the reference's
  final ``last_write_us``;
* **pre-run overwrites and trims** — for every distinct LPN written or
  trimmed, the page it mapped to before the run loses that referrer.
  Initially-solo pages (refcount 1 — the overwhelming majority, paper
  Fig 6) die in one vectorized scatter; initially-shared pages (CAGC's
  GC merges) take a short Python loop through the reference
  ``_drop_ref`` / ``_release_if_dead`` path, so a trim only decrefs
  them;
* **in-run rewrites** — every non-final write occurrence of an LPN
  (rewritten or trimmed later in the run) is a page born dead inside
  the run: its bind and drop cancel exactly (net-zero
  refcount/fingerprint/peak), leaving only the flash invalidation and
  one refcount-1 histogram event;
* **final occurrences** — one scatter each for the forward map,
  refcount, solo-referrer, fingerprint and peak columns (an LPN whose
  final occurrence is a trim ends unmapped);
* **victim index** — programs and invalidations apply out of order
  above, so per-event index maintenance is skipped and every touched
  block is reconciled once at the end via
  :meth:`VictimIndex.sync_block` (final membership depends only on the
  block's final fullness and invalid count).
"""

from __future__ import annotations

import numpy as np

from repro.flash.chip import PageState
from repro.ftl.allocator import Region
from repro.kernel.views import ColumnViews
from repro.schemes.base import FTLScheme

_NO_PPN = -1
_FP_ABSENT = -1


def apply_write_run(
    scheme: FTLScheme,
    views: ColumnViews,
    rlpns: np.ndarray,
    rpages: np.ndarray,
    trims: np.ndarray,
    fps: np.ndarray,
    rstarts: np.ndarray,
) -> None:
    """Apply one run of write and trim requests to the scheme's state.

    ``rlpns``/``rpages``/``trims``/``rstarts`` are per-request columns
    in request order (int64 / int64 / bool / float64); a request's page
    count is its ``npages``, which for a write is its fingerprint span.
    ``fps`` is the concatenated fingerprint stream of the writes alone.
    The caller guarantees: bulk scheme, no GC trigger inside the run.
    """
    nreq = len(rlpns)
    mapping = scheme.mapping
    flash = scheme.flash
    allocator = scheme.allocator
    tracker = scheme.tracker
    index = scheme.index
    ppb = flash.pages_per_block

    # Per-LPN bookkeeping hooks (spatial hot/cold write counting): only
    # pay the per-request loop when a scheme actually overrides one.
    cls = type(scheme)
    if (
        cls._note_user_writes is not FTLScheme._note_user_writes
        or cls._note_user_trim is not FTLScheme._note_user_trim
    ):
        note_write = scheme._note_user_writes
        note_trim = scheme._note_user_trim
        for lpn, npages, trim in zip(
            rlpns.tolist(), rpages.tolist(), trims.tolist()
        ):
            (note_trim if trim else note_write)(lpn, npages)

    P = len(fps)
    ntrim = int(np.count_nonzero(trims))
    io = scheme.io_counters
    io.write_requests += nreq - ntrim
    io.trim_requests += ntrim
    io.logical_pages_written += P
    io.user_pages_programmed += P

    # ---- flat page stream (writes and trims in request order) ------------
    ends = np.cumsum(rpages)
    Q = int(ends[-1]) if nreq else 0
    if Q == 0:
        return
    req_of_page = np.repeat(np.arange(nreq, dtype=np.int64), rpages)
    within = np.arange(Q, dtype=np.int64) - np.repeat(ends - rpages, rpages)
    lpn_p = np.repeat(rlpns, rpages) + within
    wsel = None  # write pages of the stream (None: all of them)
    if ntrim:
        wsel = ~trims[req_of_page]

    # ---- placement: one allocate_run call per block stretch --------------
    page_now = rstarts[req_of_page if wsel is None else req_of_page[wsel]]
    ppn_w = np.empty(P, dtype=np.int64)
    pos = 0
    hot = Region.HOT
    active = allocator._active
    active_free = allocator._active_free
    touched_blocks = set()
    while pos < P:
        af = active_free[hot] if active[hot] is not None else ppb
        take = af if af < P - pos else P - pos
        # The reference stamps a block once per request touching it; the
        # final stamp is the service start of the last such request.
        stamp = float(page_now[pos + take - 1])
        base, count = allocator.allocate_run(hot, P - pos, stamp)
        assert count == take, "allocate_run cap drifted from prediction"
        ppn_w[pos : pos + count] = np.arange(base, base + count, dtype=np.int64)
        touched_blocks.add(base // ppb)
        pos += count
    if wsel is None:
        ppn_p = ppn_w
        fp_p = fps
    else:
        # Trim pages carry no physical page: they unmap.
        ppn_p = np.full(lpn_p.size, _NO_PPN, dtype=np.int64)
        ppn_p[wsel] = ppn_w
        fp_p = np.zeros(lpn_p.size, dtype=np.int64)
        fp_p[wsel] = fps

    # ---- occurrence analysis --------------------------------------------
    uniq, first_pos = np.unique(lpn_p, return_index=True)
    if uniq.size == lpn_p.size:
        # No LPN touched twice in the run (the common case): every
        # written page survives, nothing is born dead.
        last_pos = first_pos
        born_dead = ppn_w[:0]
    else:
        _, rev_pos = np.unique(lpn_p[::-1], return_index=True)
        last_pos = lpn_p.size - 1 - rev_pos  # aligned with uniq (sorted)
        dead_mask = (
            np.ones(lpn_p.size, dtype=bool) if wsel is None else wsel.copy()
        )
        dead_mask[last_pos] = False
        born_dead = ppn_p[dead_mask]
    # Final occurrence per LPN: a write maps it, a trim leaves it unmapped.
    final_ppns = ppn_p[last_pos]
    live_lpns = uniq
    live_ppns = final_ppns
    live_pos = last_pos
    if wsel is not None:
        live = final_ppns >= 0
        live_lpns = uniq[live]
        live_ppns = final_ppns[live]
        live_pos = last_pos[live]

    ref_view = views.ref
    solo_view = views.solo
    fp_view = views.fp
    peak_view = views.peak
    fwd_view = views.fwd

    # Previous mapping of each distinct LPN (gathered before any drop
    # mutates the reverse columns).  Overwrites and trims alike take a
    # referrer away from it.
    old0 = fwd_view[uniq]
    mapped_sel = old0 >= 0
    prev_ppns = old0[mapped_sel]
    refs0 = ref_view[prev_ppns]
    shared_sel = refs0 >= 2

    # ---- initially-shared pages: reference path --------------------------
    if shared_sel.any():
        drop = mapping._drop_ref
        release = scheme._release_if_dead
        for lpn, ppn in zip(
            uniq[mapped_sel][shared_sel].tolist(), prev_ppns[shared_sel].tolist()
        ):
            drop(ppn, lpn)
            release(ppn)

    # ---- vectorized effects ----------------------------------------------
    # Initially-solo pages die wholesale (distinct PPNs: a refcount-1
    # page has exactly one referrer).
    dying = prev_ppns[~shared_sel]
    hist = tracker.histogram
    inval = born_dead
    if dying.size:
        ref_view[dying] = 0
        solo_view[dying] = -1
        _bucket_invalidations(hist, np.maximum(peak_view[dying], 1))
        peak_view[dying] = 0
        fp_view[dying] = _FP_ABSENT
        index.remove_many(dying)
        flash.page_state[dying] = PageState.INVALID
        inval = np.concatenate([born_dead, dying])

    # In-run born-dead pages (rewritten or trimmed later in the run):
    # bind and drop cancel; only the flash invalidation and the
    # refcount-1 histogram event remain.
    if born_dead.size:
        _bucket_invalidations(hist, np.maximum(peak_view[born_dead], 1))
        peak_view[born_dead] = 0
        index.remove_many(born_dead)
        flash.page_state[born_dead] = PageState.INVALID

    # Per-block valid/invalid counter deltas in one bincount.
    if inval.size:
        inval_blocks = inval // ppb
        delta = np.bincount(inval_blocks, minlength=flash.blocks).astype(np.int32)
        flash.valid_count -= delta
        flash.invalid_count += delta
        touched_blocks.update(inval_blocks.tolist())

    # Final occurrences: one scatter per column.
    fwd_view[uniq] = final_ppns
    ref_view[live_ppns] = 1
    solo_view[live_ppns] = live_lpns
    fp_view[live_ppns] = fp_p[live_pos]
    peak_view[live_ppns] = np.maximum(peak_view[live_ppns], 1)
    mapping._len += int(live_ppns.size) - int(prev_ppns.size)

    # ---- victim-index reconciliation -------------------------------------
    sync = scheme.victim_index.sync_block
    tb = np.fromiter(touched_blocks, dtype=np.int64, count=len(touched_blocks))
    inv = flash.invalid_count[tb]
    full = flash.write_ptr[tb] == ppb
    for block, invalid, is_full in zip(tb.tolist(), inv.tolist(), full.tolist()):
        sync(block, invalid, is_full)


def _bucket_invalidations(hist, peaks: np.ndarray) -> None:
    """Fold a batch of lifetime peaks into the Fig 6 histogram."""
    hist.ref1 += int(np.count_nonzero(peaks <= 1))
    hist.ref2 += int(np.count_nonzero(peaks == 2))
    hist.ref3 += int(np.count_nonzero(peaks == 3))
    hist.ref_gt3 += int(np.count_nonzero(peaks > 3))
