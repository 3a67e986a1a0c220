"""Batch-vectorized inline-dedupe write kernel.

The inline-dedupe scheme hashes every incoming page and looks it up in
the fingerprint index *before* programming — each page's fate (dedup
hit vs fresh program) depends on every page before it, so the bulk
write kernel's "every page programs" decomposition does not apply.
What still factors out of the per-request reference chain:

* **plan** (:func:`plan_inline_run`) — resolve the whole run's dedup
  outcomes against a read-only view of the current state: one
  vectorized :meth:`~repro.dedup.index.FingerprintIndex.peek_many`
  over the run's fingerprint stream plus one tight Python loop over
  plain ints and dicts (no index/mapping/flash mutations, no NumPy
  scalar boxing) — the run step's only per-page Python pass.  The loop
  carries exactly the state the reference carries implicitly: the
  current canonical page per fingerprint, per-page refcounts, the
  forward-map overlay, and which pages died.  Its overlays start empty
  and read through to the forward map, the refcount column and the
  index's reverse column, which the plan never writes, so it builds no
  per-window state up front.  Trims ride in the same loop in request
  order: a trimmed LPN unmaps in the overlay and its page loses one
  referrer, dying (and leaving the canonical map) at zero like any
  rebound-away page.  Because flash programs happen only on dedup
  misses, the GC watermark check is a running miss-count comparison,
  fused into the same loop — the plan stops at the first write request
  whose check would fire, and its arrays cover that resolved prefix;
* **timing** — per-request service durations follow from the plan's
  per-request program counts; the orchestrator runs the shared
  completion recurrence and batch latency fold;
* **apply** (:func:`apply_inline_run`) — net-final state application
  as array ops: programs land in ``allocate_run`` stretches,
  deaths/births scatter into the refcount/fingerprint/peak columns, the
  forward map takes one scatter, and every touched block reconciles
  through ``VictimIndex.sync_block``.  The fingerprint index changes
  once per net canonical change, removals before inserts, through
  ``remove_many`` / ``insert_many`` — table layout identical to per-item
  ``remove_ppn`` / ``insert`` calls in the same order.  Intermediate
  states the reference walks through (a page shared then solo then dead
  within one run) collapse to their final values, so the index *table
  layout* can still differ from the reference's (tombstone churn),
  which no query or invariant observes.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.flash.chip import PageState
from repro.ftl.allocator import Region
from repro.kernel.views import ColumnViews
from repro.kernel.write import _bucket_invalidations
from repro.schemes.base import FTLScheme

_NO_PPN = -1
_FP_ABSENT = -1
_IDX_EMPTY = -1


class InlinePlan:
    """Resolved dedup fate of one run (no scheme state touched yet).

    Handles are integers: a value below ``nb`` (the physical page
    count) is a live pre-run page; ``nb + k`` is the page born by the
    run's ``k``-th dedup miss.  The plan's overlays hold in-run changes
    only and read through to the mapping and index columns for the rest.
    ``uniq`` / ``old0`` / ``final`` cover just the resolved prefix: the
    LPNs the run rebound or unmapped (ascending), with their pre-run and
    final handles.  Applying the plan updates the index in bulk with the
    table layout per-item calls would leave.
    """

    __slots__ = (
        "nb", "programs", "hits", "misses", "uniq", "old0", "final", "obs",
        "miss_fp", "dead_real", "dead_new",
    )

    def __init__(self, nb: int, nreq: int) -> None:
        self.nb = nb
        self.programs = np.zeros(nreq, dtype=np.int64)
        self.hits = 0
        self.misses = 0
        self.uniq = np.empty(0, dtype=np.int64)
        self.old0 = self.uniq
        self.final = self.uniq
        #: handle -> max refcount observed in-run (tracker.observe); a
        #: page born in-run that no later write hit peaked at 1.
        self.obs: Dict[int, int] = {}
        self.miss_fp: List[int] = []
        self.dead_real: List[int] = []
        self.dead_new: List[int] = []


def plan_inline_run(
    scheme: FTLScheme,
    views: ColumnViews,
    rlpns: np.ndarray,
    rpages: np.ndarray,
    trims: np.ndarray,
    fps: np.ndarray,
    af0: int,
    budget: int,
    ppb: int,
):
    """Resolve a window of inline-dedupe write and trim requests read-only.

    ``rlpns``/``rpages``/``trims`` are the window's per-request columns
    in request order (a trim's page count is its extent); ``fps`` is
    the concatenated fingerprint stream of the writes alone.  Returns
    ``(j, plan)``: the first ``j`` requests form a run (no GC trigger
    before any of them); request ``j`` — when ``j < len(rlpns)`` — is
    the write whose pre-write watermark check fires and must go through
    the reference slow path.  ``plan.programs[:j]`` gives each resolved
    request's flash program count (its dedup misses; 0 for a trim),
    which fully determines a write's service time.
    """
    nreq = len(rlpns)
    plan = InlinePlan(views.ref.size, nreq)
    P_all = int(rpages.sum())

    ends = np.cumsum(rpages)
    within = np.arange(P_all, dtype=np.int64) - np.repeat(ends - rpages, rpages)
    lpn_p = np.repeat(rlpns, rpages) + within

    mapping = scheme.mapping
    index = scheme.index
    canon0 = index.peek_many(fps)
    if not trims.any():
        fps_p = fps
        canon_p = canon0
    else:
        # Page-aligned fingerprint/canonical columns (trim slots unused).
        wsel = ~np.repeat(trims, rpages)
        fps_p = np.zeros(P_all, dtype=np.int64)
        fps_p[wsel] = fps
        canon_p = np.full(P_all, _NO_PPN, dtype=np.int64)
        canon_p[wsel] = canon0

    # Pre-run state is read straight from the columns, which the plan
    # never writes: forward map, refcounts, and the index's reverse
    # (ppn -> fp) column.
    fwd = mapping._fwd
    ref = mapping._ref
    rev = index._ppn_fp
    nb = plan.nb
    overlay: Dict[int, int] = {}  # lpn -> handle, in-run rebinds only
    rc: Dict[int, int] = {}  # handle -> refcount, in-run changes only
    obs = plan.obs
    canon: Dict[int, int] = {}  # in-run overrides of the canonical map
    canon_get = canon.get
    overlay_get = overlay.get
    miss_fp = plan.miss_fp
    dead_real = plan.dead_real
    dead_new = plan.dead_new
    programs = plan.programs
    # GC check before each write request: misses-so-far m pulls
    # ceil((m - af0) / ppb) blocks; the check fires when pulls exceed
    # the free-block budget — integer-exact as m > af0 + budget*ppb
    # (budget < 0 means the device is already below the watermark).
    limit = af0 + budget * ppb if budget >= 0 else -1
    hits = 0
    wn_l = rpages.tolist()
    trim_l = trims.tolist()
    fpl = fps_p.tolist()
    c0l = canon_p.tolist()
    lpnl = lpn_p.tolist()
    k = 0
    j = 0
    while j < nreq:
        trim = trim_l[j]
        if not trim and len(miss_fp) > limit:
            break  # request j's pre-write GC check fires
        m0 = len(miss_fp)
        for _ in range(wn_l[j]):
            lpn = lpnl[k]
            if trim:  # unmap: the old page just loses a referrer
                k += 1
                old = overlay_get(lpn)
                if old is None:
                    old = fwd[lpn]
                if old < 0:
                    continue
                overlay[lpn] = _NO_PPN
            else:
                fp = fpl[k]
                cur = canon_get(fp)
                if cur is None:
                    cur = c0l[k]
                k += 1
                old = overlay_get(lpn)
                if old is None:
                    old = fwd[lpn]
                if cur >= 0:  # dedup hit: rebind lpn to the canonical page
                    hits += 1
                    r = rc.get(cur)
                    if r is None:
                        r = ref[cur]
                    if old != cur:
                        r += 1
                        rc[cur] = r
                        overlay[lpn] = cur
                    # else drop + re-add: refcount unchanged
                    if r > obs.get(cur, 0):
                        obs[cur] = r
                    if old == cur:
                        continue
                else:  # miss: program a fresh page, insert as canonical
                    h = nb + len(miss_fp)
                    canon[fp] = h
                    miss_fp.append(fp)
                    rc[h] = 1
                    overlay[lpn] = h
                    if old < 0:
                        continue
            if old >= 0:
                ro = rc.get(old)
                ro = (ref[old] if ro is None else ro) - 1
                rc[old] = ro
                if ro == 0:
                    # The page died mid-run: if it was canonical its
                    # fingerprint loses its index entry right now, so
                    # a later write of that content must miss.
                    if old >= nb:
                        dead_new.append(old - nb)
                        canon[miss_fp[old - nb]] = -1
                    else:
                        dead_real.append(old)
                        f = rev[old]
                        if f != _IDX_EMPTY:
                            canon[f] = -1
        programs[j] = len(miss_fp) - m0
        j += 1

    plan.hits = hits
    plan.misses = len(miss_fp)
    if overlay:
        n = len(overlay)
        lpns = np.fromiter(overlay, dtype=np.int64, count=n)
        order = np.argsort(lpns)
        plan.uniq = lpns[order]
        plan.final = np.fromiter(overlay.values(), dtype=np.int64, count=n)[order]
        plan.old0 = views.fwd[plan.uniq]
    return j, plan


def inline_write_durations(
    timing, channels: int, programs: np.ndarray, wpages: np.ndarray
) -> np.ndarray:
    """Service durations of resolved inline-dedupe writes.

    Elementwise :meth:`SSD._service` for a write with ``programs``
    dedup misses out of ``wpages`` hashed pages: the striped program
    time, plus the serial hash/lookup cost as one term (the same float
    association as ``write_request_us(...) + inline_dedup_us(...)``),
    plus one extra lookup for a fully deduplicated write.
    """
    base = np.where(
        programs > 0,
        timing.overhead_us
        + ((programs + (channels - 1)) // channels) * timing.write_us,
        timing.overhead_us,
    )
    lanes = timing.hash_lanes
    dedup = ((wpages + (lanes - 1)) // lanes) * timing.hash_us + (
        wpages * timing.lookup_us
    )
    return base + dedup + np.where(programs == 0, timing.lookup_us, 0.0)


def apply_inline_run(
    scheme: FTLScheme,
    views: ColumnViews,
    rlpns: np.ndarray,
    rpages: np.ndarray,
    trims: np.ndarray,
    fps: np.ndarray,
    rstarts: np.ndarray,
    plan: InlinePlan,
) -> None:
    """Apply one resolved run to the scheme's state (net-final).

    Arguments are the run's per-request columns cut to the ``j``
    requests :func:`plan_inline_run` resolved, plus each request's
    service start time (programs stamp their block's ``last_write_us``
    with the owning request's start, exactly like the reference's
    per-page ``allocate_page`` calls).  An LPN whose last touch in the
    run is a trim ends unmapped.
    """
    nreq = len(rlpns)
    ntrim = int(np.count_nonzero(trims))
    P = len(fps)
    mapping = scheme.mapping
    flash = scheme.flash
    allocator = scheme.allocator
    index = scheme.index
    ppb = flash.pages_per_block

    io = scheme.io_counters
    io.write_requests += nreq - ntrim
    io.trim_requests += ntrim
    io.logical_pages_written += P
    io.user_pages_programmed += plan.misses
    io.inline_dedup_hits += plan.hits
    index.hits += plan.hits
    index.misses += plan.misses

    nb = plan.nb
    M = plan.misses
    uniq = plan.uniq
    old0 = plan.old0
    final_h = plan.final
    ref_view = views.ref
    solo_view = views.solo
    fp_view = views.fp
    peak_view = views.peak
    hist = scheme.tracker.histogram
    shared = mapping._shared

    # Peaks raised by in-run observations: pre-run pages fold theirs in
    # now (a page that died reads its raised peak into the histogram
    # below); pages born in-run start from 1.
    miss_peak = np.ones(M, dtype=np.int64)
    if plan.obs:
        n = len(plan.obs)
        op = np.fromiter(plan.obs, dtype=np.int64, count=n)
        ov = np.fromiter(plan.obs.values(), dtype=np.int64, count=n)
        new = op >= nb
        miss_peak[op[new] - nb] = ov[new]
        op = op[~new]
        peak_view[op] = np.maximum(peak_view[op], ov[~new])
    if not uniq.size:
        return

    # ---- placement: misses program in allocate_run stretches -------------
    new_ppns = np.empty(M, dtype=np.int64)
    touched_blocks = set()
    if M:
        page_now = np.repeat(rstarts, plan.programs[:nreq])
        hot = Region.HOT
        active = allocator._active
        active_free = allocator._active_free
        pos = 0
        while pos < M:
            af = active_free[hot] if active[hot] is not None else ppb
            take = af if af < M - pos else M - pos
            stamp = float(page_now[pos + take - 1])
            base, count = allocator.allocate_run(hot, M - pos, stamp)
            assert count == take, "allocate_run cap drifted from prediction"
            new_ppns[pos : pos + count] = np.arange(
                base, base + count, dtype=np.int64
            )
            touched_blocks.add(base // ppb)
            pos += count

    # ---- deaths ----------------------------------------------------------
    # Pre-run pages whose last referrer rebound away or was trimmed.
    inval = new_ppns[:0]
    if plan.dead_real:
        dead_real = np.asarray(plan.dead_real, dtype=np.int64)
        _bucket_invalidations(hist, np.maximum(peak_view[dead_real], 1))
        for p in dead_real[ref_view[dead_real] >= 2].tolist():
            del shared[p]
        ref_view[dead_real] = 0
        solo_view[dead_real] = -1
        peak_view[dead_real] = 0
        fp_view[dead_real] = _FP_ABSENT
        index.remove_many(dead_real)  # no-op for non-canonical pages
        flash.page_state[dead_real] = PageState.INVALID
        inval = dead_real

    # Pages born and dead inside the run: programmed, then every
    # referrer rebound away or trimmed.  Their fingerprint/peak/refcount
    # columns were never written, so only the flash invalidation and the
    # histogram event (peak = max refcount the page ever reached) land.
    alive = np.ones(M, dtype=bool)
    if plan.dead_new:
        dn_idx = np.asarray(plan.dead_new, dtype=np.int64)
        alive[dn_idx] = False
        dn = new_ppns[dn_idx]
        _bucket_invalidations(hist, miss_peak[dn_idx])
        flash.page_state[dn] = PageState.INVALID
        inval = np.concatenate([inval, dn])

    if inval.size:
        inval_blocks = inval // ppb
        delta = np.bincount(inval_blocks, minlength=flash.blocks).astype(np.int32)
        flash.valid_count -= delta
        flash.invalid_count += delta
        touched_blocks.update(inval_blocks.tolist())

    # ---- final mapping and referrer structure ----------------------------
    final_p = final_h.copy()
    born = final_h >= nb
    final_p[born] = new_ppns[final_h[born] - nb]

    # Surviving new pages: group their referrers by handle.  Almost all
    # have exactly one (the missing write's own LPN) — one scatter;
    # pages other LPNs dedup-hit in-run take the set path.
    if M:
        h_new = final_h[born] - nb
        l_new = uniq[born]
        order = np.argsort(h_new, kind="stable")
        h_sorted = h_new[order]
        l_sorted = l_new[order]
        uh, uh_start, uh_counts = np.unique(
            h_sorted, return_index=True, return_counts=True
        )
        single = uh_counts == 1
        if single.any():
            sp = new_ppns[uh[single]]
            ref_view[sp] = 1
            solo_view[sp] = l_sorted[uh_start[single]]
        if not single.all():
            for hh, st, ct in zip(
                uh[~single].tolist(),
                uh_start[~single].tolist(),
                uh_counts[~single].tolist(),
            ):
                ppn = int(new_ppns[hh])
                shared[ppn] = set(l_sorted[st : st + ct].tolist())
                ref_view[ppn] = ct
        live_idx = np.flatnonzero(alive)
        live_p = new_ppns[live_idx]
        live_fp = np.asarray(plan.miss_fp, dtype=np.int64)[live_idx]
        fp_view[live_p] = live_fp
        peak_view[live_p] = miss_peak[live_idx]

    # Surviving pre-run pages whose referrer set changed (dead ones were
    # zeroed above): each loses its net removed LPNs and gains its net
    # added ones (intermediate churn cancels), so its final refcount is
    # the pre-run one minus removals plus additions.  Only the referrer
    # sets themselves are Python objects to update page by page.
    moved = final_h != old0
    rem_sel = moved & (old0 >= 0)
    rem_sel[rem_sel] = ref_view[old0[rem_sel]] > 0
    add_sel = moved & (final_h >= 0) & ~born
    tp = np.concatenate([old0[rem_sel], final_p[add_sel]])
    if tp.size:
        order = np.argsort(tp, kind="stable")  # per page: removals first
        tp = tp[order]
        lpns = np.concatenate([uniq[rem_sel], uniq[add_sel]])[order].tolist()
        pages, start, count = np.unique(tp, return_index=True, return_counts=True)
        adds = np.add.reduceat(order >= tp.size - int(add_sel.sum()), start)
        r0 = ref_view[pages].astype(np.int64)
        r1 = r0 - (count - adds) + adds
        split = start + count - adds
        solo0 = solo_view[pages].tolist()
        for p, a, m, b, was, now, solo in zip(
            pages.tolist(), start.tolist(), split.tolist(),
            (start + count).tolist(), r0.tolist(), r1.tolist(), solo0,
        ):
            refs = shared[p] if was >= 2 else {solo}
            if m > a:
                refs.difference_update(lpns[a:m])
            if b > m:
                refs.update(lpns[m:b])
            if now == 1:
                solo_view[p] = next(iter(refs))
                if was >= 2:
                    del shared[p]
            elif was == 1:
                shared[p] = refs
        solo_view[pages[(r0 == 1) & (r1 >= 2)]] = -1
        ref_view[pages] = r1

    # Forward map: one scatter.
    views.fwd[uniq] = final_p
    mapping._len += int(np.count_nonzero(final_h >= 0)) - int(
        np.count_nonzero(old0 >= 0)
    )

    # New canonicals enter the index after all removals above (a
    # fingerprint whose pre-run canonical died in-run re-keys to the
    # run's replacement page).  Every surviving born page is canonical.
    if M:
        index.insert_many(live_fp, live_p)

    # ---- victim-index reconciliation -------------------------------------
    sync = scheme.victim_index.sync_block
    tb = np.fromiter(touched_blocks, dtype=np.int64, count=len(touched_blocks))
    inv = flash.invalid_count[tb]
    full = flash.write_ptr[tb] == ppb
    for block, invalid, is_full in zip(tb.tolist(), inv.tolist(), full.tolist()):
        sync(block, invalid, is_full)
