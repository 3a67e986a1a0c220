"""Batch-vectorized inline-dedupe write kernel.

The inline-dedupe scheme hashes every incoming page and looks it up in
the fingerprint index *before* programming — each page's fate (dedup
hit vs fresh program) depends on every page before it, so the bulk
write kernel's "every page programs" decomposition does not apply.
What still factors out of the per-request reference chain:

* **plan** (:func:`plan_inline_run`) — resolve the whole run's dedup
  outcomes against a read-only view of the current state: one
  vectorized :func:`~repro.kernel.probe.probe_many` over the run's
  fingerprint stream plus one tight Python loop over plain ints and
  dicts (no index/mapping/flash mutations, no NumPy scalar boxing).
  The loop carries exactly the state the reference carries implicitly:
  the current canonical page per fingerprint, per-page refcounts, the
  forward-map overlay, and which pages died.  Trims ride in the same
  loop in request order: a trimmed LPN unmaps in the overlay and its
  page loses one referrer, dying (and leaving the canonical map) at
  zero like any rebound-away page.  Because flash programs
  happen only on dedup misses, the GC watermark check is a running
  miss-count comparison, fused into the same loop — the plan stops at
  the first write request whose check would fire;
* **timing** — per-request service durations follow from the plan's
  per-request program counts; the orchestrator runs the shared
  completion recurrence and batch latency fold;
* **apply** (:func:`apply_inline_run`) — net-final state application:
  programs land in ``allocate_run`` stretches, deaths/births scatter
  into the refcount/fingerprint/peak columns, the fingerprint index is
  updated once per net canonical change (removals before inserts), and
  every touched block reconciles through ``VictimIndex.sync_block``.
  Intermediate states the reference walks through (a page shared then
  solo then dead within one run) collapse to their final values — the
  index *table layout* can differ from the reference's (tombstone
  churn), which no query or invariant observes.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.flash.chip import PageState
from repro.ftl.allocator import Region
from repro.kernel.probe import probe_many
from repro.kernel.views import ColumnViews
from repro.kernel.write import _bucket_invalidations
from repro.schemes.base import FTLScheme

_NO_PPN = -1
_FP_ABSENT = -1
_FP_NEGATIVE = -2
_IDX_EMPTY = -1


class InlinePlan:
    """Resolved dedup fate of one run (no scheme state touched yet).

    Handles are integers: a value below ``nb`` (the physical page
    count) is a live pre-run page; ``nb + k`` is the page born by the
    run's ``k``-th dedup miss.
    """

    __slots__ = (
        "nb", "programs", "hits", "misses", "uniq", "old0", "overlay",
        "rc", "obs", "miss_fp", "miss_req", "dead_real", "dead_new",
    )

    def __init__(self, nb: int, nreq: int) -> None:
        self.nb = nb
        self.programs = np.zeros(nreq, dtype=np.int64)
        self.hits = 0
        self.misses = 0
        self.uniq = np.empty(0, dtype=np.int64)
        self.old0 = np.empty(0, dtype=np.int64)
        #: lpn -> current handle (initialized to the pre-run mapping).
        self.overlay: Dict[int, int] = {}
        #: handle -> current refcount (every handle the run touched).
        self.rc: Dict[int, int] = {}
        #: handle -> max refcount observed in-run (tracker.observe calls).
        self.obs: Dict[int, int] = {}
        self.miss_fp: List[int] = []
        self.miss_req: List[int] = []
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

    # Pre-grow the forward map before the gather (and before apply's
    # transient scatter view): array.array cannot extend while exported.
    # Only writes grow it; trims of LPNs beyond it are no-ops.
    mapping = scheme.mapping
    wsel = None  # write pages of the stream (None: all of them)
    if trims.any():
        wsel = ~np.repeat(trims, rpages)
    if fps.size:
        max_lpn = int((lpn_p if wsel is None else lpn_p[wsel]).max())
        if max_lpn >= len(mapping._fwd):
            mapping._grow_lpn(max_lpn)

    canon0 = probe_many(scheme.index, fps)
    in_map = None  # stream pages whose LPN the forward map covers
    if wsel is None:
        fps_p = fps
        canon_p = canon0
        uniq = np.unique(lpn_p)
    else:
        # Page-aligned fingerprint/canonical columns (trim slots unused).
        fps_p = np.zeros(P_all, dtype=np.int64)
        fps_p[wsel] = fps
        canon_p = np.full(P_all, _NO_PPN, dtype=np.int64)
        canon_p[wsel] = canon0
        in_map = lpn_p < len(mapping._fwd)
        uniq = np.unique(lpn_p[in_map])
    fwd_view = views.fwd()
    old0 = fwd_view[uniq]
    del fwd_view
    # Refcounts/reverse entries for every real page the loop can touch:
    # pre-run mapping targets (they lose referrers) and pre-run
    # canonicals (they gain them, and can lose them to later rebinds).
    cands = np.unique(np.concatenate([old0[old0 >= 0], canon0[canon0 >= 0]]))
    cands_l = cands.tolist()
    rc = dict(zip(cands_l, views.ref[cands].tolist()))
    fpof = dict(zip(cands_l, views.rev[cands].tolist()))
    overlay = dict(zip(uniq.tolist(), old0.tolist()))

    nb = plan.nb
    obs = plan.obs
    canon: Dict[int, int] = {}  # in-run overrides of the canonical map
    miss_fp = plan.miss_fp
    miss_req = plan.miss_req
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
                old = overlay.get(lpn, _NO_PPN)  # absent: beyond the map
                if old < 0:
                    continue
                overlay[lpn] = _NO_PPN
            else:
                fp = fpl[k]
                cur = canon[fp] if fp in canon else c0l[k]
                old = overlay[lpn]
                k += 1
                if cur >= 0:  # dedup hit: rebind lpn to the canonical page
                    hits += 1
                    if old == cur:
                        r = rc[cur]  # drop + re-add: refcount unchanged
                        if r > obs.get(cur, 0):
                            obs[cur] = r
                        continue
                    r = rc[cur] + 1
                    rc[cur] = r
                    if r > obs.get(cur, 0):
                        obs[cur] = r
                    overlay[lpn] = cur
                else:  # miss: program a fresh page, insert as canonical
                    h = nb + len(miss_fp)
                    canon[fp] = h
                    miss_fp.append(fp)
                    miss_req.append(j)
                    rc[h] = 1
                    obs[h] = 1
                    overlay[lpn] = h
                    if old < 0:
                        continue
            if old >= 0:
                ro = rc[old] - 1
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
                        f = fpof[old]
                        if f != _IDX_EMPTY:
                            canon[f] = -1
        programs[j] = len(miss_fp) - m0
        j += 1

    plan.hits = hits
    plan.misses = len(miss_fp)
    plan.rc = rc
    plan.overlay = overlay
    if k < P_all:  # stopped early: restrict to the pages actually resolved
        uniq_r = np.unique(lpn_p[:k] if in_map is None else lpn_p[:k][in_map[:k]])
        old0 = old0[np.searchsorted(uniq, uniq_r)]
        uniq = uniq_r
    plan.uniq = uniq
    plan.old0 = old0
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
    if not plan.uniq.size:
        return

    nb = plan.nb
    overlay = plan.overlay
    rc = plan.rc
    obs = plan.obs
    uniq = plan.uniq
    old0 = plan.old0

    # ---- placement: misses program in allocate_run stretches -------------
    M = plan.misses
    new_ppns = np.empty(M, dtype=np.int64)
    touched_blocks = set()
    if M:
        miss_req = np.asarray(plan.miss_req, dtype=np.int64)
        page_now = rstarts[miss_req]
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

    ref_view = views.ref
    solo_view = views.solo
    fp_view = views.fp
    peak_view = views.peak
    hist = scheme.tracker.histogram
    shared = mapping._shared

    # ---- deaths ----------------------------------------------------------
    # Pre-run pages whose last referrer rebound away or was trimmed:
    # peak at death is the stored pre-run peak raised by any in-run
    # observations.
    dead_real = np.asarray(plan.dead_real, dtype=np.int64)
    dead_set = set(plan.dead_real)
    inval = new_ppns[:0]
    if dead_real.size:
        obs_d = np.fromiter(
            (obs.get(p, 0) for p in plan.dead_real),
            dtype=np.int64, count=dead_real.size,
        )
        _bucket_invalidations(
            hist, np.maximum(np.maximum(peak_view[dead_real], obs_d), 1)
        )
        ref_view[dead_real] = 0
        solo_view[dead_real] = -1
        peak_view[dead_real] = 0
        if shared:
            for p in plan.dead_real:
                shared.pop(p, None)
        negative = scheme.page_fp._negative
        if negative:  # hand-built negative fps: exact spill handling
            fpd = fp_view[dead_real]
            for ppn in dead_real[fpd == _FP_NEGATIVE].tolist():
                negative.pop(ppn, None)
        fp_view[dead_real] = _FP_ABSENT
        for p in plan.dead_real:  # no-op for non-canonical pages
            index.remove_ppn(p)
        flash.page_state[dead_real] = PageState.INVALID
        inval = dead_real

    # Pages born and dead inside the run: programmed, then every
    # referrer rebound away or trimmed.  Their fingerprint/peak/refcount columns
    # were never written, so only the flash invalidation and the
    # histogram event (peak = max refcount the page ever reached) land.
    alive = np.ones(M, dtype=bool)
    if plan.dead_new:
        dn_idx = np.asarray(plan.dead_new, dtype=np.int64)
        alive[dn_idx] = False
        dn = new_ppns[dn_idx]
        obs_dn = np.fromiter(
            (obs[nb + k] for k in plan.dead_new),
            dtype=np.int64, count=dn_idx.size,
        )
        _bucket_invalidations(hist, obs_dn)
        flash.page_state[dn] = PageState.INVALID
        inval = np.concatenate([inval, dn])

    if inval.size:
        inval_blocks = inval // ppb
        delta = np.bincount(inval_blocks, minlength=flash.blocks).astype(np.int32)
        flash.valid_count -= delta
        flash.invalid_count += delta
        touched_blocks.update(inval_blocks.tolist())

    # ---- final mapping and referrer structure ----------------------------
    final_h = np.fromiter(
        (overlay[l] for l in uniq.tolist()), dtype=np.int64, count=uniq.size
    )
    final_p = final_h.copy()
    born = final_h >= nb
    if born.any():
        final_p[born] = new_ppns[final_h[born] - nb]

    # Surviving new pages: group their referrers by handle.  Almost all
    # have exactly one (the missing write's own LPN) — one scatter;
    # pages other LPNs dedup-hit in-run take the set path.
    if M:
        new_sel = born
        h_new = final_h[new_sel] - nb
        l_new = uniq[new_sel]
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
        live_idx = np.nonzero(alive)[0]
        if live_idx.size:
            live_p = new_ppns[live_idx]
            fp_view[live_p] = np.asarray(plan.miss_fp, dtype=np.int64)[live_idx]
            peak_view[live_p] = np.fromiter(
                (obs[nb + int(k)] for k in live_idx),
                dtype=np.int64, count=live_idx.size,
            )

    # Surviving pre-run pages whose referrer set changed: rebuild each
    # from its initial representation plus the net removed/added LPNs
    # (intermediate churn cancels; the refcount the plan tracked must
    # match the final set size).
    rem_sel = (old0 >= 0) & (final_h != old0)
    add_sel = (final_h >= 0) & ~born & (final_h != old0)
    touched_real: Dict[int, List[List[int]]] = {}
    for p, lpn in zip(old0[rem_sel].tolist(), uniq[rem_sel].tolist()):
        if p in dead_set:
            continue
        entry = touched_real.get(p)
        if entry is None:
            touched_real[p] = [[lpn], []]
        else:
            entry[0].append(lpn)
    for p, lpn in zip(final_p[add_sel].tolist(), uniq[add_sel].tolist()):
        entry = touched_real.get(p)
        if entry is None:
            touched_real[p] = [[], [lpn]]
        else:
            entry[1].append(lpn)
    for p, (removed, added) in touched_real.items():
        r0 = int(ref_view[p])
        r1 = rc[p]
        refs = {int(solo_view[p])} if r0 == 1 else shared[p]
        if removed:
            refs.difference_update(removed)
        if added:
            refs.update(added)
        if r1 == 1:
            solo_view[p] = next(iter(refs))
            ref_view[p] = 1
            if r0 >= 2:
                del shared[p]
        else:
            if r0 == 1:
                solo_view[p] = -1
                shared[p] = refs
            ref_view[p] = r1

    # Peaks of surviving pre-run pages raised by in-run observations.
    obs_real = [
        (p, v) for p, v in obs.items() if p < nb and p not in dead_set
    ]
    if obs_real:
        op = np.asarray([p for p, _ in obs_real], dtype=np.int64)
        ov = np.asarray([v for _, v in obs_real], dtype=np.int64)
        peak_view[op] = np.maximum(peak_view[op], ov)

    # Forward map: one scatter (view taken after all growth happened).
    fwd_view = views.fwd()
    fwd_view[uniq] = final_p
    del fwd_view
    mapping._len += int(np.count_nonzero(final_h >= 0)) - int(
        np.count_nonzero(old0 >= 0)
    )

    # New canonicals enter the index after all removals above (a
    # fingerprint whose pre-run canonical died in-run re-keys to the
    # run's replacement page).  Every surviving born page is canonical.
    if M:
        mfp = plan.miss_fp
        for k in live_idx.tolist():
            index.insert(mfp[k], int(new_ppns[k]))

    # ---- victim-index reconciliation -------------------------------------
    sync = scheme.victim_index.sync_block
    tb = np.fromiter(touched_blocks, dtype=np.int64, count=len(touched_blocks))
    inv = flash.invalid_count[tb]
    full = flash.write_ptr[tb] == ppb
    for block, invalid, is_full in zip(tb.tolist(), inv.tolist(), full.tolist()):
        sync(block, invalid, is_full)
