"""Fingerprint index: content fingerprint <-> canonical physical page.

The index answers the dedup question "is this content already stored,
and where?".  Reference counts (how many LPNs share the canonical page)
live in the :class:`repro.ftl.mapping.MappingTable` reverse columns —
one source of truth; the index only tracks the fp <-> PPN bijection and
the statistics the evaluation reports (hits, misses, memory footprint).

Representation: the forward direction is an open-addressing hash table
over two flat ``array('q')`` columns — the 64-bit digest prefix (a
fingerprint *is* a 63-bit digest prefix, see
:mod:`repro.dedup.fingerprint`) and the canonical PPN — probed with a
Fibonacci-scrambled linear scan.  16 bytes per slot at <=2/3 load
instead of ~100+ bytes per dict slot of boxed ints.  The reverse
direction is one flat PPN-indexed digest column.  Fingerprints are
non-negative (:class:`repro.workloads.trace.Trace` rejects a negative
one), so negative keys serve as the EMPTY/TOMBSTONE sentinels and
:meth:`FingerprintIndex.insert` rejects a negative fingerprint.

Bulk operations: :meth:`FingerprintIndex.peek_many`,
:meth:`~FingerprintIndex.insert_many` and
:meth:`~FingerprintIndex.remove_many` run whole batches as NumPy probes
and scatters, and are exact equivalents of in-order ``peek`` /
``insert`` / ``remove_ppn`` loops: the same key, value and reverse
column bytes, the same occupancy counters and growth points, and on a
rejected item the same error after the same applied prefix.  One
placement rule serves bulk inserts and the rehash in ``_maybe_grow``
(which re-inserts live keys in old-slot order): :func:`_claim` probes
every pending key to its first free slot and keeps the claims that no
earlier key of the batch can take first (:func:`_settled`); the rest
keep probing from where they stopped.  Small batches take the per-item
loop, which is faster below ``_BULK_MIN`` items.

``memory_bytes()`` reports the *actual* footprint of all of this —
columns at allocated capacity — the figure a real FTL's DRAM budget
would be judged on.  No report prints it; an accounting test checks it
against the columns.
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Tuple

import numpy as np

from repro.dedup.fingerprint import Fingerprint

_EMPTY = -1
_TOMBSTONE = -2
#: 64-bit Fibonacci multiplier: scrambles digest prefixes (and the
#: sequential content ids of synthetic traces) into uniform slots.
_GOLD = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
_GOLD_U64 = np.uint64(_GOLD)
#: Slots past the current one that one bulk probe round inspects per
#: item: at the table's <= 2/3 load nearly every probe path ends
#: inside it, so a batch resolves in a round or two.
_STEPS = np.arange(1, 17)

#: Batches below this size take the per-item loop: a bulk op costs a
#: fixed few dozen NumPy calls (~100 us on a 2-core x86 VM), which
#: per-item calls at ~1-3 us each overtake only past ~64-96 items.
_BULK_MIN = 96


class IndexError_(RuntimeError):
    """Inconsistent index operation (duplicate insert, missing entry)."""


def _filled(typecode: str, fill: int, n: int) -> array:
    return array(typecode, [fill]) * n


def _homes(fps: np.ndarray, mask: int) -> np.ndarray:
    """Home slot per (non-negative) fingerprint, as ``_slot_of`` hashes."""
    return ((fps.astype(np.uint64) * _GOLD_U64) & np.uint64(mask)).astype(np.int64)


def _repeats(a: np.ndarray) -> np.ndarray:
    """True at every occurrence of a value after its first."""
    out = np.ones(a.size, dtype=bool)
    out[np.unique(a, return_index=True)[1]] = False
    return out


def _probe_free(keys: np.ndarray, mask: int, slots: np.ndarray) -> np.ndarray:
    """Advance ``slots`` in place to the first free (EMPTY or tombstone)
    slot at or after each, in probe order."""
    pend = np.flatnonzero(keys[slots] >= 0)
    while pend.size:
        win = (slots[pend, None] + _STEPS) & mask
        free = keys[win] < 0
        hit = free.any(axis=1)
        last = np.where(hit, free.argmax(axis=1), _STEPS.size - 1)
        slots[pend] = win[np.arange(pend.size), last]
        pend = pend[~hit]
    return slots


def _settled(keys: np.ndarray, mask: int, c: np.ndarray) -> np.ndarray:
    """Which items, probing in insert order to free slots ``c``, keep
    that slot when inserted one by one.

    Items interact only inside a *block*: a stretch of probe order that
    their claims fill, ended by a free slot no item reaches.  Each
    distinct demanded slot passes ``multiplicity - 1`` spilled items on;
    a free slot nobody demands before the next demanded slot absorbs one
    (counting at most one such slot per gap only merges blocks, which
    is safe).  The spill is a Lindley recursion, wrapped once around the
    table end.  Within a block, items keep their slot up to its first
    in-block collision in insert order.
    """
    m = c.size
    order = np.argsort(c, kind="stable")
    cs = c[order]
    first = np.ones(m, dtype=bool)
    first[1:] = cs[1:] != cs[:-1]
    if first.all():
        return first
    starts = np.flatnonzero(first)
    d = cs[starts]
    size = np.diff(np.append(starts, m))
    gap = _probe_free(keys, mask, (d + 1) & mask) != np.roll(d, -1)
    s = np.cumsum(size - 1 - gap)
    spill = s - np.minimum(np.minimum.accumulate(s), 0)
    wraps = spill[-1] > 0  # the tail spills past the table end into d[0]
    if wraps and s[-1] <= 0:  # rerun from the wrap's fixed point
        spill = s - np.minimum(np.minimum.accumulate(s), -spill[-1])
    block = np.zeros(d.size, dtype=np.int64)
    if not (wraps and s[-1] > 0):  # else the spill never drains: one block
        np.cumsum(spill[:-1] == 0, out=block[1:])
        if wraps:
            block[block == block[-1]] = 0  # the wrapping tail joins block 0
    item_block = np.repeat(block, size)
    first_loser = np.full(d.size, m, dtype=np.int64)
    np.minimum.at(first_loser, item_block[~first], order[~first])
    keep = np.empty(m, dtype=bool)
    keep[order] = order < first_loser[item_block]
    return keep


def _claim(keys: np.ndarray, mask: int, fps: np.ndarray, room: int):
    """Place ``fps`` into ``keys``' free slots exactly as one-by-one
    linear-probing inserts in order would; returns ``(slots, empties)``.

    Placement stops before the first item that finds ``room`` EMPTY
    claims before it (the table's load check fails there), so only a
    prefix may be placed; ``empties`` counts the EMPTY (not tombstone)
    slots it claimed.  Each round probes every pending item to its
    first free slot in the current table and places the ones
    :func:`_settled` keeps.  While a growth point can still fall among
    the pending items, only the kept prefix up to it is placed, so the
    load check sees exactly the one-by-one claims.  The rest continue
    probing from their current slot next round: the slots they passed
    stay occupied.
    """
    n = fps.size
    cur = _homes(fps, mask)
    todo = np.arange(n)  # pending items, in insert order
    empties = 0
    while todo.size:
        c = _probe_free(keys, mask, cur[todo])
        cur[todo] = c
        keep = _settled(keys, mask, c)
        if empties + todo.size >= room:
            stop = todo.size if keep.all() else int(np.argmin(keep))
            empty = keys[c[:stop]] == _EMPTY
            over = np.flatnonzero(empties + np.cumsum(empty) - empty >= room)
            if over.size:
                stop = int(over[0])
            keys[c[:stop]] = fps[todo[:stop]]
            empties += int(np.count_nonzero(empty[:stop]))
            if over.size:
                return cur[: todo[stop]], empties
            todo = todo[stop:]
            continue
        empties += int(np.count_nonzero(keys[c[keep]] == _EMPTY))
        keys[c[keep]] = fps[todo[keep]]
        todo = todo[~keep]
    return cur, empties


class FingerprintIndex:
    """Bidirectional fingerprint <-> canonical-PPN map (columnar)."""

    __slots__ = (
        "_keys",
        "_vals",
        "_mask",
        "_used",
        "_filled",
        "_ppn_fp",
        "hits",
        "misses",
    )

    def __init__(self, physical_pages: int, initial_slots: int = 256) -> None:
        cap = 1 << max(initial_slots - 1, 15).bit_length()
        self._keys = _filled("q", _EMPTY, cap)
        self._vals = _filled("q", 0, cap)
        self._mask = cap - 1
        self._used = 0  # live entries in the flat table
        self._filled = 0  # live entries + tombstones
        #: PPN -> digest prefix reverse column (-1 = not canonical).
        self._ppn_fp = _filled("q", _EMPTY, physical_pages)
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return self._used

    # -- probing ---------------------------------------------------------------

    def _slot_of(self, fp: int) -> int:
        """Slot holding ``fp``, or -1 if absent."""
        keys = self._keys
        mask = self._mask
        slot = ((fp * _GOLD) & _MASK64) & mask
        while True:
            k = keys[slot]
            if k == fp:
                return slot
            if k == _EMPTY:
                return -1
            slot = (slot + 1) & mask

    def _insert_slot(self, fp: int) -> int:
        """First reusable slot on ``fp``'s probe path (fp known absent)."""
        keys = self._keys
        mask = self._mask
        slot = ((fp * _GOLD) & _MASK64) & mask
        while True:
            k = keys[slot]
            if k == _EMPTY or k == _TOMBSTONE:
                return slot
            slot = (slot + 1) & mask

    def _find_slots(self, fps: np.ndarray) -> np.ndarray:
        """``_slot_of`` per non-negative fingerprint, probed in bulk."""
        n = fps.size
        out = np.full(n, -1, dtype=np.int64)
        if n == 0 or self._used == 0:
            return out
        keys = np.frombuffer(self._keys, dtype=np.int64)
        mask = self._mask
        slot = _homes(fps, mask)
        k = keys[slot]
        found = k == fps
        out[found] = slot[found]
        pending = np.flatnonzero(~found & (k != _EMPTY))
        while pending.size:
            win = (slot[pending, None] + _STEPS) & mask
            kw = keys[win]
            match = kw == fps[pending, None]
            stop = match | (kw == _EMPTY)
            ended = stop.any(axis=1)
            rows = np.flatnonzero(ended)
            first = stop[rows].argmax(axis=1)
            hit = match[rows, first]
            out[pending[rows[hit]]] = win[rows[hit], first[hit]]
            pending = pending[~ended]
            slot[pending] = win[~ended, -1]
        return out

    def _maybe_grow(self) -> None:
        cap = self._mask + 1
        if (self._filled + 1) * 3 <= cap * 2:
            return
        old_keys = np.frombuffer(self._keys, dtype=np.int64)
        live = np.flatnonzero(old_keys >= 0)
        fps = old_keys[live]
        ppns = np.frombuffer(self._vals, dtype=np.int64)[live]
        new_cap = cap * 2 if (self._used + 1) * 3 > cap else cap
        self._keys = _filled("q", _EMPTY, new_cap)
        self._vals = _filled("q", 0, new_cap)
        self._mask = new_cap - 1
        self._filled = self._used
        # Live keys re-enter in old-slot order, as a one-by-one rehash.
        slots, _ = _claim(
            np.frombuffer(self._keys, dtype=np.int64), self._mask, fps, fps.size + 1
        )
        np.frombuffer(self._vals, dtype=np.int64)[slots] = ppns

    # -- queries ---------------------------------------------------------------

    def lookup(self, fp: Fingerprint) -> Optional[int]:
        """Canonical PPN storing ``fp``'s content, or ``None`` (counts
        hit/miss statistics)."""
        ppn = self.peek(fp)
        if ppn is None:
            self.misses += 1
        else:
            self.hits += 1
        return ppn

    def peek(self, fp: Fingerprint) -> Optional[int]:
        """Like :meth:`lookup` but without touching the statistics."""
        if fp < 0:
            return None  # never indexed; a negative key is a sentinel
        keys = self._keys
        mask = self._mask
        slot = ((fp * _GOLD) & _MASK64) & mask
        while True:
            k = keys[slot]
            if k == fp:
                return self._vals[slot]
            if k == _EMPTY:
                return None
            slot = (slot + 1) & mask

    def peek_many(self, fps: np.ndarray) -> np.ndarray:
        """Canonical PPN per fingerprint (int64; -1 = absent).

        Equals ``[peek(fp) for fp in fps]`` (``None`` as -1) without
        touching the statistics: the probe runs for the whole batch at
        once with masked gathers over a shrinking pending set.
        """
        fps = np.asarray(fps, dtype=np.int64)
        out = np.full(fps.size, -1, dtype=np.int64)
        flat = np.flatnonzero(fps >= 0)  # a negative key is never indexed
        slots = self._find_slots(fps[flat])
        found = slots >= 0
        out[flat[found]] = np.frombuffer(self._vals, dtype=np.int64)[slots[found]]
        return out

    def fp_of(self, ppn: int) -> Optional[Fingerprint]:
        if ppn < 0 or ppn >= len(self._ppn_fp):
            return None
        fp = self._ppn_fp[ppn]
        return None if fp == _EMPTY else fp

    def contains_ppn(self, ppn: int) -> bool:
        return 0 <= ppn < len(self._ppn_fp) and self._ppn_fp[ppn] != _EMPTY

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def memory_bytes(self) -> int:
        """Actual DRAM footprint of the index.

        Counts the flat columns at their allocated capacity (hash slots
        are paid for whether occupied or not).
        """
        return (
            len(self._keys) * self._keys.itemsize
            + len(self._vals) * self._vals.itemsize
            + len(self._ppn_fp) * self._ppn_fp.itemsize
        )

    # -- mutations ---------------------------------------------------------------

    def insert(self, fp: Fingerprint, ppn: int) -> None:
        """Register ``ppn`` as the canonical page for ``fp``."""
        if fp < 0:
            raise IndexError_(f"negative fingerprint {fp}")
        if self.peek(fp) is not None:
            raise IndexError_(f"fingerprint {fp:#x} already indexed")
        if self.contains_ppn(ppn):
            raise IndexError_(f"ppn {ppn} already canonical for another fp")
        if not 0 <= ppn < len(self._ppn_fp):
            kind = "negative" if ppn < 0 else "out-of-range"
            raise IndexError_(f"{kind} ppn {ppn}")
        self._maybe_grow()
        slot = self._insert_slot(fp)
        if self._keys[slot] == _EMPTY:
            self._filled += 1
        self._keys[slot] = fp
        self._vals[slot] = ppn
        self._used += 1
        self._ppn_fp[ppn] = fp

    def remove_ppn(self, ppn: int) -> Optional[Fingerprint]:
        """Drop the entry whose canonical page is ``ppn`` (page died)."""
        if ppn < 0 or ppn >= len(self._ppn_fp):
            return None
        fp = self._ppn_fp[ppn]
        if fp == _EMPTY:
            return None
        slot = self._slot_of(fp)
        if slot < 0:
            raise IndexError_(f"ppn {ppn} names fp {fp:#x}, which is not indexed")
        self._ppn_fp[ppn] = _EMPTY
        self._keys[slot] = _TOMBSTONE
        self._vals[slot] = 0
        self._used -= 1
        return fp

    def insert_many(self, fps: np.ndarray, ppns: np.ndarray) -> None:
        """:meth:`insert` each ``(fps[i], ppns[i])`` in order, in bulk.

        Leaves the same table (slot layout, counters, growth points) as
        the per-item loop.  A batch whose item ``i`` would be rejected
        applies items ``[0, i)`` and raises that item's error.
        """
        fps = np.asarray(fps, dtype=np.int64)
        ppns = np.asarray(ppns, dtype=np.int64)
        n = fps.size
        if n < _BULK_MIN:
            for fp, ppn in zip(fps.tolist(), ppns.tolist()):
                self.insert(fp, ppn)
            return
        # The first item a one-by-one loop rejects: its fp is negative
        # or indexed (before the batch or by an earlier item), its ppn
        # is canonical (likewise), or its ppn is out of range.
        rev = np.frombuffer(self._ppn_fp, dtype=np.int64)
        bad = fps < 0
        bad[~bad] = self._find_slots(fps[~bad]) >= 0
        bad |= _repeats(fps)
        bad |= _repeats(ppns)
        bad |= (ppns < 0) | (ppns >= rev.size)
        bad[~bad] = rev[ppns[~bad]] != _EMPTY
        if bad.any():
            i = int(np.argmax(bad))
            self.insert_many(fps[:i], ppns[:i])
            self.insert(int(fps[i]), int(ppns[i]))  # raises its error
            return
        done = 0
        while done < n:
            lim = (self._mask + 1) * 2 // 3
            if self._filled >= lim:
                self._maybe_grow()
                continue
            slots, empties = _claim(
                np.frombuffer(self._keys, dtype=np.int64),
                self._mask, fps[done:], lim - self._filled,
            )
            end = done + slots.size
            np.frombuffer(self._vals, dtype=np.int64)[slots] = ppns[done:end]
            self._filled += empties
            self._used += slots.size
            done = end
        rev[ppns] = fps

    def remove_many(self, ppns: np.ndarray) -> None:
        """:meth:`remove_ppn` each of ``ppns`` in order, in bulk.

        Non-canonical PPNs are no-ops, as one by one.  An entry whose
        fingerprint the table lacks raises :class:`IndexError_` after
        the entries before it are removed.
        """
        ppns = np.asarray(ppns, dtype=np.int64)
        if not self._used:
            return  # nothing is canonical
        rev = np.frombuffer(self._ppn_fp, dtype=np.int64)
        hit = ppns[(ppns >= 0) & (ppns < rev.size)]
        hit = hit[rev[hit] != _EMPTY]  # the rest are no-ops
        if hit.size < _BULK_MIN:
            for ppn in hit.tolist():
                self.remove_ppn(ppn)
            return
        hit = hit[~_repeats(hit)]  # a repeat is a no-op by then
        fps = rev[hit]
        slots = self._find_slots(fps)
        # A second PPN naming the same fp finds it already tombstoned.
        bad = (slots < 0) | _repeats(fps)
        if bad.any():
            i = int(np.argmax(bad))
            self.remove_many(hit[:i])
            self.remove_ppn(int(hit[i]))  # raises its error
            return
        rev[hit] = _EMPTY
        np.frombuffer(self._keys, dtype=np.int64)[slots] = _TOMBSTONE
        np.frombuffer(self._vals, dtype=np.int64)[slots] = 0
        self._used -= hit.size

    def move(self, old_ppn: int, new_ppn: int) -> None:
        """Canonical page migrated during GC: re-point its index entry."""
        fp = self.fp_of(old_ppn)
        if fp is None:
            raise IndexError_(f"ppn {old_ppn} is not canonical for any fp")
        if self.contains_ppn(new_ppn):
            raise IndexError_(f"ppn {new_ppn} already canonical")
        if not 0 <= new_ppn < len(self._ppn_fp):
            kind = "negative" if new_ppn < 0 else "out-of-range"
            raise IndexError_(f"{kind} ppn {new_ppn}")
        slot = self._slot_of(fp)
        if slot < 0:
            raise IndexError_(f"ppn {old_ppn} names fp {fp:#x}, which is not indexed")
        self._ppn_fp[old_ppn] = _EMPTY
        self._ppn_fp[new_ppn] = fp
        self._vals[slot] = new_ppn

    # -- inspection ----------------------------------------------------------------

    def entries(self) -> List[Tuple[Fingerprint, int]]:
        """All (fp, canonical ppn) pairs (test/debug; copies)."""
        return [(fp, self._vals[i]) for i, fp in enumerate(self._keys) if fp >= 0]

    # -- invariants ----------------------------------------------------------------

    def check_invariants(self) -> None:
        forward = 0
        for i, fp in enumerate(self._keys):
            if fp < 0:
                continue
            forward += 1
            ppn = self._vals[i]
            if ppn < 0 or ppn >= len(self._ppn_fp) or self._ppn_fp[ppn] != fp:
                raise AssertionError(f"asymmetric entry fp={fp:#x} ppn={ppn}")
        if forward != self._used:
            raise AssertionError("flat-table occupancy count drifted")
        reverse = sum(1 for fp in self._ppn_fp if fp != _EMPTY)
        if reverse != self._used:
            raise AssertionError("fp/ppn map sizes differ")
        for ppn, fp in self._ppn_fp_items():
            slot = self._slot_of(fp)
            if slot < 0 or self._vals[slot] != ppn:
                raise AssertionError(f"asymmetric entry fp={fp:#x} ppn={ppn}")

    def _ppn_fp_items(self):
        for ppn, fp in enumerate(self._ppn_fp):
            if fp != _EMPTY:
                yield ppn, fp
