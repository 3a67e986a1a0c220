"""Page-level address mapping with shared physical pages.

A classic page-mapped FTL keeps LPN -> PPN.  Deduplication makes the
relation many-to-one: several LPNs may share one physical page.  The
table therefore also maintains the reverse relation PPN -> referrers;
the cardinality of that entry *is* the page's reference count (the
quantity CAGC's placement policy keys on).

Representation: the table is **columnar**.  Hot state lives in flat
C-typed arrays (``array('q')`` / ``array('i')``, 8/4 bytes per entry)
instead of Python dicts of boxed ints, so a production-scale geometry
costs ~20 bytes per page instead of the ~100+ bytes per dict slot, and
scalar access never touches a hash table:

* ``_fwd``  — LPN -> PPN forward map (``-1`` = unmapped);
* ``_ref``  — PPN -> reference count sidecar;
* ``_solo`` — PPN -> the sole referrer LPN while the refcount is
  exactly 1 (per Fig 6, >80 % of pages only ever have one referrer,
  so this column resolves the overwhelmingly common case);
* ``_shared`` — compact overflow dict PPN -> ``set`` of LPNs, populated
  only while a page is actually shared (refcount >= 2) and emptied the
  moment sharing ends.

Invariant: ``_ref[ppn] == 1`` means ``_solo[ppn]`` holds the referrer
and ``ppn`` is absent from ``_shared``; ``_ref[ppn] >= 2`` means
``_shared[ppn]`` holds all referrers (>= 2 of them) and ``_solo`` is
``-1``.  The columns are sized once, from the device geometry: ``_fwd``
holds ``logical_pages`` entries and ``_ref``/``_solo`` hold
``physical_pages``.  They never grow, so a mutation keyed past a column
raises :class:`MappingError`.  Vectorized queries (``mapped_count``
over long extents, ``mapped_ppns``) run through NumPy views of the same
buffers — zero copies of the hot state.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Set

import numpy as np

_NO_PPN = -1  # forward-map sentinel: LPN never written / trimmed
_NO_LPN = -1  # solo-column sentinel: page unmapped or shared


class MappingError(RuntimeError):
    """Raised on inconsistent mapping operations (FTL bugs)."""


def _filled(typecode: str, fill: int, n: int) -> array:
    return array(typecode, [fill]) * n


class MappingTable:
    """Columnar LPN->PPN map plus refcount/referrer sidecars."""

    __slots__ = ("_fwd", "_ref", "_solo", "_shared", "_len")

    def __init__(self, logical_pages: int, physical_pages: int) -> None:
        self._fwd = _filled("q", _NO_PPN, logical_pages)
        self._ref = _filled("i", 0, physical_pages)
        self._solo = _filled("q", _NO_LPN, physical_pages)
        #: PPN -> set of LPNs, only while refcount >= 2.
        self._shared: Dict[int, Set[int]] = {}
        self._len = 0

    def __len__(self) -> int:
        return self._len

    # -- queries ---------------------------------------------------------------

    def lookup(self, lpn: int) -> Optional[int]:
        """PPN currently holding ``lpn``, or ``None`` if never written."""
        if lpn < 0 or lpn >= len(self._fwd):
            return None
        ppn = self._fwd[lpn]
        return None if ppn == _NO_PPN else ppn

    def mapped_count(self, lpn: int, npages: int) -> int:
        """How many LPNs of the extent ``[lpn, lpn + npages)`` are mapped.

        Short extents scan the column directly; long ones count through
        a vectorized NumPy view — the read-request path's replacement
        for per-page :meth:`lookup`.
        """
        if npages <= 0 or lpn >= len(self._fwd):
            return 0
        start = max(lpn, 0)
        stop = min(lpn + npages, len(self._fwd))
        if stop - start > 64:
            view = np.frombuffer(self._fwd, dtype=np.int64)
            return int(np.count_nonzero(view[start:stop] != _NO_PPN))
        fwd = self._fwd
        count = 0
        for i in range(start, stop):
            if fwd[i] != _NO_PPN:
                count += 1
        return count

    def is_mapped(self, ppn: int) -> bool:
        return 0 <= ppn < len(self._ref) and self._ref[ppn] > 0

    def refcount(self, ppn: int) -> int:
        """Number of LPNs sharing physical page ``ppn`` (0 if unmapped)."""
        if ppn < 0 or ppn >= len(self._ref):
            return 0
        return self._ref[ppn]

    def lpns_of(self, ppn: int) -> List[int]:
        """All LPNs mapped to ``ppn`` (copy; safe to mutate the table)."""
        if ppn < 0 or ppn >= len(self._ref):
            return []
        count = self._ref[ppn]
        if count == 0:
            return []
        if count == 1:
            return [self._solo[ppn]]
        return list(self._shared[ppn])

    def mapped_ppns(self) -> List[int]:
        """PPNs with at least one referrer (ascending)."""
        view = np.frombuffer(self._ref, dtype=np.int32)
        return np.nonzero(view)[0].tolist()

    # -- mutations ---------------------------------------------------------------

    def _drop_ref(self, ppn: int, lpn: int) -> None:
        """Remove ``lpn`` from ``ppn``'s referrers (if present)."""
        ref = self._ref
        count = ref[ppn]
        if count == 1:
            if self._solo[ppn] == lpn:
                ref[ppn] = 0
                self._solo[ppn] = _NO_LPN
            return
        if count == 0:
            return
        refs = self._shared[ppn]
        refs.discard(lpn)
        remaining = len(refs)
        if remaining == 1:
            # Back to a single referrer: demote to the solo column.
            self._solo[ppn] = next(iter(refs))
            del self._shared[ppn]
        ref[ppn] = remaining

    def _add_ref(self, ppn: int, lpn: int) -> None:
        """Add ``lpn`` to ``ppn``'s referrers (idempotent)."""
        ref = self._ref
        count = ref[ppn]
        if count == 0:
            ref[ppn] = 1
            self._solo[ppn] = lpn
        elif count == 1:
            solo = self._solo[ppn]
            if solo != lpn:
                self._shared[ppn] = {solo, lpn}
                self._solo[ppn] = _NO_LPN
                ref[ppn] = 2
        else:
            refs = self._shared[ppn]
            if lpn not in refs:
                refs.add(lpn)
                ref[ppn] = count + 1

    def bind(self, lpn: int, ppn: int) -> Optional[int]:
        """Map ``lpn`` to ``ppn``; return the previous PPN of ``lpn``.

        The caller decides what to do with the previous PPN (it becomes
        invalid only when its reference count drops to zero).
        """
        fwd = self._fwd
        if not (0 <= lpn < len(fwd) and 0 <= ppn < len(self._ref)):
            raise MappingError(f"lpn/ppn out of range in bind({lpn}, {ppn})")
        old = fwd[lpn]
        if old != _NO_PPN:
            self._drop_ref(old, lpn)
        else:
            self._len += 1
        fwd[lpn] = ppn
        self._add_ref(ppn, lpn)
        return None if old == _NO_PPN else old

    def unbind(self, lpn: int) -> Optional[int]:
        """Remove ``lpn``'s mapping (trim); return the PPN it held."""
        if lpn < 0 or lpn >= len(self._fwd):
            return None
        old = self._fwd[lpn]
        if old == _NO_PPN:
            return None
        self._fwd[lpn] = _NO_PPN
        self._len -= 1
        self._drop_ref(old, lpn)
        return old

    def remap_ppn(self, old_ppn: int, new_ppn: int) -> int:
        """Point every LPN of ``old_ppn`` at ``new_ppn`` (GC migration).

        Returns the number of LPNs moved.  ``new_ppn`` may already have
        its own referrers (dedup merge during CAGC migration).
        """
        count = self.refcount(old_ppn)
        if count == 0:
            return 0
        if old_ppn == new_ppn:
            raise MappingError("remap_ppn to the same PPN")
        if not 0 <= new_ppn < len(self._ref):
            raise MappingError(f"target ppn {new_ppn} out of range")
        ref = self._ref
        solo = self._solo
        fwd = self._fwd
        # Detach the referrers from the source page.
        if count == 1:
            moving_lpn = solo[old_ppn]
            moving = None
            solo[old_ppn] = _NO_LPN
        else:
            moving_lpn = _NO_LPN
            moving = self._shared.pop(old_ppn)
        ref[old_ppn] = 0
        # Re-point the forward map.
        if moving is None:
            fwd[moving_lpn] = new_ppn
        else:
            for lpn in moving:
                fwd[lpn] = new_ppn
        # Merge into the target page's referrers.
        target_count = ref[new_ppn]
        if target_count == 0:
            if moving is None:
                ref[new_ppn] = 1
                solo[new_ppn] = moving_lpn
            else:
                self._shared[new_ppn] = moving  # transfer the set wholesale
                ref[new_ppn] = len(moving)
        elif target_count == 1:
            if moving is None:
                self._shared[new_ppn] = {solo[new_ppn], moving_lpn}
            else:
                moving.add(solo[new_ppn])
                self._shared[new_ppn] = moving
            solo[new_ppn] = _NO_LPN
            ref[new_ppn] = len(self._shared[new_ppn])
        else:
            target = self._shared[new_ppn]
            if moving is None:
                target.add(moving_lpn)
            else:
                target |= moving
            ref[new_ppn] = len(target)
        return count

    # -- invariants ----------------------------------------------------------------

    def check_invariants(self) -> None:
        """Forward and reverse columns must mirror each other, and every
        reverse entry must use the right representation (test hook)."""
        fwd = self._fwd
        ref = self._ref
        solo = self._solo
        count = 0
        for ppn in self.mapped_ppns():
            refcount = ref[ppn]
            if refcount == 1:
                if ppn in self._shared:
                    raise AssertionError(
                        f"ppn {ppn}: refcount 1 but present in the shared "
                        "overflow map (must use the solo column)"
                    )
                if solo[ppn] == _NO_LPN:
                    raise AssertionError(f"ppn {ppn}: refcount 1 with empty solo column")
                lpns = (solo[ppn],)
            else:
                refs = self._shared.get(ppn)
                if refs is None or len(refs) != refcount:
                    raise AssertionError(
                        f"ppn {ppn}: refcount {refcount} disagrees with shared "
                        f"overflow entry {refs!r}"
                    )
                if len(refs) < 2:
                    raise AssertionError(
                        f"ppn {ppn}: shared representation with {len(refs)} "
                        "referrers (refcount<2 must use the solo column)"
                    )
                if solo[ppn] != _NO_LPN:
                    raise AssertionError(f"ppn {ppn}: shared page with stale solo entry")
                lpns = tuple(refs)
            for lpn in lpns:
                if lpn < 0 or lpn >= len(fwd) or fwd[lpn] != ppn:
                    raise AssertionError(f"rev says {lpn}->{ppn}, fwd disagrees")
            count += len(lpns)
        for ppn in self._shared:
            if ref[ppn] < 2:
                raise AssertionError(f"shared overflow entry for unshared ppn {ppn}")
        if count != self._len:
            raise AssertionError("reverse column cardinality mismatch")
        view = np.frombuffer(fwd, dtype=np.int64)
        if int(np.count_nonzero(view != _NO_PPN)) != self._len:
            raise AssertionError("forward column cardinality mismatch")
