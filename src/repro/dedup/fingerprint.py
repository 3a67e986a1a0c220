"""Content fingerprints.

In the real system a fingerprint is a SHA-1/SHA-256 digest of a 4 KB
page.  Traces (both the FIU originals and our synthetic equivalents)
carry one fingerprint per page, so inside the simulator a fingerprint is
just an opaque non-negative integer content id — collision-free by
construction, the same assumption the paper's trace replay makes.
:class:`repro.workloads.trace.Trace` rejects a negative one at
construction, so the stores keep negative values as sentinels.
``fingerprint_bytes`` hashes real buffers for the file-model example
and for tests that round-trip actual data.

:class:`PageFingerprints` is the columnar PPN -> fingerprint store every
scheme carries (the "what content does this physical page hold" side
table): one flat ``array('q')`` indexed by PPN instead of a dict of
boxed ints, with a dict-compatible surface so existing call sites and
the oracle's agreement checks read it unchanged.  Its :meth:`gather`
hands GC the whole victim block's fingerprints in one vectorized pass.
"""

from __future__ import annotations

import hashlib
from array import array
from typing import Iterator, Optional, Tuple

import numpy as np

#: Type alias: a fingerprint is an opaque non-negative integer.
Fingerprint = int

#: Column sentinel for an unmapped page; no fingerprint is negative
#: (:class:`repro.workloads.trace.Trace` rejects a negative one).
_ABSENT = -1


def fingerprint_bytes(data: bytes) -> Fingerprint:
    """Fingerprint a real data buffer (SHA-1, truncated to 63 bits).

    Truncation keeps the value inside a signed 64-bit integer (traces
    store fingerprints in int64 arrays); 63 bits is ample for
    simulation-scale page populations (collision probability < 1e-9 for
    10^5 unique pages).
    """
    digest = hashlib.sha1(data).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class PageFingerprints:
    """Flat PPN -> fingerprint column with a dict-compatible surface.

    8 bytes per physical page, preallocated to the device geometry, in
    place of a dict entry (~100 bytes) per *live* page — smaller beyond
    ~8 % occupancy and O(1) with no rehashing ever.  ``-1`` marks an
    unmapped page; the column never grows, so storing at a PPN past it
    raises ``KeyError``.  The dict protocol subset every call site uses
    (``[]``, ``get``, ``pop``, ``in``, ``len``, iteration) is preserved,
    so the store drops in for the old ``Dict[int, int]`` unchanged.
    """

    __slots__ = ("_col",)

    def __init__(self, physical_pages: int) -> None:
        self._col = array("q", [_ABSENT]) * physical_pages

    # -- dict protocol ---------------------------------------------------------

    def __getitem__(self, ppn: int) -> Fingerprint:
        if 0 <= ppn < len(self._col):
            fp = self._col[ppn]
            if fp != _ABSENT:
                return fp
        raise KeyError(ppn)

    def __setitem__(self, ppn: int, fp: Fingerprint) -> None:
        if not 0 <= ppn < len(self._col):
            raise KeyError(ppn)
        if fp < 0:
            raise ValueError(f"negative fingerprint {fp}")
        self._col[ppn] = fp

    def get(self, ppn: int, default: Optional[Fingerprint] = None):
        if 0 <= ppn < len(self._col):
            fp = self._col[ppn]
            if fp != _ABSENT:
                return fp
        return default

    def pop(self, ppn: int, default=KeyError):
        if 0 <= ppn < len(self._col):
            fp = self._col[ppn]
            if fp != _ABSENT:
                self._col[ppn] = _ABSENT
                return fp
        if default is KeyError:
            raise KeyError(ppn)
        return default

    def __contains__(self, ppn: int) -> bool:
        return 0 <= ppn < len(self._col) and self._col[ppn] != _ABSENT

    def __len__(self) -> int:
        view = np.frombuffer(self._col, dtype=np.int64)
        return int(np.count_nonzero(view != _ABSENT))

    def __iter__(self) -> Iterator[int]:
        view = np.frombuffer(self._col, dtype=np.int64)
        return iter(np.nonzero(view != _ABSENT)[0].tolist())

    def items(self) -> Iterator[Tuple[int, Fingerprint]]:
        for ppn in self:
            yield ppn, self[ppn]

    def __bool__(self) -> bool:
        return len(self) > 0

    # -- columnar extras -------------------------------------------------------

    def gather(self, ppns: np.ndarray) -> np.ndarray:
        """Fingerprints of ``ppns`` in one vectorized pass.

        The GC batched-hash model: a victim block's valid pages are all
        fingerprinted before the migrate loop runs, the way the hash
        engine in the pipeline chews through the block's pages, instead
        of one store probe per page inside the loop.
        """
        return np.frombuffer(self._col, dtype=np.int64)[ppns]
