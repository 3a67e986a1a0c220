"""Reference-count lifecycle statistics (paper Fig 6).

Fig 6 buckets every page-invalidation event by the reference count the
page reached during its lifetime, showing that >80 % of invalidations
hit refcount-1 pages while pages that ever reached refcount > 3 almost
never die — the empirical basis for CAGC's hot/cold placement.

:class:`RefcountTracker` is key-agnostic: schemes key it by PPN, the
standalone trace analyzer keys it by fingerprint.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Iterator, List, MutableMapping, Tuple


@dataclass
class InvalidationHistogram:
    """Counts of invalidation events bucketed by lifetime peak refcount."""

    #: Buckets follow the paper's Fig 6 x-axis: 1, 2, 3, >3.
    ref1: int = 0
    ref2: int = 0
    ref3: int = 0
    ref_gt3: int = 0

    @property
    def total(self) -> int:
        return self.ref1 + self.ref2 + self.ref3 + self.ref_gt3

    def record(self, peak_refcount: int) -> None:
        if peak_refcount <= 1:
            self.ref1 += 1
        elif peak_refcount == 2:
            self.ref2 += 1
        elif peak_refcount == 3:
            self.ref3 += 1
        else:
            self.ref_gt3 += 1

    def fractions(self) -> Tuple[float, float, float, float]:
        """(f1, f2, f3, f>3) fractions of all invalidations; zeros when
        no event was recorded."""
        total = self.total
        if total == 0:
            return (0.0, 0.0, 0.0, 0.0)
        return (
            self.ref1 / total,
            self.ref2 / total,
            self.ref3 / total,
            self.ref_gt3 / total,
        )

    def as_rows(self) -> List[Tuple[str, float]]:
        f1, f2, f3, fg = self.fractions()
        return [("1", f1), ("2", f2), ("3", f3), (">3", fg)]


class PeakStore:
    """Flat peak-refcount column for PPN-keyed trackers.

    Peaks are always >= 1, so ``0`` doubles as the absence marker and
    the whole store is one ``array('i')`` over the physical page range —
    4 bytes per page instead of a dict entry per live page.  The column
    never grows: storing at a key past it raises ``KeyError``.  Implements
    the dict-protocol subset :class:`RefcountTracker` uses, so schemes
    swap it in via the ``peaks`` field; the fingerprint-keyed trace
    analyzer keeps a plain dict (its key space is not dense).
    """

    __slots__ = ("_col",)

    def __init__(self, physical_pages: int) -> None:
        self._col = array("i", [0]) * physical_pages

    def __getitem__(self, key: int) -> int:
        if 0 <= key < len(self._col):
            peak = self._col[key]
            if peak:
                return peak
        raise KeyError(key)

    def __setitem__(self, key: int, peak: int) -> None:
        if not 0 <= key < len(self._col):
            raise KeyError(key)
        if peak < 1:
            raise ValueError(f"peak store needs peak >= 1, got [{key}] = {peak}")
        self._col[key] = peak

    def get(self, key: int, default=None):
        if 0 <= key < len(self._col):
            peak = self._col[key]
            if peak:
                return peak
        return default

    def pop(self, key: int, default=KeyError):
        if 0 <= key < len(self._col):
            peak = self._col[key]
            if peak:
                self._col[key] = 0
                return peak
        if default is KeyError:
            raise KeyError(key)
        return default

    def __contains__(self, key: int) -> bool:
        return 0 <= key < len(self._col) and self._col[key] != 0

    def __len__(self) -> int:
        return sum(1 for peak in self._col if peak)

    def __iter__(self) -> Iterator[int]:
        return (key for key, peak in enumerate(self._col) if peak)

    def column(self) -> array:
        """The raw column for trusted hot-path writers (bulk program
        loop); callers must only store peaks >= 1 at in-range keys."""
        return self._col


@dataclass
class RefcountTracker:
    """Tracks lifetime peak reference count per live page/content key."""

    #: key -> lifetime peak refcount; a plain dict by default (sparse,
    #: fingerprint-keyed analyzers) or a :class:`PeakStore` when the
    #: key space is the dense physical page range.
    peaks: MutableMapping[int, int] = field(default_factory=dict)
    histogram: InvalidationHistogram = field(default_factory=InvalidationHistogram)

    def observe(self, key: int, refcount: int) -> None:
        """Record that ``key`` currently has ``refcount`` referrers."""
        prev = self.peaks.get(key, 0)
        if refcount > prev:
            self.peaks[key] = refcount

    def rekey(self, old: int, new: int) -> None:
        """Carry a live page's history across a GC migration."""
        if old in self.peaks:
            self.peaks[new] = max(self.peaks.pop(old), self.peaks.get(new, 0))

    def invalidated(self, key: int) -> None:
        """``key``'s page lost its last referrer: bucket the event."""
        peak = self.peaks.pop(key, 1)
        self.histogram.record(peak)
