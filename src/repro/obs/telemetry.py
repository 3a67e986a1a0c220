"""Bounded-memory latency percentiles.

:class:`LatencyHistogram` has fixed log-spaced buckets covering 0.1 µs
to ~100 s.  Recording is O(log buckets), memory is constant, and any
percentile is answerable afterwards to within one bucket's relative
width (~7%) — p50/p95/p99/p999 without storing half a million floats.
The metrics registry's :class:`~repro.obs.metrics.Histogram` handles,
the array tier's SLO histograms and a sample-less
:class:`~repro.metrics.latency.LatencyRecorder` are all this one type,
and :func:`percentiles_from_counts` is the one percentile rule.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

#: Histogram geometry: bucket upper edges grow by ``_GROWTH`` per step
#: from ``_FIRST_US``; values above the last edge land in an overflow
#: bucket whose midpoint is the max recorded value.
_FIRST_US = 0.1
_GROWTH = 1.07
_BUCKETS = 400  # 0.1us * 1.07^400 ~= 5.5e10 us >> any simulated run


def _bucket_edges() -> np.ndarray:
    return _FIRST_US * np.power(_GROWTH, np.arange(1, _BUCKETS + 1))


_EDGES = _bucket_edges()


def percentiles_from_counts(
    counts: np.ndarray, total: int, max_us: float, ps: Sequence[float]
) -> List[float]:
    """Values at percentiles ``ps`` of a bucket-count vector over the
    shared log-bucket geometry, from one cumulative sum: the upper edge
    of the bucket holding the p-th sample, capped at ``max_us`` (the
    overflow bucket reports ``max_us`` itself); 0.0 for an empty
    vector.  ``counts`` may be a window delta between two snapshots of
    one histogram, with ``max_us`` that histogram's running max."""
    if total <= 0:
        return [0.0] * len(ps)
    ranks = [max(math.ceil(total * p / 100.0), 1) for p in ps]
    idxs = np.searchsorted(np.cumsum(counts), ranks, side="left").tolist()
    return [
        max_us if idx >= _BUCKETS else float(min(_EDGES[idx], max_us))
        for idx in idxs
    ]


def percentile_from_counts(
    counts: np.ndarray, total: int, max_us: float, p: float
) -> float:
    """:func:`percentiles_from_counts` at the one percentile ``p``."""
    return percentiles_from_counts(counts, total, max_us, (p,))[0]


class LatencyHistogram:
    """Fixed-bucket latency histogram with percentile queries."""

    __slots__ = ("counts", "total", "max_us", "sum_us")

    def __init__(self) -> None:
        self.counts = np.zeros(_BUCKETS + 1, dtype=np.int64)  # +overflow
        self.total = 0
        self.max_us = 0.0
        self.sum_us = 0.0

    def record(self, latency_us: float) -> None:
        """Add one sample (O(log buckets))."""
        idx = int(np.searchsorted(_EDGES, latency_us, side="left"))
        self.counts[idx] += 1
        self.total += 1
        self.sum_us += latency_us
        if latency_us > self.max_us:
            self.max_us = latency_us

    def record_many(self, latencies_us: np.ndarray) -> None:
        """Fold a batch of samples; exact vs. per-sample :meth:`record`.

        Bucket counts come from one searchsorted + bincount pass, the
        max from one reduction.  ``sum_us`` is folded with ``cumsum``
        seeded by the running sum — a strict left-to-right accumulation,
        so the result is bit-identical to repeated ``+=`` (a pairwise
        ``arr.sum()`` would not be).
        """
        arr = np.ascontiguousarray(latencies_us, dtype=np.float64)
        if arr.size == 0:
            return
        idx = np.searchsorted(_EDGES, arr, side="left")
        self.counts += np.bincount(idx, minlength=self.counts.size)
        self.total += int(arr.size)
        self.sum_us = float(
            np.cumsum(np.concatenate(([self.sum_us], arr)))[-1]
        )
        m = float(arr.max())
        if m > self.max_us:
            self.max_us = m

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "LatencyHistogram":
        """Bulk-build from an array: :meth:`record_many` on a fresh
        histogram (so ``sum_us`` matches the recording path exactly)."""
        hist = cls()
        hist.record_many(samples)
        return hist

    def merge(self, other: "LatencyHistogram") -> None:
        self.counts += other.counts
        self.total += other.total
        self.sum_us += other.sum_us
        self.max_us = max(self.max_us, other.max_us)

    # ------------------------------------------------------------------ queries

    @property
    def mean_us(self) -> float:
        return self.sum_us / self.total if self.total else 0.0

    def percentile(self, p: float) -> float:
        """Value at percentile ``p`` (0..100), to bucket resolution.

        Returns the upper edge of the bucket holding the p-th sample
        (the overflow bucket reports the recorded max).
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile {p} out of range")
        return percentile_from_counts(self.counts, self.total, self.max_us, p)

    def quantiles(self, ps: Sequence[float]) -> List[float]:
        return [self.percentile(p) for p in ps]

    def to_dict(self) -> dict:
        """Sparse export: only occupied buckets."""
        occupied = np.nonzero(self.counts)[0]
        return {
            "total": self.total,
            "max_us": self.max_us,
            "sum_us": self.sum_us,
            "buckets": {int(i): int(self.counts[i]) for i in occupied},
        }
