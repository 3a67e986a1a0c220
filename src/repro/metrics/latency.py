"""Per-request latency capture and summarization.

Response time = completion − arrival, including queueing delay — the
quantity Figs 2, 11 and 12 report.  Samples append into a growable
NumPy buffer (amortized O(1), no Python-list boxing of half a million
floats).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.obs.telemetry import LatencyHistogram


@dataclass(frozen=True)
class LatencySummary:
    """Summary statistics of one run's response times (microseconds)."""

    count: int
    mean_us: float
    median_us: float
    p95_us: float
    p99_us: float
    p999_us: float
    max_us: float

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "mean_us": self.mean_us,
            "median_us": self.median_us,
            "p95_us": self.p95_us,
            "p99_us": self.p99_us,
            "p999_us": self.p999_us,
            "max_us": self.max_us,
        }


_EMPTY = LatencySummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


class LatencyRecorder:
    """Response-time capture: exact samples or the shared histogram.

    ``keep_samples=True`` (the default) appends every sample into a
    growable buffer — exact percentiles, O(requests) memory.  With
    ``keep_samples=False`` samples fold into one
    :class:`~repro.obs.telemetry.LatencyHistogram` instead: memory stays
    constant no matter how long the replay runs (the mode streaming
    replays of multi-million-request traces use), count, mean and max
    stay exact, and percentiles are the shared bucket upper edges —
    within one ~7 % bucket, the resolution of every histogram
    percentile the metrics and SLO layers report.
    """

    def __init__(self, capacity: int = 1024, keep_samples: bool = True) -> None:
        self.keep_samples = keep_samples
        self._n = 0
        self._buf = np.empty(max(capacity, 16) if keep_samples else 0, dtype=np.float64)
        self._hist = None if keep_samples else LatencyHistogram()

    def __len__(self) -> int:
        return self._n

    def record(self, latency_us: float) -> None:
        if latency_us < 0:
            raise ValueError(f"negative latency {latency_us}")
        if self._hist is not None:
            self._hist.record(latency_us)
            self._n += 1
            return
        if self._n == len(self._buf):
            grown = np.empty(len(self._buf) * 2, dtype=np.float64)
            grown[: self._n] = self._buf
            self._buf = grown
        self._buf[self._n] = latency_us
        self._n += 1

    def record_many(self, latencies_us: np.ndarray) -> None:
        """Append a whole batch of samples at once; bit-identical to
        calling :meth:`record` in a loop (see
        :meth:`~repro.obs.telemetry.LatencyHistogram.record_many`)."""
        arr = np.ascontiguousarray(latencies_us, dtype=np.float64)
        if arr.size == 0:
            return
        if np.min(arr) < 0:
            raise ValueError(f"negative latency {float(np.min(arr))}")
        if self._hist is not None:
            self._hist.record_many(arr)
            self._n += arr.size
            return
        need = self._n + arr.size
        if need > len(self._buf):
            capacity = len(self._buf)
            while capacity < need:
                capacity *= 2
            grown = np.empty(capacity, dtype=np.float64)
            grown[: self._n] = self._buf[: self._n]
            self._buf = grown
        self._buf[self._n : need] = arr
        self._n = need

    def samples(self) -> np.ndarray:
        """View of the recorded samples (do not mutate).

        Empty in histogram mode — per-sample data was never retained.
        """
        return self._buf[: self._n] if self.keep_samples else self._buf

    def summary(self) -> LatencySummary:
        if self._n == 0:
            return _EMPTY
        hist = self._hist
        if hist is not None:
            q = hist.quantiles((50, 95, 99, 99.9))
            return LatencySummary(hist.total, hist.mean_us, *q, hist.max_us)
        samples = self.samples()
        q = np.percentile(samples, [50, 95, 99, 99.9])
        return LatencySummary(
            count=self._n,
            mean_us=float(samples.mean()),
            median_us=float(q[0]),
            p95_us=float(q[1]),
            p99_us=float(q[2]),
            p999_us=float(q[3]),
            max_us=float(samples.max()),
        )

    def cdf(self, points: int = 200) -> Tuple[np.ndarray, np.ndarray]:
        """(x, F(x)) pairs of the empirical CDF (Fig 12)."""
        from repro.metrics.cdf import empirical_cdf

        return empirical_cdf(self.samples(), points)
