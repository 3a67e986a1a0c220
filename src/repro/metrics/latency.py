"""Per-request latency capture and summarization.

Response time = completion − arrival, including queueing delay — the
quantity Figs 2, 11 and 12 report.  Samples append into a growable
NumPy buffer (amortized O(1), no Python-list boxing of half a million
floats).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log
from typing import Tuple

import numpy as np


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


#: Histogram-mode binning: log-spaced edges from 0.1 µs to 10 s give
#: <1.2 % relative quantile error with a fixed 4 KB-ish footprint.
_HIST_LO_US = 0.1
_HIST_HI_US = 1e7
_HIST_BINS = 800


class LatencyRecorder:
    """Response-time capture: exact samples or a fixed-size histogram.

    ``keep_samples=True`` (the default) appends every sample into a
    growable buffer — exact percentiles, O(requests) memory.  With
    ``keep_samples=False`` samples fold into a fixed log-spaced
    histogram instead: percentiles become bin-accurate approximations
    (sub-percent relative error) but memory stays constant no matter
    how long the replay runs — the mode streaming replays of
    multi-million-request traces use.
    """

    def __init__(self, capacity: int = 1024, keep_samples: bool = True) -> None:
        self.keep_samples = keep_samples
        self._n = 0
        if keep_samples:
            self._buf = np.empty(max(capacity, 16), dtype=np.float64)
        else:
            self._buf = np.empty(0, dtype=np.float64)
            self._bins = np.zeros(_HIST_BINS + 2, dtype=np.int64)
            self._log_lo = np.log(_HIST_LO_US)
            self._bin_scale = _HIST_BINS / (np.log(_HIST_HI_US) - self._log_lo)
            self._sum = 0.0
            self._max = 0.0

    def __len__(self) -> int:
        return self._n

    def record(self, latency_us: float) -> None:
        if latency_us < 0:
            raise ValueError(f"negative latency {latency_us}")
        if not self.keep_samples:
            self._record_binned(latency_us)
            return
        if self._n == len(self._buf):
            grown = np.empty(len(self._buf) * 2, dtype=np.float64)
            grown[: self._n] = self._buf
            self._buf = grown
        self._buf[self._n] = latency_us
        self._n += 1

    def record_many(self, latencies_us: np.ndarray) -> None:
        """Append a whole batch of samples at once.

        Bit-identical to calling :meth:`record` in a loop: exact mode
        bulk-copies into the sample buffer; histogram mode bins with the
        same scalar ``math.log`` expression as :meth:`_record_binned`
        (``np.log`` may differ by an ulp at a bin edge), counts with one
        ``bincount``, and accumulates ``_sum`` left to right in request
        order (float addition is not associative, and builtin ``sum``
        compensates on newer Pythons).
        """
        arr = np.ascontiguousarray(latencies_us, dtype=np.float64)
        if arr.size == 0:
            return
        if np.min(arr) < 0:
            raise ValueError(f"negative latency {float(np.min(arr))}")
        if not self.keep_samples:
            values = arr.tolist()
            log_lo = float(self._log_lo)
            scale = float(self._bin_scale)
            top = _HIST_BINS + 1
            idx = [
                0 if v < _HIST_LO_US
                else top if v >= _HIST_HI_US
                else 1 + int((log(v) - log_lo) * scale)
                for v in values
            ]
            self._bins += np.bincount(idx, minlength=top + 1)
            total = self._sum
            for v in values:
                total += v
            self._sum = total
            peak = float(arr.max())
            if peak > self._max:
                self._max = peak
            self._n += len(values)
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

    def _record_binned(self, latency_us: float) -> None:
        if latency_us < _HIST_LO_US:
            idx = 0
        elif latency_us >= _HIST_HI_US:
            idx = _HIST_BINS + 1
        else:
            idx = 1 + int((log(latency_us) - self._log_lo) * self._bin_scale)
        self._bins[idx] += 1
        self._sum += latency_us
        if latency_us > self._max:
            self._max = latency_us
        self._n += 1

    def samples(self) -> np.ndarray:
        """View of the recorded samples (do not mutate).

        Empty in histogram mode — per-sample data was never retained.
        """
        return self._buf[: self._n] if self.keep_samples else self._buf

    def summary(self) -> LatencySummary:
        if self._n == 0:
            return _EMPTY
        if not self.keep_samples:
            return self._summary_binned()
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

    def _summary_binned(self) -> LatencySummary:
        cum = np.cumsum(self._bins)
        # Geometric bin midpoints; the clamp bins report their edge.
        edges = np.exp(
            self._log_lo + np.arange(_HIST_BINS + 1) / self._bin_scale
        )
        mids = np.empty(_HIST_BINS + 2)
        mids[0] = _HIST_LO_US
        mids[1:-1] = np.sqrt(edges[:-1] * edges[1:])
        mids[-1] = self._max
        def quantile(q: float) -> float:
            rank = q * (self._n - 1)
            idx = int(np.searchsorted(cum, rank + 1.0, side="left"))
            return float(min(mids[idx], self._max))
        return LatencySummary(
            count=self._n,
            mean_us=self._sum / self._n,
            median_us=quantile(0.50),
            p95_us=quantile(0.95),
            p99_us=quantile(0.99),
            p999_us=quantile(0.999),
            max_us=self._max,
        )

    def cdf(self, points: int = 200) -> Tuple[np.ndarray, np.ndarray]:
        """(x, F(x)) pairs of the empirical CDF (Fig 12)."""
        from repro.metrics.cdf import empirical_cdf

        return empirical_cdf(self.samples(), points)
