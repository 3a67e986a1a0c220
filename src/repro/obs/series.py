"""Simulated-time sampling of a metrics registry into columnar arrays.

:class:`TimeSeriesRecorder` is the bridge between the live
:class:`~repro.obs.metrics.MetricsRegistry` and the persisted
:class:`~repro.obs.metrics.MetricsSnapshot`: every ``interval_us`` of
*simulated* time (clocked by request completions / batch boundaries, so
replays are deterministic regardless of host speed or worker fan-out)
it appends one row of samples — every counter, every sampled gauge,
plus three derived **windowed** columns from the main latency
histogram:

* ``window_ops`` — requests completed since the previous sample;
* ``window_p99_us`` / ``window_p999_us`` — tail percentiles of *only*
  that window, computed from the bucket-count delta between samples
  (O(buckets) per tick, no sample storage) — the series the SLO
  monitors run burn-rate evaluation over, and the one that makes GC
  latency spikes visible instead of being averaged into the cumulative
  distribution.

Memory is bounded: past ``max_samples`` rows the recorder halves its
resolution in place (keeps every other row, doubles the interval), so
an arbitrarily long replay yields a compact, uniformly-spaced series.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs.telemetry import LatencyHistogram, percentile_from_counts

from repro.obs.metrics import DEFAULT_INTERVAL_US

#: decimation bound: the series never holds more rows than this.
MAX_SAMPLES = 4096


class TimeSeriesRecorder:
    """Columnar simulated-time series over a metrics registry."""

    def __init__(
        self,
        interval_us: float = DEFAULT_INTERVAL_US,
        max_samples: int = MAX_SAMPLES,
    ) -> None:
        if interval_us <= 0:
            raise ValueError("interval_us must be positive")
        if max_samples < 8:
            raise ValueError("max_samples must be >= 8")
        self.interval_us = float(interval_us)
        self.max_samples = int(max_samples)
        #: the device compares against this on the hot path; sampling
        #: advances it past idle gaps instead of emitting a backlog.
        self.next_due_us = 0.0
        self.samples = 0
        self._registry = None
        self._window_hist: Optional[LatencyHistogram] = None
        self._last_counts: Optional[np.ndarray] = None
        self._last_total = 0
        #: (column name, instrument) pairs, frozen at the first sample.
        self._columns: Optional[List[Tuple[str, object]]] = None
        self._times = np.zeros(64)
        self._data: Dict[str, np.ndarray] = {}

    def bind(self, registry, window_hist: Optional[LatencyHistogram] = None) -> None:
        self._registry = registry
        self._window_hist = window_hist
        if window_hist is not None:
            self._last_counts = window_hist.counts.copy()
            self._last_total = window_hist.total

    # ------------------------------------------------------------ sampling

    def _freeze_columns(self) -> None:
        """Fix the column set: every plain counter and sampled gauge.

        Label-vec children are deliberately excluded — they can appear
        lazily mid-run (e.g. the first ``gc-trigger`` kernel fallback),
        which would tear the columnar layout; their finals live in the
        snapshot's values dict instead.
        """
        from repro.obs.metrics import Counter, Gauge

        columns: List[Tuple[str, object]] = []
        if self._registry is not None:
            for instrument in self._registry._instruments.values():
                if isinstance(instrument, Counter):
                    columns.append((instrument.name, instrument))
                elif isinstance(instrument, Gauge) and instrument.sampled:
                    from repro.obs.metrics import sample_id

                    columns.append(
                        (sample_id(instrument.name, instrument.labels), instrument)
                    )
        self._columns = columns
        size = self._times.size
        for name, _ in columns:
            self._data[name] = np.zeros(size)
        if self._window_hist is not None:
            for name in ("window_ops", "window_p99_us", "window_p999_us"):
                self._data[name] = np.zeros(size)

    def sample(self, now_us: float) -> None:
        """Append one row and re-arm the cadence."""
        if self._columns is None:
            self._freeze_columns()
        n = self.samples
        if n == self._times.size:
            self._grow_or_decimate()
            n = self.samples
        self._times[n] = now_us
        for name, instrument in self._columns:
            self._data[name][n] = instrument.sample()
        hist = self._window_hist
        if hist is not None:
            delta = hist.counts - self._last_counts
            ops = hist.total - self._last_total
            self._data["window_ops"][n] = float(ops)
            self._data["window_p99_us"][n] = percentile_from_counts(
                delta, ops, hist.max_us, 99.0
            )
            self._data["window_p999_us"][n] = percentile_from_counts(
                delta, ops, hist.max_us, 99.9
            )
            self._last_counts = hist.counts.copy()
            self._last_total = hist.total
        self.samples = n + 1
        self.next_due_us = now_us + self.interval_us

    def _grow_or_decimate(self) -> None:
        size = self._times.size
        if size < self.max_samples:
            new = min(size * 2, self.max_samples)
            self._times = np.resize(self._times, new)
            for name in self._data:
                self._data[name] = np.resize(self._data[name], new)
            return
        # At the bound: halve resolution in place.  Keeping the odd
        # rows (1, 3, 5, ...) preserves the most recent sample and the
        # doubled-interval spacing.
        half = size // 2
        self._times[:half] = self._times[1::2]
        for name in self._data:
            col = self._data[name]
            col[:half] = col[1::2]
        self.samples = half
        self.interval_us *= 2.0

    # ------------------------------------------------------------- export

    def arrays(self) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """Trimmed copies: ``(times_us, {column: values})``."""
        n = self.samples
        return (
            self._times[:n].copy(),
            {name: col[:n].copy() for name, col in self._data.items()},
        )


__all__ = ["MAX_SAMPLES", "TimeSeriesRecorder", "percentile_from_counts"]
