"""Unified metrics registry: typed handles, labels, snapshots.

The registry follows the same zero-overhead-when-disabled contract as
the :class:`~repro.obs.trace.Tracer`: every instrumentation site on the
hot path is one predicated ``x is not None`` test, and when metrics
*are* attached the handles (:class:`Counter`, :class:`Gauge`,
:class:`Histogram`) have been resolved once at attach time, so the
per-event cost is a bare attribute increment — no name lookups, no
label hashing, no dict traffic inside the replay loop.

Three handle types:

* :class:`Counter` — monotonically increasing float; ``inc``/``add``.
* :class:`Gauge` — either set explicitly or *callback-backed*: a lazy
  gauge stores a zero-argument callable that is only invoked when the
  registry is sampled (time-series ticks, end-of-run collection), so
  instrumenting allocator occupancy, victim-index depth or GC phase
  busy time costs literally nothing on the request path.
* :class:`Histogram` — wraps the log-bucket
  :class:`~repro.obs.telemetry.LatencyHistogram`; ``observe_many``
  folds whole batches exactly (the vectorized kernel's path).

Label dimensions come from :class:`CounterVec` / :class:`HistogramVec`:
a vec owns one child per label value, resolved once (``vec.labels(i)``)
and cached.  Children are independent — a vec's :meth:`CounterVec.sum`
is the fold over its children, which is how the array tier's
per-device and per-tenant families *partition* their global parents
(the property the metrics test suite pins with hypothesis).

:class:`MetricsSnapshot` is the frozen end-of-run view — final scalar
values plus the :class:`~repro.obs.series.TimeSeriesRecorder`'s
columnar series — and is what the runner cache persists (npz arrays +
JSON meta) and the exporters render.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.obs.telemetry import LatencyHistogram

#: metric-name prefix shared by every built-in instrument.
PREFIX = "cagc"

#: default simulated-time sampling interval for the time series.
DEFAULT_INTERVAL_US = 10_000.0


def sample_id(name: str, labels: Tuple[Tuple[str, str], ...] = ()) -> str:
    """Flat sample identifier, Prometheus-style: ``name{key="value"}``."""
    if not labels:
        return name
    inner = ",".join(f'{key}="{value}"' for key, value in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonic counter handle (resolve once, then ``inc``/``add``)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    #: bulk alias — the batch-folded form reads better at call sites.
    add = inc

    def sample(self) -> float:
        return self.value


class Gauge:
    """Point-in-time value: explicit ``set`` or callback-backed.

    A callback gauge is read only when sampled, so registering one has
    zero hot-path cost — the preferred way to expose state that the
    simulator already tracks (allocator free fraction, GC counters,
    write-buffer occupancy).
    """

    __slots__ = ("name", "labels", "fn", "_value", "sampled")

    def __init__(
        self,
        name: str,
        fn: Optional[Callable[[], float]] = None,
        labels: Tuple[Tuple[str, str], ...] = (),
        sampled: bool = True,
    ) -> None:
        self.name = name
        self.labels = labels
        self.fn = fn
        self._value = 0.0
        #: sampled=False gauges appear in the final values but are kept
        #: out of the time series (for reads that are not O(1), e.g.
        #: wear statistics over all blocks).
        self.sampled = sampled

    def set(self, value: float) -> None:
        self._value = value

    def sample(self) -> float:
        return float(self.fn()) if self.fn is not None else self._value


class Histogram:
    """Log-bucket distribution handle over :class:`LatencyHistogram`."""

    __slots__ = ("name", "labels", "hist")

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()) -> None:
        self.name = name
        self.labels = labels
        self.hist = LatencyHistogram()

    def observe(self, value: float) -> None:
        self.hist.record(value)

    def observe_many(self, values: np.ndarray) -> None:
        """Exact batch fold (same counts/sum/max as per-event observes)."""
        self.hist.record_many(values)

    def percentile(self, p: float) -> float:
        return self.hist.percentile(p)

    def value_rows(self) -> List[Tuple[str, float]]:
        """Derived scalar samples for the values dict / exporters."""
        hist = self.hist
        return [
            (sample_id(f"{self.name}_count", self.labels), float(hist.total)),
            (sample_id(f"{self.name}_sum", self.labels), hist.sum_us),
            (sample_id(f"{self.name}_max", self.labels), hist.max_us),
            (sample_id(f"{self.name}_p50", self.labels), hist.percentile(50.0)),
            (sample_id(f"{self.name}_p99", self.labels), hist.percentile(99.0)),
            (sample_id(f"{self.name}_p999", self.labels), hist.percentile(99.9)),
        ]


class CounterVec:
    """One counter per label value; children resolved once and cached."""

    __slots__ = ("name", "label_key", "_children")

    def __init__(self, name: str, label_key: str) -> None:
        self.name = name
        self.label_key = label_key
        self._children: Dict[str, Counter] = {}

    def labels(self, value) -> Counter:
        key = str(value)
        child = self._children.get(key)
        if child is None:
            child = Counter(self.name, labels=((self.label_key, key),))
            self._children[key] = child
        return child

    def children(self) -> List[Counter]:
        return [self._children[key] for key in sorted(self._children)]

    def sum(self) -> float:
        """Fold over children — equals the global parent when every
        recording site feeds exactly one child (the partition law)."""
        return math.fsum(child.value for child in self._children.values())


class HistogramVec:
    """One histogram per label value (per-tenant / per-device SLOs)."""

    __slots__ = ("name", "label_key", "_children")

    def __init__(self, name: str, label_key: str) -> None:
        self.name = name
        self.label_key = label_key
        self._children: Dict[str, Histogram] = {}

    def labels(self, value) -> Histogram:
        key = str(value)
        child = self._children.get(key)
        if child is None:
            child = Histogram(self.name, labels=((self.label_key, key),))
            self._children[key] = child
        return child

    def children(self) -> List[Histogram]:
        return [self._children[key] for key in sorted(self._children)]


class MetricsRegistry:
    """Flat, ordered collection of instruments.

    Registration happens at attach time (``DeviceMetrics.bind`` and
    friends); the replay loop only touches the returned handles.  Names
    are unique per (name, label-key) — registering the same instrument
    twice returns the existing handle, so idempotent binds are safe.
    """

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, str], object] = {}

    def _register(self, kind, key: Tuple[str, str], factory):
        instrument = self._instruments.get(key)
        if instrument is not None:
            if not isinstance(instrument, kind):
                raise ValueError(
                    f"metric {key[0]!r} already registered as "
                    f"{type(instrument).__name__}"
                )
            return instrument
        instrument = factory()
        self._instruments[key] = instrument
        return instrument

    def counter(self, name: str) -> Counter:
        return self._register(Counter, (name, ""), lambda: Counter(name))

    def gauge(
        self,
        name: str,
        fn: Optional[Callable[[], float]] = None,
        labels: Tuple[Tuple[str, str], ...] = (),
        sampled: bool = True,
    ) -> Gauge:
        return self._register(
            Gauge,
            (sample_id(name, labels), ""),
            lambda: Gauge(name, fn=fn, labels=labels, sampled=sampled),
        )

    def histogram(self, name: str) -> Histogram:
        return self._register(Histogram, (name, ""), lambda: Histogram(name))

    def counter_vec(self, name: str, label_key: str) -> CounterVec:
        return self._register(
            CounterVec, (name, label_key), lambda: CounterVec(name, label_key)
        )

    def histogram_vec(self, name: str, label_key: str) -> HistogramVec:
        return self._register(
            HistogramVec, (name, label_key), lambda: HistogramVec(name, label_key)
        )

    # ------------------------------------------------------------ sampling

    def iter_scalars(
        self, sampled_only: bool = False
    ) -> Iterator[Tuple[str, float]]:
        """``(sample_id, value)`` pairs in registration order.

        Counters and gauges yield one sample each, vecs one per child.
        Histograms are excluded — their derived summary rows only
        belong in the final values view (see :meth:`sample_values`),
        not the per-tick series (the windowed percentiles live there
        instead).
        """
        for instrument in self._instruments.values():
            if isinstance(instrument, Counter):
                yield sample_id(instrument.name, instrument.labels), instrument.value
            elif isinstance(instrument, Gauge):
                if sampled_only and not instrument.sampled:
                    continue
                yield (
                    sample_id(instrument.name, instrument.labels),
                    instrument.sample(),
                )
            elif isinstance(instrument, CounterVec):
                for child in instrument.children():
                    yield sample_id(child.name, child.labels), child.value

    def sample_values(self) -> Dict[str, float]:
        """The full final-values view: scalars plus histogram summaries."""
        values: Dict[str, float] = dict(self.iter_scalars())
        for instrument in self._instruments.values():
            if isinstance(instrument, Histogram):
                values.update(instrument.value_rows())
            elif isinstance(instrument, HistogramVec):
                for child in instrument.children():
                    if child.hist.total:
                        values.update(child.value_rows())
        return values


@dataclass
class MetricsSnapshot:
    """Frozen end-of-run metrics: final values + columnar time series.

    ``times_us`` and every column of ``series`` share one length; the
    runner cache stores the arrays verbatim (npz) and the values dict
    as JSON, so a cached snapshot round-trips bit-for-bit.
    """

    values: Dict[str, float] = field(default_factory=dict)
    times_us: np.ndarray = field(default_factory=lambda: np.zeros(0))
    series: Dict[str, np.ndarray] = field(default_factory=dict)
    interval_us: float = DEFAULT_INTERVAL_US

    @property
    def samples(self) -> int:
        return int(self.times_us.size)

    def column(self, name: str) -> np.ndarray:
        return self.series[name]


class DeviceMetrics:
    """The resolved-handle bundle one :class:`~repro.device.ssd.SSD`
    drives.

    ``bind`` runs once in the device constructor: it registers the live
    request counter + latency histogram (the only per-event handles),
    lazy gauges over every counter the FTL stack already maintains
    (GC/IO counters, allocator occupancy, victim-index depth, write
    buffer, wear), and the kernel batch/fallback counters the
    vectorized orchestrator bumps at batch boundaries.  Per request the
    device pays one counter ``inc``, one histogram ``record`` and one
    float compare for the time-series cadence — everything else is read
    lazily at sample time.
    """

    def __init__(
        self,
        interval_us: float = DEFAULT_INTERVAL_US,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        from repro.obs.series import TimeSeriesRecorder

        self.registry = registry if registry is not None else MetricsRegistry()
        self.recorder = TimeSeriesRecorder(interval_us=interval_us)
        self.requests: Optional[Counter] = None
        self.latency: Optional[Histogram] = None
        self.kernel_batches: Optional[Counter] = None
        self.kernel_batched_requests: Optional[Counter] = None
        self.kernel_fallbacks: Optional[CounterVec] = None
        self._bound = False

    # -------------------------------------------------------------- bind

    def _bind_requests(self) -> bool:
        """Register the request, latency and kernel handles and bind
        the recorder; ``False`` when an earlier bind already did."""
        if self._bound:
            return False
        self._bound = True
        reg = self.registry
        self.requests = reg.counter(f"{PREFIX}_requests_total")
        self.latency = reg.histogram(f"{PREFIX}_request_latency_us")
        self.kernel_batches = reg.counter(f"{PREFIX}_kernel_batches_total")
        self.kernel_batched_requests = reg.counter(
            f"{PREFIX}_kernel_batched_requests_total"
        )
        self.kernel_fallbacks = reg.counter_vec(
            f"{PREFIX}_kernel_fallback_requests_total", "reason"
        )
        self.recorder.bind(reg, window_hist=self.latency.hist)
        return True

    def bind(self, ssd) -> None:
        """Resolve every handle against ``ssd`` (idempotent)."""
        if not self._bind_requests():
            return
        reg = self.registry
        self._bind_scheme(ssd.scheme)
        if ssd.buffer is not None:
            stats = ssd.buffer.stats
            reg.gauge(
                f"{PREFIX}_buffer_pages_buffered_total",
                lambda: float(stats.pages_buffered),
            )
            reg.gauge(
                f"{PREFIX}_buffer_pages_destaged_total",
                lambda: float(stats.pages_destaged),
            )
            reg.gauge(
                f"{PREFIX}_buffer_overwrite_hits_total",
                lambda: float(stats.overwrite_hits),
            )

    def _bind_scheme(self, scheme) -> None:
        reg = self.registry
        gc = scheme.gc_counters
        io = scheme.io_counters
        allocator = scheme.allocator
        for fname in (
            "blocks_erased",
            "pages_migrated",
            "pages_examined",
            "dedup_skipped",
            "promotions",
            "gc_invocations",
            "gc_busy_us",
            "gc_read_us",
            "gc_hash_us",
            "gc_write_us",
            "gc_erase_us",
        ):
            # blocks_erased -> cagc_gc_blocks_erased_total, but the
            # fields already carrying the gc_ prefix keep a single one.
            short = fname[3:] if fname.startswith("gc_") else fname
            reg.gauge(
                f"{PREFIX}_gc_{short}_total",
                (lambda g=gc, f=fname: float(getattr(g, f))),
            )
        for fname in (
            "logical_pages_written",
            "user_pages_programmed",
            "inline_dedup_hits",
            "read_requests",
            "write_requests",
            "trim_requests",
            "pages_read",
        ):
            reg.gauge(
                f"{PREFIX}_io_{fname}_total",
                (lambda i=io, f=fname: float(getattr(i, f))),
            )
        reg.gauge(
            f"{PREFIX}_waf",
            (lambda i=io, g=gc: i.write_amplification(g)),
        )
        reg.gauge(
            f"{PREFIX}_free_blocks", lambda: float(allocator.free_blocks)
        )
        reg.gauge(f"{PREFIX}_free_fraction", allocator.free_fraction)
        index = getattr(scheme, "victim_index", None)
        if index is not None:
            reg.gauge(
                f"{PREFIX}_victim_candidates",
                (lambda ix=index: float(len(ix))),
            )
        # Wear is O(blocks) to summarize: values-only, never per tick.
        reg.gauge(
            f"{PREFIX}_wear_max_erase",
            (lambda s=scheme: float(s.wear().max_erase)),
            sampled=False,
        )

    # ---------------------------------------------------------- hot path

    def on_complete(self, now_us: float, latency_us: float, ssd) -> None:
        """Per-request hook (single predicated call from the device)."""
        self.requests.value += 1.0
        self.latency.hist.record(latency_us)
        recorder = self.recorder
        if now_us >= recorder.next_due_us:
            recorder.sample(now_us)

    def on_batch(self, latencies_us: np.ndarray, end_us: float, ssd) -> None:
        """Batch-folded form for the vectorized kernel (exact)."""
        self.requests.value += float(latencies_us.size)
        self.latency.hist.record_many(latencies_us)
        self.kernel_batches.value += 1.0
        self.kernel_batched_requests.value += float(latencies_us.size)
        recorder = self.recorder
        if end_us >= recorder.next_due_us:
            recorder.sample(end_us)

    def on_fallback(self, reason: str) -> None:
        """One reference-path request inside a vectorized replay."""
        self.kernel_fallbacks.labels(reason).value += 1.0

    def finish(self, now_us: float, ssd) -> None:
        """Final boundary sample at end of replay."""
        self.recorder.sample(now_us)

    # ---------------------------------------------------------- snapshot

    def snapshot(self) -> MetricsSnapshot:
        times_us, series = self.recorder.arrays()
        return MetricsSnapshot(
            values=self.registry.sample_values(),
            times_us=times_us,
            series=series,
            interval_us=self.recorder.interval_us,
        )


class ArrayMetrics(DeviceMetrics):
    """Array-tier bundle: the device handles plus per-device and
    per-tenant label dimensions.

    Every completion feeds the global counter *and* exactly one
    ``device`` child and one ``tenant`` child, so each labeled family
    partitions its global parent exactly (pinned by a hypothesis
    property test).  The latency histograms are not kept twice: the
    global, per-device and per-tenant handles wrap the array's own
    :class:`~repro.array.telemetry.ArrayTelemetry` histograms, which
    the array records every latency into exactly once.  The completion
    hooks therefore only bump counters and clock the recorder.
    """

    def __init__(
        self,
        interval_us: float = DEFAULT_INTERVAL_US,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(interval_us=interval_us, registry=registry)
        self.device_requests: Optional[CounterVec] = None
        self.tenant_requests: Optional[CounterVec] = None
        self.device_latency: Optional[HistogramVec] = None
        self.tenant_latency: Optional[HistogramVec] = None
        self._device_req: List[Counter] = []
        self._tenant_req: List[Counter] = []
        self._device_hist: List[LatencyHistogram] = []
        self._tenant_hist: List[LatencyHistogram] = []

    def bind_array(self, array, devices: int, tenants: int) -> None:
        """Resolve the global handles plus one child per label value,
        with every latency handle wrapping ``array.telemetry``."""
        self._bind_requests()
        reg = self.registry
        self.device_requests = reg.counter_vec(
            f"{PREFIX}_requests_total", "device"
        )
        self.tenant_requests = reg.counter_vec(
            f"{PREFIX}_requests_total", "tenant"
        )
        self.device_latency = reg.histogram_vec(
            f"{PREFIX}_request_latency_us", "device"
        )
        self.tenant_latency = reg.histogram_vec(
            f"{PREFIX}_request_latency_us", "tenant"
        )
        #: dense child handles: the hot path indexes, never hashes.
        self._device_req = [
            self.device_requests.labels(i) for i in range(devices)
        ]
        self._tenant_req = [
            self.tenant_requests.labels(t) for t in range(tenants)
        ]
        telemetry = array.telemetry
        self.latency.hist = telemetry.hist
        self._device_hist = telemetry.device_hists
        self._tenant_hist = telemetry.tenant_hists
        for i, hist in enumerate(self._device_hist):
            self.device_latency.labels(i).hist = hist
        for t, hist in enumerate(self._tenant_hist):
            self.tenant_latency.labels(t).hist = hist
        self.recorder.bind(reg, window_hist=telemetry.hist)
        for i, lane in enumerate(array.lanes):
            gc = lane.scheme.gc_counters
            reg.gauge(
                f"{PREFIX}_gc_blocks_erased_total",
                (lambda g=gc: float(g.blocks_erased)),
                labels=(("device", str(i)),),
            )
            reg.gauge(
                f"{PREFIX}_gc_busy_us_total",
                (lambda g=gc: float(g.gc_busy_us)),
                labels=(("device", str(i)),),
            )
        reg.gauge(
            f"{PREFIX}_gc_blocks_erased_total",
            (
                lambda lanes=array.lanes: float(
                    sum(l.scheme.gc_counters.blocks_erased for l in lanes)
                )
            ),
        )

    def on_array_complete(self, device: int, tenant: int, now_us: float) -> None:
        """One finished request on ``device`` belonging to ``tenant``
        (its latency is already in the shared histograms)."""
        self.requests.value += 1.0
        self._device_req[device].value += 1.0
        self._tenant_req[tenant].value += 1.0
        recorder = self.recorder
        if now_us >= recorder.next_due_us:
            recorder.sample(now_us)

    def on_array_batch(
        self,
        device: int,
        tenant_ids: np.ndarray,
        latencies_us: np.ndarray,
        end_us: float,
    ) -> None:
        """Batch-folded form for the epoch array kernel: one device's
        run of completions with their per-request tenant ids (the
        latencies are already in the shared histograms).

        Counter increments are exact; the time-series recorder clocks
        at batch boundaries, the same deliberate cadence difference the
        single-device kernel has.
        """
        n = latencies_us.size
        if not n:
            return
        self.requests.value += float(n)
        self.kernel_batches.value += 1.0
        self.kernel_batched_requests.value += float(n)
        self._device_req[device].value += float(n)
        counts = np.bincount(tenant_ids)
        for tenant in np.flatnonzero(counts):
            self._tenant_req[tenant].value += float(counts[tenant])
        recorder = self.recorder
        if end_us >= recorder.next_due_us:
            recorder.sample(end_us)


__all__ = [
    "ArrayMetrics",
    "Counter",
    "CounterVec",
    "DEFAULT_INTERVAL_US",
    "DeviceMetrics",
    "Gauge",
    "Histogram",
    "HistogramVec",
    "MetricsRegistry",
    "MetricsSnapshot",
    "PREFIX",
    "sample_id",
]
