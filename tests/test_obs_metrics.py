"""The unified metrics registry: handle semantics, label partitioning,
the time-series recorder, and — the load-bearing contract — that an
attached metrics bundle is purely observational: with metrics on, every
scheme x policy trajectory stays sha256-identical to the bare replay on
both kernels.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.metrics import (
    ArrayMetrics,
    Counter,
    CounterVec,
    DeviceMetrics,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    sample_id,
)
from repro.obs.series import TimeSeriesRecorder, percentile_from_counts


class TestSampleId:
    def test_bare_name(self):
        assert sample_id("cagc_requests_total") == "cagc_requests_total"

    def test_labels_render_prometheus_style(self):
        assert (
            sample_id("cagc_requests_total", (("tenant", "3"),))
            == 'cagc_requests_total{tenant="3"}'
        )


class TestRegistry:
    def test_registration_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.histogram("h") is reg.histogram("h")
        assert reg.counter_vec("v", "tenant") is reg.counter_vec("v", "tenant")

    def test_type_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")

    def test_callback_gauge_is_lazy(self):
        reads = []
        reg = MetricsRegistry()
        gauge = reg.gauge("g", fn=lambda: reads.append(1) or 7.0)
        assert reads == []  # registration costs nothing
        assert gauge.sample() == 7.0
        assert len(reads) == 1

    def test_unsampled_gauge_kept_out_of_series_scalars(self):
        reg = MetricsRegistry()
        reg.gauge("expensive", fn=lambda: 1.0, sampled=False)
        reg.counter("cheap").inc()
        sampled = dict(reg.iter_scalars(sampled_only=True))
        assert "expensive" not in sampled and "cheap" in sampled
        assert "expensive" in reg.sample_values()

    def test_histogram_value_rows(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat")
        hist.observe(10.0)
        hist.observe(20.0)
        values = reg.sample_values()
        assert values["lat_count"] == 2.0
        assert values["lat_sum"] == 30.0
        assert values["lat_max"] == 20.0

    def test_observe_many_matches_per_event(self):
        a, b = Histogram("a"), Histogram("b")
        values = np.array([3.0, 55.0, 700.0, 55.0])
        a.observe_many(values)
        for v in values:
            b.observe(float(v))
        assert np.array_equal(a.hist.counts, b.hist.counts)
        assert a.hist.sum_us == b.hist.sum_us
        assert a.hist.max_us == b.hist.max_us

    def test_vec_children_cached_and_sorted(self):
        vec = CounterVec("c", "device")
        assert vec.labels(1) is vec.labels(1)
        vec.labels(2).inc(5)
        vec.labels(0).inc(1)
        assert [c.labels for c in vec.children()] == [
            (("device", "0"),),
            (("device", "1"),),
            (("device", "2"),),
        ]


class TestPartitionLaw:
    """Per-device / per-tenant labeled counters exactly partition their
    global parent: every recording site feeds the parent and exactly one
    child per label dimension."""

    @given(
        events=st.lists(
            st.tuples(
                st.integers(0, 3),  # device
                st.integers(0, 2),  # tenant
                st.integers(1, 1_000),  # amount (integral: exact sums)
            ),
            max_size=80,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_labeled_counters_partition_global(self, events):
        reg = MetricsRegistry()
        parent = reg.counter("total")
        by_device = reg.counter_vec("total", "device")
        by_tenant = reg.counter_vec("total", "tenant")
        for device, tenant, amount in events:
            parent.add(amount)
            by_device.labels(device).add(amount)
            by_tenant.labels(tenant).add(amount)
        assert by_device.sum() == parent.value
        assert by_tenant.sum() == parent.value


class TestTimeSeriesRecorder:
    def _bound(self, interval_us=10.0, max_samples=8):
        reg = MetricsRegistry()
        counter = reg.counter("c")
        recorder = TimeSeriesRecorder(
            interval_us=interval_us, max_samples=max_samples
        )
        recorder.bind(reg)
        return reg, counter, recorder

    def test_cadence_is_caller_gated(self):
        # The hot path compares sim-time against next_due_us and only
        # then pays for sample(); the recorder re-arms relative to the
        # sampled time, skipping past idle gaps instead of backlogging.
        _, counter, recorder = self._bound(interval_us=10.0)
        counter.inc()
        for t in (0.0, 5.0, 12.0):
            if t >= recorder.next_due_us:
                recorder.sample(t)
        times, columns = recorder.arrays()
        assert list(times) == [0.0, 12.0]
        assert list(columns["c"]) == [1.0, 1.0]
        assert recorder.next_due_us == 22.0

    def test_decimation_halves_and_doubles_interval(self):
        _, counter, recorder = self._bound(interval_us=1.0, max_samples=64)
        t = 0.0
        for i in range(150):
            counter.inc()
            recorder.sample(t)
            t += 2.0
        assert recorder.samples <= 64
        assert recorder.interval_us > 1.0  # doubled at least once
        times, columns = recorder.arrays()
        assert np.all(np.diff(times) > 0)  # decimation keeps order
        assert np.all(np.diff(columns["c"]) >= 0)  # counters stay monotone

    def test_percentile_from_counts_overflow_goes_to_max(self):
        from repro.obs.telemetry import LatencyHistogram

        hist = LatencyHistogram()
        hist.record(1e9)  # beyond the last edge: overflow bucket
        p = percentile_from_counts(hist.counts, hist.total, hist.max_us, 99.0)
        assert p == hist.max_us


GRID = [
    (scheme, policy)
    for scheme in ("baseline", "inline-dedupe", "cagc", "lba-hotcold")
    for policy in ("greedy", "cost-benefit", "region-aware")
]


class TestObservationalOnly:
    """Metrics never perturb the simulation: all 12 scheme x policy
    trajectories are sha256-identical with and without a bundle, on both
    kernels."""

    @staticmethod
    def _digest(result) -> str:
        samples = np.ascontiguousarray(result.response_times_us)
        return hashlib.sha256(samples.tobytes()).hexdigest()

    @pytest.mark.parametrize("kernel", ["reference", "vectorized"])
    def test_trajectories_identical_with_metrics(self, kernel):
        from repro.device.ssd import SSD
        from repro.oracle.diff import build_scheme
        from repro.oracle.fuzz import fuzz_config, fuzz_trace

        config = replace(fuzz_config(), kernel=kernel)
        trace = fuzz_trace(0, config, n_requests=200)
        for scheme, policy in GRID:
            bare = SSD(build_scheme(scheme, policy, config)).replay(trace)
            metrics = DeviceMetrics()
            metered = SSD(
                build_scheme(scheme, policy, config), metrics=metrics
            ).replay(trace)
            assert self._digest(bare) == self._digest(metered), (
                scheme,
                policy,
                kernel,
            )
            snapshot = metered.metrics
            assert isinstance(snapshot, MetricsSnapshot)
            assert snapshot.values["cagc_requests_total"] == bare.latency.count

    def test_cross_kernel_aggregates_match(self):
        """The kernel-independent metrics (request counter, latency
        histogram fold) agree across kernels even though the sampler
        clocks differently (per completion vs per batch)."""
        from repro.device.ssd import SSD
        from repro.oracle.diff import build_scheme
        from repro.oracle.fuzz import fuzz_config, fuzz_trace

        snapshots = {}
        meters = {}
        for kernel in ("reference", "vectorized"):
            config = replace(fuzz_config(), kernel=kernel)
            trace = fuzz_trace(1, config, n_requests=200)
            metrics = DeviceMetrics()
            SSD(build_scheme("cagc", "greedy", config), metrics=metrics).replay(
                trace
            )
            meters[kernel] = metrics
            snapshots[kernel] = metrics.snapshot()
        ref, vec = meters["reference"], meters["vectorized"]
        assert ref.requests.value == vec.requests.value
        assert np.array_equal(ref.latency.hist.counts, vec.latency.hist.counts)
        assert ref.latency.hist.sum_us == vec.latency.hist.sum_us
        assert ref.latency.hist.max_us == vec.latency.hist.max_us
        assert (
            snapshots["reference"].values["cagc_waf"]
            == snapshots["vectorized"].values["cagc_waf"]
        )


class TestDeviceMetricsSnapshot:
    @pytest.fixture(scope="class")
    def snapshot(self):
        from repro.config import small_config
        from repro.device.ssd import run_trace
        from repro.schemes import make_scheme
        from repro.workloads.fiu import build_fiu_trace

        cfg = small_config(blocks=64, pages_per_block=16)
        trace = build_fiu_trace("mail", cfg, n_requests=1500, fill_factor=3.0)
        metrics = DeviceMetrics(interval_us=5_000.0)
        result = run_trace(make_scheme("cagc", cfg), trace, metrics=metrics)
        return result.metrics

    def test_series_and_values_wired(self, snapshot):
        assert snapshot.samples > 0
        assert snapshot.times_us.size == snapshot.samples
        for column in snapshot.series.values():
            assert column.size == snapshot.samples
        # GC ran (fill_factor 3.0 churns), so the lazy gauges moved.
        assert snapshot.values["cagc_gc_blocks_erased_total"] > 0
        assert snapshot.values["cagc_request_latency_us_count"] > 0

    def test_windowed_percentile_columns_present(self, snapshot):
        assert "window_ops" in snapshot.series
        assert "window_p99_us" in snapshot.series
        assert float(snapshot.series["window_ops"].sum()) > 0

    def test_counter_columns_monotone(self, snapshot):
        for name, column in snapshot.series.items():
            if name.endswith("_total"):
                assert np.all(np.diff(column) >= -1e-9), name

    def test_gc_activity_series(self, snapshot):
        free = snapshot.series["cagc_free_fraction"]
        assert ((free >= 0) & (free <= 1)).all()
        erased = snapshot.series["cagc_gc_blocks_erased_total"]
        assert erased[-1] > erased[0]  # GC ran during the replay


def _array_run(coordination="independent", metrics=None, **cfg_kwargs):
    """3 tenants over 2 devices with an ArrayMetrics bundle attached."""
    from repro.array import SSDArray
    from repro.config import small_config
    from repro.oracle.diff import build_scheme
    from repro.workloads.fiu import build_fiu_trace
    from repro.workloads.multiplex import multiplex_traces

    cfg = small_config(
        blocks=64, pages_per_block=16, gc_mode="blocking", **cfg_kwargs
    )
    # 3 tenants over 2 devices: scale each tenant's footprint to its
    # layout window (same construction the CLI's array path uses).
    slots = 2
    tenant_traces = [
        build_fiu_trace(
            "mail",
            cfg,
            n_requests=800,
            fill_factor=3.0 / slots,
            lpn_utilization=0.84 / slots,
            seed=100 + t,
        )
        for t in range(3)
    ]
    merged = multiplex_traces(
        tenant_traces, devices=2, pages_per_device=cfg.logical_pages
    )
    schemes = [build_scheme("cagc", "greedy", cfg) for _ in range(2)]
    array = SSDArray(
        schemes,
        coordination=coordination,
        ncq_depth=16,
        metrics=metrics if metrics is not None else ArrayMetrics(),
    )
    return array.replay(merged)


COORDINATIONS = ("independent", "staggered", "global-token")


class TestArrayMetrics:
    @pytest.fixture(scope="class")
    def result(self):
        return _array_run()

    def test_device_and_tenant_families_partition_global(self, result):
        values = result.metrics.values
        total = values["cagc_requests_total"]
        assert total == result.telemetry.hist.total
        device_sum = sum(
            v
            for k, v in values.items()
            if k.startswith('cagc_requests_total{device="')
        )
        tenant_sum = sum(
            v
            for k, v in values.items()
            if k.startswith('cagc_requests_total{tenant="')
        )
        assert device_sum == total
        assert tenant_sum == total

    def test_per_device_gc_gauges_in_series(self, result):
        snapshot = result.metrics
        assert 'cagc_gc_blocks_erased_total{device="0"}' in snapshot.series
        assert 'cagc_gc_blocks_erased_total{device="1"}' in snapshot.series
        per_device = sum(
            float(snapshot.series[f'cagc_gc_blocks_erased_total{{device="{i}"}}'][-1])
            for i in range(2)
        )
        assert per_device == snapshot.values["cagc_gc_blocks_erased_total"]

    @pytest.mark.parametrize("coordination", COORDINATIONS)
    def test_kernel_counters_cover_every_request(self, coordination):
        """Every request of an epoch-kernel replay is either batched or
        a reason-tagged fallback, under every coordination."""
        values = _array_run(coordination, kernel="vectorized").metrics.values
        family = 'cagc_kernel_fallback_requests_total{reason="'
        fallbacks = sum(v for k, v in values.items() if k.startswith(family))
        assert fallbacks > 0
        assert (
            values["cagc_kernel_batched_requests_total"] + fallbacks
            == values["cagc_requests_total"]
        )

    @pytest.mark.parametrize("kernel", ("reference", "vectorized"))
    @pytest.mark.parametrize("coordination", COORDINATIONS)
    def test_latencies_fold_once(self, monkeypatch, kernel, coordination):
        """Work-counter gate: each latency lands in the global, device
        and tenant histograms once — the ArrayMetrics handles share the
        array telemetry's histograms instead of keeping copies."""
        from repro.obs.telemetry import LatencyHistogram

        calls = {"record": 0, "record_many": 0}
        for name in calls:
            original = getattr(LatencyHistogram, name)

            def counted(self, value, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, value)

            monkeypatch.setattr(LatencyHistogram, name, counted)
        tenants_per_batch = []
        on_array_batch = ArrayMetrics.on_array_batch

        def batch(self, device, tenant_ids, latencies_us, end_us):
            tenants_per_batch.append(np.unique(tenant_ids).size)
            return on_array_batch(self, device, tenant_ids, latencies_us, end_us)

        monkeypatch.setattr(ArrayMetrics, "on_array_batch", batch)
        metrics = ArrayMetrics()
        result = _array_run(coordination, metrics=metrics, kernel=kernel)
        requests = result.requests_completed
        batched = metrics.kernel_batched_requests.value
        assert len(tenants_per_batch) == metrics.kernel_batches.value
        assert calls["record"] == 3 * (requests - batched)
        assert calls["record_many"] == sum(2 + t for t in tenants_per_batch)
        if kernel == "reference":
            assert calls == {"record": 3 * requests, "record_many": 0}
