"""Equivalence and oracle-based property tests for the device layer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import GeometryConfig, SSDConfig, TimingConfig
from repro.device.parallel import ParallelSSD
from repro.device.ssd import SSD
from repro.device.writebuffer import WriteBuffer
from repro.schemes import make_scheme
from repro.workloads.fiu import build_fiu_trace


def one_channel_cfg() -> SSDConfig:
    return SSDConfig(
        geometry=GeometryConfig(channels=1, pages_per_block=16, blocks=64),
        timing=TimingConfig(overhead_us=0.0),
    )


class TestSerialParallelEquivalence:
    """With one channel, the parallel controller degenerates to the
    serial one: same dispatch, same queue, same timing — so every
    response time and counter must match bit-for-bit."""

    @pytest.mark.parametrize("scheme_name", ["baseline", "inline-dedupe", "cagc"])
    def test_single_channel_identical(self, scheme_name):
        cfg = one_channel_cfg()
        trace = build_fiu_trace("homes", cfg, n_requests=3000)
        serial_scheme = make_scheme(scheme_name, cfg)
        parallel_scheme = make_scheme(scheme_name, cfg)
        serial = SSD(serial_scheme).replay(trace)
        parallel = ParallelSSD(parallel_scheme).replay(trace)
        assert np.array_equal(serial.response_times_us, parallel.response_times_us)
        assert serial.blocks_erased == parallel.blocks_erased
        assert serial.pages_migrated == parallel.pages_migrated
        assert serial_scheme.logical_content() == parallel_scheme.logical_content()

    @pytest.mark.parametrize("scheme_name", ["inline-dedupe", "cagc"])
    @pytest.mark.parametrize(
        "option", ["metrics", "histogram-latency", "write-buffer"]
    )
    def test_single_channel_identical_with_device_options(
        self, option, scheme_name
    ):
        """The options the controller inherits from ``SSD`` behave the
        same on both: metrics, histogram latency capture, the buffer."""
        from dataclasses import replace

        from repro.obs.metrics import DeviceMetrics

        # Both on the event loop, so the serial device's metrics carry
        # no vectorized-kernel batch counters.
        cfg = replace(one_channel_cfg(), kernel="reference")
        if option == "write-buffer":
            cfg = replace(cfg, write_buffer_pages=64)
        trace = build_fiu_trace("homes", cfg, n_requests=3000)
        results = []
        for device in (SSD, ParallelSSD):
            kwargs = {}
            if option == "metrics":
                kwargs["metrics"] = DeviceMetrics()
            if option == "histogram-latency":
                kwargs["keep_samples"] = False
            results.append(
                device(make_scheme(scheme_name, cfg), **kwargs).replay(trace)
            )
        serial, parallel = results
        assert serial.latency == parallel.latency
        assert np.array_equal(serial.response_times_us, parallel.response_times_us)
        assert (serial.gc, serial.io, serial.wear) == (
            parallel.gc, parallel.io, parallel.wear
        )
        assert serial.blocks_erased > 0
        if option == "metrics":
            a, b = serial.metrics, parallel.metrics
            assert a.samples > 1
            assert a.values == b.values
            assert np.array_equal(a.times_us, b.times_us)
            assert a.series.keys() == b.series.keys()
            for name in a.series:
                assert np.array_equal(a.series[name], b.series[name]), name
        if option == "histogram-latency":
            assert parallel.response_times_us.size == 0
            assert parallel.latency.count == len(trace)
        if option == "write-buffer":
            assert parallel.buffer is not None
            assert serial.buffer == parallel.buffer
            assert parallel.buffer.pages_destaged > 0


class _LRUOracle:
    """Reference LRU write-back buffer, the slow-but-obvious way."""

    def __init__(self, capacity, batch):
        self.capacity = capacity
        self.batch = batch
        self.entries = []  # list of [lpn, fp], LRU first

    def put(self, lpn, fp):
        for entry in self.entries:
            if entry[0] == lpn:
                self.entries.remove(entry)
                self.entries.append([lpn, fp])
                return []
        self.entries.append([lpn, fp])
        evicted = []
        if len(self.entries) > self.capacity:
            for _ in range(min(self.batch, len(self.entries))):
                evicted.append(tuple(self.entries.pop(0)))
        return evicted

    def trim(self, lpn):
        for entry in self.entries:
            if entry[0] == lpn:
                self.entries.remove(entry)
                return True
        return False


class TestWriteBufferOracle:
    @given(
        ops=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1),  # 0=put 1=trim
                st.integers(min_value=0, max_value=12),  # lpn
                st.integers(min_value=0, max_value=99),  # fp
            ),
            max_size=200,
        ),
        capacity=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_lru(self, ops, capacity):
        batch = max(1, capacity // 8)
        buf = WriteBuffer(capacity, destage_batch=batch)
        oracle = _LRUOracle(capacity, batch)
        for op, lpn, fp in ops:
            if op == 0:
                assert buf.put(lpn, fp) == oracle.put(lpn, fp)
            else:
                assert buf.trim(lpn) == oracle.trim(lpn)
            assert len(buf) == len(oracle.entries)
        drained = dict(buf.drain())
        assert drained == {lpn: fp for lpn, fp in oracle.entries}

    @given(
        puts=st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 9)), max_size=150
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_conservation_every_page_destaged_or_buffered(self, puts):
        """Nothing is lost: last content of each LPN is either still
        buffered at drain time or was destaged at some point."""
        buf = WriteBuffer(4, destage_batch=1)
        destaged = {}
        for lpn, fp in puts:
            for e_lpn, e_fp in buf.put(lpn, fp):
                destaged[e_lpn] = e_fp
        for lpn, fp in buf.drain():
            destaged[lpn] = fp
        expected = {}
        for lpn, fp in puts:
            expected[lpn] = fp
        # the final destage of each LPN carries its last-written content
        for lpn, fp in expected.items():
            assert destaged[lpn] == fp
