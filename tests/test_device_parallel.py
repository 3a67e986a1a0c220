"""Tests for the channel-parallel SSD controller."""

from dataclasses import replace

import numpy as np
import pytest

from repro.config import GeometryConfig, SSDConfig, TimingConfig
from repro.device.parallel import ParallelSSD
from repro.device.ssd import SSD
from repro.schemes import make_scheme
from repro.workloads.fiu import build_fiu_trace
from repro.workloads.request import IORequest, OpKind
from repro.workloads.trace import Trace


def cfg(channels=2) -> SSDConfig:
    return SSDConfig(
        geometry=GeometryConfig(channels=channels, pages_per_block=8, blocks=32),
        timing=TimingConfig(overhead_us=0.0),
    )


class TestParallelService:
    def test_simultaneous_requests_overlap_across_channels(self):
        # two 1-page reads of mapped data on different channels
        config = cfg(channels=2)
        scheme = make_scheme("baseline", config)
        # place content on both channels: blocks 0 (ch0) and 1 (ch1)
        scheme.write_page(0, 1, 0.0)
        for _ in range(7):
            scheme.write_page(10, 2, 0.0)  # fill block 0
        scheme.write_page(1, 3, 0.0)  # lands in block 1 -> channel 1
        trace = Trace.from_requests(
            [
                IORequest(1000.0, OpKind.READ, 0, 1),
                IORequest(1000.0, OpKind.READ, 1, 1),
            ]
        )
        result = ParallelSSD(scheme).replay(trace)
        # both finish in one read time: true channel parallelism
        assert result.response_times_us.tolist() == [12.0, 12.0]

    def test_same_channel_requests_serialize(self):
        config = cfg(channels=2)
        scheme = make_scheme("baseline", config)
        scheme.write_page(0, 1, 0.0)
        trace = Trace.from_requests(
            [
                IORequest(1000.0, OpKind.READ, 0, 1),
                IORequest(1000.0, OpKind.READ, 0, 1),
            ]
        )
        result = ParallelSSD(scheme).replay(trace)
        assert sorted(result.response_times_us.tolist()) == [12.0, 24.0]

    def test_writes_spread_across_channels_by_lpn(self):
        config = cfg(channels=4)
        scheme = make_scheme("baseline", config)
        reqs = [
            IORequest(0.0, OpKind.WRITE, lpn, 1, (lpn,)) for lpn in range(4)
        ]
        result = ParallelSSD(scheme).replay(Trace.from_requests(reqs))
        # LPNs 0..3 dispatch to 4 distinct channels -> all take one slot
        assert result.response_times_us.tolist() == [16.0] * 4

    def test_same_extent_writes_stay_ordered(self):
        config = cfg(channels=4)
        scheme = make_scheme("baseline", config)
        reqs = [
            IORequest(0.0, OpKind.WRITE, 5, 1, (111,)),
            IORequest(0.0, OpKind.WRITE, 5, 1, (222,)),
        ]
        ParallelSSD(scheme).replay(Trace.from_requests(reqs))
        assert scheme.logical_content() == {5: 222}

    def test_unmapped_read_serviced(self):
        config = cfg()
        result = ParallelSSD(make_scheme("baseline", config)).replay(
            Trace.from_requests([IORequest(0.0, OpKind.READ, 99, 1)])
        )
        assert result.latency.count == 1


class TestGCIsolation:
    def test_gc_on_one_channel_does_not_stall_other(self):
        """The parallel-GC claim: while channel 0 pays a GC burst,
        channel 1 keeps serving reads at raw latency."""
        config = cfg(channels=2)
        scheme = make_scheme("baseline", config)
        # fill until the device sits below the GC watermark
        lpns = int(config.logical_pages * 0.8)
        fp = 0
        lpn = 0
        while not scheme.needs_gc():
            scheme.write_page(lpn % lpns, fp, 0.0)
            fp += 1
            lpn += 1
        assert scheme.needs_gc()
        # find an LPN mapped to channel 1 for the concurrent read
        read_lpn = next(
            lpn
            for lpn in range(lpns)
            if scheme.flash.geometry.ppn_to_channel(scheme.mapping.lookup(lpn)) == 1
        )
        trace = Trace.from_requests(
            [
                IORequest(10_000.0, OpKind.WRITE, 0, 1, (999_999,)),  # ch0 + GC
                IORequest(10_000.0, OpKind.READ, read_lpn, 1),        # ch1
            ]
        )
        result = ParallelSSD(scheme).replay(trace)
        # latencies record in completion order: the read finishes first
        read_latency, write_latency = sorted(result.response_times_us)
        assert write_latency > scheme.timing.erase_us  # paid the GC burst
        assert read_latency == pytest.approx(12.0)     # unaffected


class TestConsistencyAndComparison:
    def test_parallel_preserves_logical_content_disjoint_extents(self):
        """With non-overlapping write extents (no cross-channel ordering
        hazards) the parallel device must agree with the serial one."""
        rng = np.random.default_rng(5)
        config = cfg(channels=4)
        reqs = []
        t = 0.0
        fp = 0
        slots = list(range(0, int(config.logical_pages) - 4, 4))
        for _ in range(3):
            for slot in slots:
                reqs.append(IORequest(t, OpKind.WRITE, slot, 2, (fp, fp + 1)))
                t += float(rng.integers(1, 50))
                fp += 2
        trace = Trace.from_requests(reqs)
        serial_scheme = make_scheme("cagc", config)
        parallel_scheme = make_scheme("cagc", config)
        SSD(serial_scheme).replay(trace)
        ParallelSSD(parallel_scheme).replay(trace)
        parallel_scheme.check_invariants()
        assert (
            parallel_scheme.logical_content() == serial_scheme.logical_content()
        )

    def test_parallel_device_invariants_on_real_workload(self):
        config = cfg(channels=4)
        trace = build_fiu_trace("homes", config, n_requests=2000)
        scheme = make_scheme("cagc", config)
        ParallelSSD(scheme).replay(trace)
        scheme.check_invariants()

    def test_more_channels_reduce_queueing(self):
        means = {}
        for channels in (1, 4):
            config = cfg(channels=channels)
            trace = build_fiu_trace(
                "homes", config, n_requests=3000, mean_interarrival_us=30.0
            )
            result = ParallelSSD(make_scheme("baseline", config)).replay(trace)
            means[channels] = result.latency.mean_us
        assert means[4] < means[1]


class TestInheritedDeviceSurface:
    """Everything but dispatch is the inherited ``SSD`` code: the GC
    hook, the kernel fallback, metrics — and the one mode the
    per-channel model does not define is refused."""

    def test_gc_hook_runs_the_invariant_checker(self):
        from repro.oracle.invariants import check_all

        config = cfg(channels=4)
        trace = build_fiu_trace("homes", config, n_requests=2000)
        device = ParallelSSD(make_scheme("cagc", config))
        episodes = []

        def hook(ssd):
            episodes.append(ssd.sim.now)
            check_all(ssd)

        device.gc_hook = hook
        device.replay(trace)
        assert episodes

    def test_vectorized_config_replays_on_the_event_loop(self):
        results = {}
        for kernel in ("reference", "vectorized"):
            config = replace(cfg(channels=4), kernel=kernel)
            trace = build_fiu_trace("homes", config, n_requests=2000)
            results[kernel] = ParallelSSD(make_scheme("cagc", config)).replay(trace)
        ref, vec = results["reference"], results["vectorized"]
        assert np.array_equal(ref.response_times_us, vec.response_times_us)
        assert (ref.latency, ref.gc, ref.io, ref.wear, ref.simulated_us) == (
            vec.latency, vec.gc, vec.io, vec.wear, vec.simulated_us
        )
        assert ref.blocks_erased > 0
        assert vec.kernel_gc == {}

    def test_runspec_result_carries_metrics(self):
        from repro.runner import RunSpec, freeze_overrides

        spec = RunSpec(
            workload="homes",
            scheme="cagc",
            scale="quick",
            config_overrides=freeze_overrides({"geometry.channels": 4}),
            device="parallel",
        )
        trace = spec.build_trace()
        result = spec.replay(trace)
        assert result.metrics is not None
        assert result.metrics.values["cagc_requests_total"] == len(trace)

    def test_preemptive_gc_is_rejected(self):
        config = replace(cfg(), gc_mode="preemptive")
        with pytest.raises(ValueError, match="preemptive"):
            ParallelSSD(make_scheme("baseline", config))
