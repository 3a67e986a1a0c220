"""Kernel/orchestrator equivalence: ``kernel=vectorized`` must be
bit-identical to the reference event loop.

The batched kernels (``repro.kernel``) claim exact equivalence, not
approximate agreement — every response time, counter and state column
must match the per-request path.  These tests pin that down at the
places the batching is most likely to crack:

* chunk boundaries: a GC trigger landing mid-chunk (and at the very
  first/last request of a chunk) must split runs exactly where the
  reference path would have run GC;
* fallback seams: configurations the kernels do not model (a DRAM
  write buffer splitting write runs, preemptive GC) must silently take
  the reference path, and requests they do not model (reads of
  never-written LPNs) must resolve identically;
* the full scheme x policy matrix: sha256 trajectory identity across
  all 12 combinations on a real-trace workload.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import small_config
from repro.device.ssd import SSD, run_trace
from repro.kernel import device_eligible
from repro.oracle.diff import build_scheme, diff_kernels
from repro.oracle.fuzz import (
    PROFILES,
    fuzz_config,
    fuzz_trace,
    lpn_span,
    rows_to_trace,
)
from repro.workloads.fiu import build_fiu_trace
from repro.workloads.request import OpKind
from repro.workloads.stream import StreamingTrace

SCHEMES = ("baseline", "inline-dedupe", "cagc", "lba-hotcold")
POLICIES = ("greedy", "cost-benefit", "random")

_W, _R, _T = int(OpKind.WRITE), int(OpKind.READ), int(OpKind.TRIM)


def _trajectory_digest(result, scheme) -> str:
    h = hashlib.sha256()
    h.update(result.response_times_us.tobytes())
    h.update(repr(result.gc).encode())
    h.update(repr(result.io).encode())
    h.update(repr(result.wear).encode())
    h.update(repr(result.simulated_us).encode())
    h.update(repr(sorted(scheme.state_snapshot().content.items())).encode())
    return h.hexdigest()


class TestTrajectoryIdentity:
    """sha256-identical trajectories across the scheme x policy matrix."""

    @pytest.mark.parametrize("scheme_name", SCHEMES)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_all_combos_identical(self, scheme_name, policy):
        digests = {}
        for kernel in ("reference", "vectorized"):
            cfg = small_config(blocks=64, pages_per_block=16, kernel=kernel)
            trace = build_fiu_trace("mail", cfg, n_requests=1200)
            scheme = build_scheme(scheme_name, policy, cfg)
            result = SSD(scheme).replay(trace)
            digests[kernel] = _trajectory_digest(result, scheme)
        assert digests["reference"] == digests["vectorized"]


class TestChunkBoundaries:
    """Runs must split exactly at GC triggers wherever the chunk edges
    fall — including chunks so small every boundary case is hit."""

    @pytest.mark.parametrize("chunk", [3, 7, 64])
    @pytest.mark.parametrize("scheme_name", ["baseline", "cagc", "inline-dedupe"])
    def test_gc_trigger_mid_chunk(self, chunk, scheme_name):
        # gc-fill floods the tiny fuzz device: triggers land inside,
        # at the start of, and at the end of nearly every chunk.
        t = fuzz_trace(2, n_requests=240, profile="gc-fill")
        trace = StreamingTrace(lambda: t.iter_chunks(chunk), t.name)
        assert diff_kernels(trace, scheme=scheme_name, config=fuzz_config()) is None

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=40),
        chunk=st.sampled_from([5, 11, 32]),
    )
    def test_profiles_property(self, seed, chunk):
        profile = PROFILES[seed % len(PROFILES)]
        t = fuzz_trace(seed, n_requests=160, profile=profile)
        trace = StreamingTrace(lambda: t.iter_chunks(chunk), t.name)
        assert diff_kernels(trace, scheme="cagc", config=fuzz_config()) is None


class TestInlineDedupePolicies:
    """The inline-dedupe plan/apply kernel must be exact under every
    victim policy — GC boundaries land wherever the policy steers
    them, so each policy exercises different plan split points."""

    @pytest.mark.parametrize(
        "policy", ("greedy", "cost-benefit", "random", "region-aware")
    )
    def test_digest_identity(self, policy):
        digests = {}
        for kernel in ("reference", "vectorized"):
            cfg = small_config(blocks=64, pages_per_block=16, kernel=kernel)
            trace = build_fiu_trace("mail", cfg, n_requests=1200)
            scheme = build_scheme("inline-dedupe", policy, cfg)
            result = SSD(scheme).replay(trace)
            digests[kernel] = _trajectory_digest(result, scheme)
        assert digests["reference"] == digests["vectorized"]

    @pytest.mark.parametrize(
        "policy", ("greedy", "cost-benefit", "random", "region-aware")
    )
    def test_gc_heavy_fuzz(self, policy):
        trace = fuzz_trace(7, n_requests=300, profile="gc-fill")
        assert (
            diff_kernels(trace, scheme="inline-dedupe", policy=policy) is None
        )


class TestTelemetryParity:
    """Metrics-enabled vectorized replays stay on the batched path;
    the histogram fold must be exact and the percentiles identical."""

    @pytest.mark.parametrize(
        "scheme_name", ("baseline", "cagc", "inline-dedupe")
    )
    def test_histogram_exact(self, scheme_name):
        from repro.obs.metrics import DeviceMetrics

        hists = {}
        for kernel in ("reference", "vectorized"):
            cfg = small_config(blocks=64, pages_per_block=16, kernel=kernel)
            trace = build_fiu_trace("mail", cfg, n_requests=1500)
            metrics = DeviceMetrics(interval_us=500.0)
            ssd = SSD(build_scheme(scheme_name, "greedy", cfg), metrics=metrics)
            ssd.replay(trace)
            hists[kernel] = metrics.latency.hist
            assert metrics.recorder.samples > 1
        ref, vec = hists["reference"], hists["vectorized"]
        assert np.array_equal(ref.counts, vec.counts)
        assert ref.total == vec.total
        assert ref.sum_us == vec.sum_us  # bit-exact (sequential fold)
        assert ref.max_us == vec.max_us
        assert ref.mean_us == vec.mean_us
        for p in (50.0, 99.0):
            # Identical counts imply identical bucket percentiles; the
            # <=2% acceptance bound is therefore met with zero error.
            assert ref.percentile(p) == vec.percentile(p)

    def test_telemetry_keeps_batched_path(self):
        """An attached DeviceMetrics must not force the reference path."""
        from repro.obs.metrics import DeviceMetrics

        cfg = small_config(blocks=64, pages_per_block=16, kernel="vectorized")
        ssd = SSD(
            build_scheme("cagc", "greedy", cfg),
            metrics=DeviceMetrics(),
        )
        assert device_eligible(ssd)

    def test_record_many_matches_record(self):
        from repro.obs.telemetry import LatencyHistogram

        rng = np.random.default_rng(11)
        samples = rng.exponential(37.0, size=5000) + 0.05
        one = LatencyHistogram()
        for x in samples.tolist():
            one.record(x)
        # Fold in uneven slices to exercise the running-sum seeding.
        many = LatencyHistogram()
        for lo, hi in ((0, 1), (1, 17), (17, 17), (17, 4000), (4000, 5000)):
            many.record_many(samples[lo:hi])
        assert np.array_equal(one.counts, many.counts)
        assert one.total == many.total
        assert one.sum_us == many.sum_us
        assert one.max_us == many.max_us


class TestCagcLargeBlockCollect:
    """Chunk/victim-boundary properties of the lean CAGC collection on a
    128-page-block geometry, where victims can be fully valid."""

    def _config(self, **overrides):
        from repro.config import GeometryConfig

        geometry = GeometryConfig(channels=2, pages_per_block=128, blocks=12)
        return fuzz_config(geometry=geometry, **overrides)

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=30),
        chunk=st.sampled_from([13, 64, 65536]),
    )
    def test_gc_fill_property(self, seed, chunk):
        cfg = self._config()
        t = fuzz_trace(seed, config=cfg, n_requests=400, profile="gc-fill")
        trace = StreamingTrace(lambda: t.iter_chunks(chunk), t.name)
        assert diff_kernels(trace, scheme="cagc", config=cfg) is None

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=20))
    def test_mixed_profile_property(self, seed):
        profile = PROFILES[seed % len(PROFILES)]
        cfg = self._config()
        trace = fuzz_trace(seed, config=cfg, n_requests=400, profile=profile)
        assert diff_kernels(trace, scheme="cagc", config=cfg) is None


class TestCagcCollectOutcomes:
    """Every CAGC victim on the vectorized kernel takes the lean collect,
    unless a tracer wants the reference loop's per-page pipeline spans."""

    def _replay(self, tracer):
        cfg = small_config(blocks=64, pages_per_block=16, kernel="vectorized")
        trace = build_fiu_trace("mail", cfg, n_requests=0, fill_factor=2.0)
        scheme = build_scheme("cagc", "greedy", cfg)
        result = run_trace(scheme, trace, tracer=tracer)
        assert result.gc.blocks_erased > 0
        return scheme.kernel_gc_stats, result.gc.blocks_erased

    def test_untraced_collects_are_lean(self):
        stats, erased = self._replay(None)
        assert stats == {"lean": erased, "fallback[traced-pipeline]": 0}

    def test_traced_collects_take_reference_pipeline(self):
        from repro.obs import Tracer

        stats, erased = self._replay(Tracer())
        assert stats == {"lean": 0, "fallback[traced-pipeline]": erased}


@pytest.mark.parametrize("name", ["baseline", "inline-dedupe"])
def test_plain_copy_collect_outcomes(name):
    """The plain-copy collect counts only its batched path, which every
    victim takes."""
    cfg = small_config(blocks=64, pages_per_block=16, kernel="vectorized")
    trace = build_fiu_trace("homes", cfg, n_requests=0, fill_factor=3.0)
    scheme = build_scheme(name, "greedy", cfg)
    result = run_trace(scheme, trace)
    stats = scheme.kernel_gc_stats
    assert set(stats) == {"batched"}
    assert sum(stats.values()) == result.gc.blocks_erased > 0
    if name == "baseline":
        assert stats["batched"] == result.gc.blocks_erased


@pytest.mark.parametrize(
    "name, events",
    [("baseline", 640), ("inline-dedupe", 416), ("cagc", 446), ("lba-hotcold", 625)],
)
def test_traced_gc_events_match_across_kernels(name, events):
    """A traced replay's ``gc``-track events (bursts, victim selects,
    copy/erase spans) are the same on both kernels."""
    from repro.obs import Tracer

    tracks = {}
    for kernel in ("reference", "vectorized"):
        cfg = small_config(blocks=64, pages_per_block=16, kernel=kernel)
        trace = build_fiu_trace("homes", cfg, n_requests=0, fill_factor=3.0)
        tracer = Tracer()
        run_trace(build_scheme(name, "greedy", cfg), trace, tracer=tracer)
        tracks[kernel] = [e for e in tracer.events() if e.track == "gc"]
    assert len(tracks["reference"]) == events
    assert tracks["vectorized"] == tracks["reference"]


class TestFallbackSeams:
    def test_unmapped_read_fallback(self):
        """Reads of never-written LPNs resolve zero pages on both
        paths, without breaking the runs around them."""
        cfg = fuzz_config()
        span = lpn_span(cfg)
        rows = []
        clock = 0.0
        fp = 1 << 41
        for burst in range(12):
            for k in range(6):
                clock += 7.0
                fp += 1
                rows.append((clock, _W, (burst * 5 + k) % (span // 2), 2, (fp, fp)))
            clock += 7.0
            # The top half of the span is never written.
            rows.append((clock, _R, span - 1, 1, ()))
            clock += 7.0
            rows.append((clock, _R, span - 2, 2, ()))
        trace = rows_to_trace(rows, name="unmapped-reads")
        for scheme_name in ("baseline", "cagc"):
            assert diff_kernels(trace, scheme=scheme_name) is None

    def test_write_buffer_splits_to_reference_path(self):
        """A DRAM write buffer absorbs and reorders run-internal
        writes, so the batched kernels do not model it: the vectorized
        config must take the reference path and stay bit-identical."""
        results = {}
        for kernel in ("reference", "vectorized"):
            cfg = small_config(
                blocks=64,
                pages_per_block=16,
                kernel=kernel,
                write_buffer_pages=8,
            )
            trace = build_fiu_trace("mail", cfg, n_requests=800)
            ssd = SSD(build_scheme("cagc", "greedy", cfg))
            assert not device_eligible(ssd)
            results[kernel] = ssd.replay(trace)
        assert np.array_equal(
            results["reference"].response_times_us,
            results["vectorized"].response_times_us,
        )
        assert results["reference"].gc == results["vectorized"].gc

    def test_preemptive_gc_not_eligible(self):
        cfg = small_config(
            blocks=64, pages_per_block=16, kernel="vectorized", gc_mode="preemptive"
        )
        ssd = SSD(build_scheme("baseline", "greedy", cfg))
        assert not device_eligible(ssd)

    def test_eligible_by_default(self):
        cfg = small_config(blocks=64, pages_per_block=16, kernel="vectorized")
        ssd = SSD(build_scheme("baseline", "greedy", cfg))
        assert device_eligible(ssd)

    def test_reference_config_not_eligible(self):
        cfg = small_config(blocks=64, pages_per_block=16, kernel="reference")
        ssd = SSD(build_scheme("baseline", "greedy", cfg))
        assert not device_eligible(ssd)
