"""Opt-in throughput regression guard (``pytest -m benchguard``).

Deselected by default (see ``addopts`` in pyproject.toml): wall-clock
benchmarks have no place in the unit suite, but CI can run
``pytest -m benchguard`` as a perf gate.  The guard compares a fresh
snapshot's best-of-rounds timing against the committed
``BENCH_throughput.json`` baseline with a 25% allowance (see
``scripts/check_bench_regression.py`` for the comparison policy).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = REPO_ROOT / "scripts"
BASELINE = REPO_ROOT / "BENCH_throughput.json"

pytestmark = pytest.mark.benchguard


@pytest.fixture(scope="module")
def guard_module():
    sys.path.insert(0, str(SCRIPTS))
    try:
        import check_bench_regression

        yield check_bench_regression
    finally:
        sys.path.remove(str(SCRIPTS))


def test_baseline_snapshot_is_committed_and_comparable(guard_module):
    baseline = json.loads(BASELINE.read_text())
    assert baseline["schema"] == guard_module.SNAPSHOT_SCHEMA
    assert set(baseline["replay"]) == {
        "baseline",
        "inline-dedupe",
        "cagc",
        "baseline@8x",
        "cagc@8x",
        "baseline@64x",
        "cagc@64x",
        "array@4",
        "array@4-staggered",
    }
    assert baseline["replay_requests"] == 5_000
    assert all("ops" in case for case in baseline["replay"].values())
    # Schema 3: per-case peak RSS measured in isolated child processes.
    assert baseline["isolated"] is True
    assert all(case["peak_rss_mb"] > 0 for case in baseline["replay"].values())


def test_scaled_geometry_per_op_cost_stays_flat():
    # The committed snapshot must show per-op replay cost within 2x of
    # the default geometry even at 64x the blocks — the incremental
    # victim index keeps greedy selection O(1) instead of O(blocks) and
    # the columnar FTL/dedup stores keep per-op table costs flat.  The
    # bound was 1.10x on the reference path, whose ~48 us/op of
    # interpreter overhead swamped everything; the vectorized kernel's
    # ~11-13 us/op base exposes real workload-shape differences (the
    # auto-sized 64x trace produces GC victims with more valid pages,
    # so migration work per op is higher), so the bound is looser — but
    # an O(blocks) reversion adds hundreds of us/op at 64x and still
    # fails it by an order of magnitude.
    baseline = json.loads(BASELINE.read_text())
    for scheme in ("baseline", "cagc"):
        default_us = baseline["replay"][scheme]["median_us_per_op"]
        for factor in (8, 64):
            scaled_us = baseline["replay"][f"{scheme}@{factor}x"]["median_us_per_op"]
            assert scaled_us <= 2.0 * default_us, (
                f"{scheme}: {scaled_us:.1f} us/op at {factor}x blocks vs "
                f"{default_us:.1f} at default geometry"
            )


def test_scaled_geometry_memory_stays_columnar():
    # 64x the blocks is 8x the physical pages of the 8x case, yet peak
    # RSS must grow far less than that: the interpreter+numpy floor
    # dominates and the per-page state is a handful of fixed-width
    # columns (8-16 bytes/page), not boxed dict entries (~100 bytes).
    baseline = json.loads(BASELINE.read_text())
    for scheme in ("baseline", "cagc"):
        rss_8x = baseline["replay"][f"{scheme}@8x"]["peak_rss_mb"]
        rss_64x = baseline["replay"][f"{scheme}@64x"]["peak_rss_mb"]
        assert rss_64x <= 4.0 * rss_8x, (
            f"{scheme}: {rss_64x:.1f} MB at 64x blocks vs {rss_8x:.1f} MB "
            f"at 8x — per-page state is no longer columnar"
        )


def test_hot_loop_within_threshold_of_baseline(guard_module):
    # min-of-rounds plus re-measured regressions: the guard needs
    # several shots at a quiet scheduling window on small CI boxes.
    rc = guard_module.run_check(BASELINE, threshold=0.25, rounds=7, attempts=3)
    assert rc == 0, "hot loop regressed >25% vs committed BENCH_throughput.json"


def test_vectorized_kernel_speedup_floors():
    # The kernel/orchestrator split measures ~2.6x (baseline), ~3.2x
    # (cagc) and ~5.5x (inline-dedupe, via the plan/apply foreground
    # kernel) against the reference path; these floors leave ~25-30%
    # headroom for noisy runners so the speedup cannot silently rot
    # while absolute numbers drift with the machine.  Cells interleave
    # the two paths and the ratio uses best-of-cells, so shared-runner
    # load spikes hit both sides.
    import time

    from repro.config import small_config
    from repro.device.ssd import run_trace
    from repro.schemes import make_scheme
    from repro.workloads.fiu import build_fiu_trace

    floors = {"baseline": 2.1, "cagc": 2.4, "inline-dedupe": 3.5}
    cfgs = {
        kernel: small_config(blocks=128, pages_per_block=32, kernel=kernel)
        for kernel in ("reference", "vectorized")
    }
    trace = build_fiu_trace("mail", cfgs["reference"], n_requests=5_000)
    for scheme_name, floor in floors.items():
        walls = {"reference": [], "vectorized": []}
        for kernel in walls:  # warm-up: numpy/import one-time costs
            run_trace(make_scheme(scheme_name, cfgs[kernel]), trace)
        for _ in range(7):
            for kernel in ("reference", "vectorized"):
                start = time.perf_counter()
                run_trace(make_scheme(scheme_name, cfgs[kernel]), trace)
                walls[kernel].append(time.perf_counter() - start)
        ratio = min(walls["reference"]) / min(walls["vectorized"])
        assert ratio >= floor, (
            f"{scheme_name}: vectorized kernel only {ratio:.2f}x the "
            f"reference path (floor is {floor}x)"
        )


def test_array_kernel_speedup_floors():
    # The epoch-batched array kernel measures ~6x (independent) and
    # ~7-8x (staggered / global-token, where the coordinator's deferral
    # machinery keeps lanes out of scalar GC boundaries) against the
    # reference array loop on the benched 4-device / 4-tenant case; a
    # 2.5x floor leaves generous headroom for noisy runners while still
    # failing if the array quietly reverts to wholesale event-loop
    # fallback (~1.0x).  Cells interleave the two paths like the
    # single-device floor test so load spikes hit both sides.
    import time

    from repro.array import SSDArray
    from repro.config import small_config
    from repro.schemes import make_scheme
    from repro.workloads.fiu import build_fiu_trace
    from repro.workloads.multiplex import multiplex_traces

    devices = tenants = 4
    cfgs = {
        kernel: small_config(blocks=128, pages_per_block=32, kernel=kernel)
        for kernel in ("reference", "vectorized")
    }
    tenant_traces = [
        build_fiu_trace(
            "mail", cfgs["reference"], n_requests=1_250, seed=100 + t
        )
        for t in range(tenants)
    ]
    merged = multiplex_traces(
        tenant_traces,
        devices=devices,
        pages_per_device=cfgs["reference"].logical_pages,
    )

    def replay(kernel, coordination):
        schemes = [make_scheme("cagc", cfgs[kernel]) for _ in range(devices)]
        return SSDArray(
            schemes, coordination=coordination, ncq_depth=16
        ).replay(merged)

    for coordination in ("independent", "staggered"):
        walls = {"reference": [], "vectorized": []}
        for kernel in walls:  # warm-up: numpy/import one-time costs
            result = replay(kernel, coordination)
            if kernel == "vectorized":
                assert result.kernel_fallback_reason is None
        for _ in range(5):
            for kernel in ("reference", "vectorized"):
                start = time.perf_counter()
                replay(kernel, coordination)
                walls[kernel].append(time.perf_counter() - start)
        ratio = min(walls["reference"]) / min(walls["vectorized"])
        assert ratio >= 2.5, (
            f"array@{devices} [{coordination}]: epoch kernel only "
            f"{ratio:.2f}x the reference array loop (floor is 2.5x)"
        )


def test_metrics_batching_overhead_within_15pct():
    # Metrics-enabled vectorized replays fold per-batch
    # (LatencyHistogram.record_many + boundary series samples) instead
    # of falling back to the reference event loop; the acceptance bar
    # is that an attached DeviceMetrics costs at most 15% over the
    # bare vectorized replay.
    import time

    from repro.config import small_config
    from repro.device.ssd import SSD
    from repro.obs.metrics import DeviceMetrics
    from repro.schemes import make_scheme
    from repro.workloads.fiu import build_fiu_trace

    cfg = small_config(blocks=128, pages_per_block=32, kernel="vectorized")
    trace = build_fiu_trace("mail", cfg, n_requests=5_000)
    walls = {"bare": [], "metrics": []}
    for _ in walls:  # warm-up
        SSD(make_scheme("cagc", cfg)).replay(trace)
    for _ in range(7):
        for mode in ("bare", "metrics"):
            metrics = DeviceMetrics() if mode == "metrics" else None
            ssd = SSD(make_scheme("cagc", cfg), metrics=metrics)
            start = time.perf_counter()
            ssd.replay(trace)
            walls[mode].append(time.perf_counter() - start)
    ratio = min(walls["metrics"]) / min(walls["bare"])
    assert ratio <= 1.15, (
        f"metrics-enabled vectorized replay is {ratio:.2f}x the bare "
        f"replay (bar is 1.15x)"
    )


def test_disabled_instrumentation_overhead_within_2pct(guard_module):
    # The repro.obs contract: every tracing/telemetry site on the hot
    # path is one predicated `x is not None` test when no observer is
    # attached, so an untraced replay must stay within 2% of the
    # committed baseline (which was itself recorded with observers
    # disabled).  Fresh min-of-rounds vs baseline median, same policy as
    # the 25% trajectory guard, just a far tighter bar.
    #
    # A 2% bar is below the timing jitter of a loaded shared runner, so
    # the gate first measures what this machine can actually resolve:
    # two back-to-back snapshots of the same code.  When their
    # disagreement already exceeds 2%, a failure would be scheduler
    # weather, not a regression — skip instead of flaking.  The gate
    # itself stays strict: on a quiet machine any >2% drift still fails.
    noise = guard_module.timing_noise_floor(rounds=5)
    if noise > 0.02:
        pytest.skip(
            f"machine timing noise floor {noise:.1%} exceeds the 2% bar; "
            "this gate cannot resolve regressions here"
        )
    rc = guard_module.run_check(BASELINE, threshold=0.02, rounds=7, attempts=4)
    assert rc == 0, (
        "disabled-instrumentation replay exceeded the committed "
        "BENCH_throughput.json baseline by more than 2%"
    )
