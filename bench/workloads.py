"""The benchmark's four workloads, each split into setup / round / summary.

A child process runs one round of one workload: :meth:`Workload.setup`
(counted in ``setup_s``), :meth:`Workload.run` (the timed round, which
calls only the program's public entry points) and
:meth:`Workload.summarize` (untimed: the round's simulated digest, its
request count, its simulated metrics and the output checks).

``size`` scales a workload down from its full definition (1.0) and is
how the tests run every round cheaply.  Device-backed workloads scale
the flash block count, so the trace shrinks with the device and the
GC regime (write traffic as a multiple of capacity) is unchanged;
``figures`` keeps the first ``size`` share of the experiment ids.
:data:`DEFAULT_SIZES` is what the benchmark runs.  ``figures`` ignores
the seed: its traces are fixed by the registered experiments.

Importing this module imports the simulator, which is part of what a
child's ``setup_s`` measures.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

import checks
from repro.array import ArrayResult
from repro.config import GeometryConfig, SSDConfig
from repro.device.ssd import SSD
from repro.experiments import common, registry
from repro.experiments.array_tail import array_tail_specs
from repro.experiments import (
    fig9_blocks_erased,
    fig10_pages_migrated,
    fig11_response_time,
)
from repro.runner import RunSpec, freeze_overrides
from repro.schemes import make_scheme
from repro.workloads import synth
from repro.workloads.fiu import FIU_PRESETS
from repro.workloads.stream import open_trace

#: Per-workload size the benchmark runs; rounds take 3-12 s each on a
#: 2-core x86 VM, so every run fits several rounds.
DEFAULT_SIZES = {
    "figures": 1.0,
    "paper-full": 1.0,
    "array-tail": 0.25,
    "stream-trim": 0.5,
}

_VECTORIZED = {"kernel": "vectorized"}


@dataclass
class RoundSummary:
    """What one round produced, for the parent's metrics and checks."""

    requests: int
    digest: str
    simulated: Dict[str, float]
    failures: List[str] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, float, Path], Any]
    run: Callable[[Any], Any]
    summarize: Callable[[Any, Any], RoundSummary]
    #: kernel-contract cross-check run after the traced round; only the
    #: workloads on the vectorized kernels have one.
    cross_check: Optional[Callable[[Any, Any], List[str]]] = None


def _blocks(full: int, size: float) -> int:
    """Block count scaled by ``size``: a multiple of the 4 channels, >= 16."""
    return max(16, 4 * round(full * size / 4))


def _requests(results: Sequence) -> int:
    return sum(
        run.latency.count for result in results for run in checks.device_runs(result)
    )


def simulated_metrics(results: Sequence, paper_pairs=None) -> Dict[str, float]:
    """Simulated metrics of a round.

    Latency and GC results pool the non-Baseline runs (the schemes
    under study); the ``gc.*``/``io.*`` counts cover every run.  Values
    a workload does not produce read 0: the worst tenant p999 needs an
    array, the paper gap needs the three Fig 9-11 workload pairs.
    """
    runs = [run for result in results for run in checks.device_runs(result)]
    measured = [run for run in runs if run.scheme != "baseline"]
    pooled = [run.response_times_us for run in measured if len(run.response_times_us)]
    if pooled:
        samples = np.concatenate(pooled)
        mean = float(samples.mean())
        p99, p999 = (float(v) for v in np.percentile(samples, [99.0, 99.9]))
    elif len(measured) == 1:  # constant-memory capture: the histogram summary
        latency = measured[0].latency
        mean, p99, p999 = latency.mean_us, latency.p99_us, latency.p999_us
    else:
        mean = p99 = p999 = 0.0
    logical = sum(run.io.logical_pages_written for run in measured)
    physical = sum(
        run.io.user_pages_programmed + run.gc.pages_migrated for run in measured
    )
    worst_tenant = max(
        (
            values[-1]
            for result in results
            if isinstance(result, ArrayResult)
            for _, values in result.telemetry.tenant_percentiles()
        ),
        default=0.0,
    )
    return {
        "sim_mean_us": mean,
        "sim_p99_us": p99,
        "sim_p999_us": p999,
        "sim_worst_tenant_p999_us": float(worst_tenant),
        "sim_waf": physical / logical if logical else 0.0,
        "sim_blocks_erased": float(sum(run.gc.blocks_erased for run in measured)),
        "sim_pages_migrated": float(sum(run.gc.pages_migrated for run in measured)),
        "paper_gap_pp": paper_gap_pp(paper_pairs) if paper_pairs else 0.0,
        "gc.collects": float(sum(run.gc.gc_invocations for run in runs)),
        "gc.pages_examined": float(sum(run.gc.pages_examined for run in runs)),
        "gc.dedup_skipped": float(sum(run.gc.dedup_skipped for run in runs)),
        "io.trim_requests": float(sum(run.io.trim_requests for run in runs)),
    }


def paper_gap_pp(pairs: Dict[str, tuple]) -> float:
    """Mean absolute gap (percentage points) between the measured
    CAGC-vs-Baseline reductions and the paper's nine Fig 9/10/11 values.

    ``pairs`` maps each Table II workload to its (baseline, cagc) results.
    """
    gaps = []
    for workload, (base, cagc) in pairs.items():
        for paper, metric in (
            (fig9_blocks_erased.PAPER_REDUCTION_PCT, "blocks_erased"),
            (fig10_pages_migrated.PAPER_REDUCTION_PCT, "pages_migrated"),
            (fig11_response_time.PAPER_CAGC_REDUCTION_PCT, "mean_response_us"),
        ):
            measured = common.reduction_vs_baseline(
                float(getattr(base, metric)), float(getattr(cagc, metric))
            )
            gaps.append(abs(measured - paper[workload]))
    return float(np.mean(gaps))


# ---------------------------------------------------------------- figures


@dataclass
class FiguresState:
    ids: List[str]


def _figures_setup(seed: int, size: float, workdir: Path) -> FiguresState:
    ids = list(registry.EXPERIMENTS)
    ids = ids[: max(1, round(len(ids) * size))]
    cache = workdir / "cache"
    cache.mkdir()
    # A fresh, empty persistent cache per round: the cold-cache path.
    os.environ["CAGC_CACHE_DIR"] = str(cache)
    common.reset_result_caches()
    return FiguresState(ids)


def _figures_run(state: FiguresState) -> List[str]:
    registry.warm_experiments(state.ids, scale="quick", jobs=1)
    return [str(registry.run_experiment(eid, "quick")) for eid in state.ids]


def _figures_summarize(state: FiguresState, reports: List[str]) -> RoundSummary:
    specs = registry.specs_for_experiments(state.ids, "quick")
    results = [common.result_for(spec) for spec in specs]
    pairs = None
    table = {
        (spec.workload, spec.scheme): result
        for spec, result in zip(specs, results)
        if spec == RunSpec(spec.workload, spec.scheme, scale="quick")
    }
    if all((w, s) in table for w in common.WORKLOADS for s in ("baseline", "cagc")):
        pairs = {w: (table[w, "baseline"], table[w, "cagc"]) for w in common.WORKLOADS}
    h = hashlib.sha256(checks.result_digest(results).encode())
    for text in reports:
        h.update(text.encode())
    return RoundSummary(
        requests=_requests(results),
        digest=h.hexdigest(),
        simulated=simulated_metrics(results, pairs),
        failures=checks.reports_nonempty(state.ids, reports),
    )


# ------------------------------------------------------------- paper-full


@dataclass
class SpecState:
    specs: List[RunSpec]
    config: SSDConfig
    seed: int


def _spec_state(
    scale_name: str, specs: List[RunSpec], seed: int, size: float
) -> SpecState:
    """Pin ``specs`` to the vectorized kernel on a ``size``-scaled device."""
    scale = common.get_scale(scale_name)
    blocks = _blocks(scale.blocks, size)
    overrides = freeze_overrides({**_VECTORIZED, "geometry.blocks": blocks})
    config = scale.config(**_VECTORIZED)
    config = dataclasses.replace(
        config, geometry=dataclasses.replace(config.geometry, blocks=blocks)
    )
    specs = [dataclasses.replace(spec, config_overrides=overrides) for spec in specs]
    return SpecState(specs, config, seed)


def _paper_setup(seed: int, size: float, workdir: Path) -> SpecState:
    specs = [
        RunSpec(w, s, scale="full", seed=seed)
        for w in common.WORKLOADS
        for s in ("baseline", "cagc")
    ]
    return _spec_state("full", specs, seed, size)


def _execute_all(state: SpecState) -> list:
    return [spec.execute() for spec in state.specs]


def paper_trace(state: SpecState, workload: str):
    """The trace a ``paper-full`` spec replays, rebuilt independently."""
    seed = (10_000 + state.seed) if state.seed else None
    return common.get_scale("full").trace(workload, state.config, seed=seed)


def _paper_summarize(state: SpecState, results: list) -> RoundSummary:
    failures = []
    for spec, result in zip(state.specs, results):
        expected = len(paper_trace(state, spec.workload))
        failures += checks.completed(spec.label(), result.latency.count, expected)
    pairs = {
        spec.workload: (results[i], results[i + 1])
        for i, spec in enumerate(state.specs)
        if spec.scheme == "baseline"
    }
    return RoundSummary(
        requests=_requests(results),
        digest=checks.result_digest(results),
        simulated=simulated_metrics(results, pairs),
        failures=failures,
    )


def _paper_cross_check(state: SpecState, results: list) -> List[str]:
    trace = paper_trace(state, "web-vm")
    return checks.kernels_agree(
        "web-vm/cagc", trace, "cagc", state.config, metrics=True
    )


# ------------------------------------------------------------- array-tail


def _array_setup(seed: int, size: float, workdir: Path) -> SpecState:
    specs = [dataclasses.replace(spec, seed=seed) for spec in array_tail_specs("bench")]
    return _spec_state("bench", specs, seed, size)


def tenant_trace_lengths(state: SpecState, spec: RunSpec) -> List[int]:
    """Per-tenant request counts of an array spec, rebuilt independently
    (each tenant's trace is scaled down by its tenant slots per device)."""
    scale = common.get_scale(spec.scale)
    slots = -(-spec.tenants // spec.array_devices)
    return [
        len(
            scale.trace(
                spec.workload,
                state.config,
                seed=10_000 + 997 * state.seed + t,
                lpn_utilization=scale.lpn_utilization / slots,
                fill_factor=scale.fill_factor / slots,
            )
        )
        for t in range(spec.tenants)
    ]


def _array_summarize(state: SpecState, results: list) -> RoundSummary:
    failures = []
    for spec, result in zip(state.specs, results):
        failures += checks.tenant_partition(
            spec.label(), result, tenant_trace_lengths(state, spec)
        )
    return RoundSummary(
        requests=_requests(results),
        digest=checks.result_digest(results),
        simulated=simulated_metrics(results),
        failures=failures,
    )


def _array_cross_check(state: SpecState, results: list) -> List[str]:
    """The staggered spec on the reference loop must digest identically.

    ``repro.oracle.diff_array_kernels`` lays tenants out on its own
    fuzz-sized LPN windows, which a spec's multiplexed trace does not
    fit, so the spec itself is replayed on both kernels instead.
    """
    ((index, spec),) = [
        (i, s) for i, s in enumerate(state.specs) if s.gc_coord == "staggered"
    ]
    overrides = freeze_overrides({**dict(spec.config_overrides), "kernel": "reference"})
    reference = dataclasses.replace(spec, config_overrides=overrides).execute()
    return checks.digests_agree(
        spec.label(),
        checks.result_digest([reference]),
        checks.result_digest([results[index]]),
    )


# ------------------------------------------------------------ stream-trim

#: Share of requests that are TRIMs: no FIU preset carries any.
TRIM_RATIO = 0.05


@dataclass
class StreamState:
    config: SSDConfig
    path: Path
    requests: int


def _stream_setup(seed: int, size: float, workdir: Path) -> StreamState:
    config = SSDConfig(
        geometry=GeometryConfig(
            channels=4, pages_per_block=64, blocks=_blocks(2048, size)
        ),
        **_VECTORIZED,
    )
    homes = FIU_PRESETS["homes"]
    # Sized the way build_fiu_trace sizes a preset to a device (84 %
    # LPN utilization, a popular-content pool of 5 % of the span, its
    # write-intensity arrival rate); that function takes no trim ratio.
    lpn_space = int(config.logical_pages * 0.84)
    spec = homes.with_overrides(
        n_requests=max(1_000, round(200_000 * size)),
        lpn_space=lpn_space,
        popular_pool=max(128, int(lpn_space * 0.05)),
        mean_interarrival_us=250.0 * homes.write_ratio * homes.avg_req_pages,
        trim_ratio=TRIM_RATIO,
        seed=(10_000 + seed) if seed else homes.seed,
    )
    trace = synth.generate_trace(spec)
    path = workdir / "homes-trim.npz"
    trace.save_npz(path)
    return StreamState(config, path, len(trace))


def _stream_run(state: StreamState):
    scheme = make_scheme("inline-dedupe", state.config)
    return SSD(scheme, keep_samples=False).replay(open_trace(state.path, stream=True))


def _stream_summarize(state: StreamState, result) -> RoundSummary:
    return RoundSummary(
        requests=result.latency.count,
        digest=checks.result_digest([result]),
        simulated=simulated_metrics([result]),
        failures=checks.completed("stream-trim", result.latency.count, state.requests),
    )


#: Requests of the stream-trim trace the kernel cross-check replays.
CROSS_CHECK_REQUESTS = 50_000


def _stream_cross_check(state: StreamState, result) -> List[str]:
    trace = open_trace(state.path).slice(0, CROSS_CHECK_REQUESTS)
    label = f"stream-trim[:{len(trace)}]"
    return checks.kernels_agree(label, trace, "inline-dedupe", state.config)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("figures", _figures_setup, _figures_run, _figures_summarize),
        Workload(
            "paper-full",
            _paper_setup,
            _execute_all,
            _paper_summarize,
            _paper_cross_check,
        ),
        Workload(
            "array-tail",
            _array_setup,
            _execute_all,
            _array_summarize,
            _array_cross_check,
        ),
        Workload(
            "stream-trim",
            _stream_setup,
            _stream_run,
            _stream_summarize,
            _stream_cross_check,
        ),
    )
}
