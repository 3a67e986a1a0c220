"""Shared experiment infrastructure.

* :class:`ExperimentScale` — one knob bundle sizing the simulated device
  and trace (``quick`` for tests, ``bench`` for pytest-benchmark runs,
  ``full`` for the CLI).  All scales keep Table I latencies and the
  paper's 64-page blocks; only the device size / trace length change.
* :class:`Experiment` — one experiment's declaration: the
  :class:`~repro.runner.RunSpec` fan-out it reads and the report
  builder that turns those runs' results into an
  :class:`ExperimentReport`.  Figs 9-12 declare the same nine runs, so
  the memo below replays each once, exactly as the paper reports one
  run from several angles.
* :class:`ExperimentReport` — uniform result container with paper-vs-
  measured rows and plain-text rendering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import GeometryConfig, SSDConfig
from repro.device.ssd import RunResult
from repro.metrics.report import format_table
from repro.runner import RunCache, RunSpec, run_specs, sweep_specs
from repro.workloads.fiu import build_fiu_trace

#: Workloads of Table II, in the order the paper's figures use.
WORKLOADS: Tuple[str, ...] = ("homes", "web-vm", "mail")


@dataclass(frozen=True)
class ExperimentScale:
    """Device + trace sizing for one fidelity level."""

    name: str
    blocks: int
    pages_per_block: int
    channels: int
    fill_factor: float
    lpn_utilization: float = 0.84
    pool_fraction: float = 0.05

    def config(self, **overrides: Any) -> SSDConfig:
        geometry = GeometryConfig(
            channels=self.channels,
            pages_per_block=self.pages_per_block,
            blocks=self.blocks,
        )
        cfg = SSDConfig(geometry=geometry, **overrides)
        cfg.validate()
        return cfg

    def trace(self, preset: str, config: SSDConfig, **overrides: Any):
        kwargs: Dict[str, Any] = dict(
            n_requests=0,
            fill_factor=self.fill_factor,
            lpn_utilization=self.lpn_utilization,
            pool_fraction=self.pool_fraction,
        )
        kwargs.update(overrides)
        return build_fiu_trace(preset, config, **kwargs)


SCALES: Dict[str, ExperimentScale] = {
    # Tiny: CI-speed integration tests (~0.1 s per run).
    "quick": ExperimentScale(
        name="quick", blocks=128, pages_per_block=32, channels=4, fill_factor=3.0
    ),
    # Benchmarks: enough GC churn for stable ratios (~1 s per run).
    "bench": ExperimentScale(
        name="bench", blocks=256, pages_per_block=64, channels=4, fill_factor=4.0
    ),
    # CLI default: tighter confidence on the reported ratios.
    "full": ExperimentScale(
        name="full", blocks=512, pages_per_block=64, channels=4, fill_factor=5.0
    ),
}


def get_scale(scale: str) -> ExperimentScale:
    try:
        return SCALES[scale]
    except KeyError:
        raise ValueError(f"unknown scale {scale!r}; choose from {sorted(SCALES)}") from None


#: In-process memo: spec -> RunResult.  Sits in front of the persistent
#: :class:`RunCache`, preserving the old ``lru_cache`` identity semantics
#: (repeated calls return the *same* object) while the persistent layer
#: makes results survive across processes.
_MEMO: Dict[RunSpec, RunResult] = {}
_CACHE: Optional[RunCache] = None
_CACHE_RESOLVED = False


def _persistent_cache() -> Optional[RunCache]:
    """The process-wide persistent cache (``None`` when disabled)."""
    global _CACHE, _CACHE_RESOLVED
    if not _CACHE_RESOLVED:
        _CACHE = RunCache.from_env()
        _CACHE_RESOLVED = True
    return _CACHE


def reset_result_caches() -> None:
    """Drop the in-process memo and re-resolve the persistent cache.

    Test hook: lets a test point ``CAGC_CACHE_DIR`` somewhere fresh (or
    set ``CAGC_NO_CACHE``) after this module was imported.
    """
    global _CACHE_RESOLVED
    _MEMO.clear()
    _CACHE_RESOLVED = False


def result_for(spec: RunSpec) -> RunResult:
    """Result for one spec: memo -> persistent cache -> fresh replay."""
    result = _MEMO.get(spec)
    if result is None:
        result = run_specs([spec], jobs=1, cache=_persistent_cache())[0]
        _MEMO[spec] = result
    return result


def prefetch_results(specs: Sequence[RunSpec], jobs: Optional[int] = None) -> None:
    """Warm the memo + persistent cache for ``specs``, fanning cache
    misses out over ``jobs`` worker processes (the ``--jobs`` path of
    ``cagc-repro run``/``sweep``)."""
    pending = [spec for spec in specs if spec not in _MEMO]
    if not pending:
        return
    for spec, result in zip(pending, run_specs(pending, jobs=jobs, cache=_persistent_cache())):
        _MEMO[spec] = result


@dataclass
class ExperimentReport:
    """Uniform experiment output: table rows + raw data + paper notes."""

    experiment_id: str
    title: str
    headers: Sequence[str]
    rows: List[Sequence[object]]
    paper_claim: str = ""
    notes: str = ""
    #: machine-readable results for tests / downstream analysis.
    data: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        parts = [
            format_table(self.headers, self.rows, title=f"[{self.experiment_id}] {self.title}")
        ]
        if self.paper_claim:
            parts.append(f"paper: {self.paper_claim}")
        if self.notes:
            parts.append(f"notes: {self.notes}")
        return "\n".join(parts)


#: One experiment's runs: its declared specs, in declaration order, each
#: mapped to its result.
Runs = Dict[RunSpec, RunResult]


@dataclass(frozen=True)
class Experiment:
    """One experiment: the runs it reads and the report built from them.

    ``specs(scale)`` is the experiment's whole spec fan-out (empty for
    the analytic tables and worked examples); ``report(runs, scale)``
    receives exactly those specs' results and never starts a run of its
    own, so prewarming ``specs`` covers everything the report reads.
    """

    report: Callable[[Runs, str], ExperimentReport]
    specs: Callable[[str], Sequence[RunSpec]] = lambda scale: ()

    def run(self, scale: str) -> ExperimentReport:
        return self.report({s: result_for(s) for s in self.specs(scale)}, scale)


def workload_specs(*schemes: str, **axes: Any) -> Callable[[str], Sequence[RunSpec]]:
    """The fan-out of Figs 9-13 and the stability study: every Table II
    workload under each of ``schemes``, swept over
    :func:`~repro.runner.sweep_specs`'s other ``axes`` (``policies``,
    ``seeds``)."""
    return lambda scale: sweep_specs(WORKLOADS, schemes, scale=scale, **axes)


def results_by(runs: Runs, *fields: str) -> Dict[Any, RunResult]:
    """Key ``runs``' results by the named spec fields: a tuple of them,
    or the bare value for one field."""
    key = attrgetter(*fields)
    return {key(spec): result for spec, result in runs.items()}


def grouped(runs: Runs, size: int) -> List[Tuple[RunResult, ...]]:
    """``runs``' results in declaration order, ``size`` at a time."""
    results = list(runs.values())
    return [tuple(results[i : i + size]) for i in range(0, len(results), size)]


def reduction_vs_baseline(baseline: float, other: float) -> float:
    """Percent reduction; 0 when the baseline value is 0."""
    if baseline == 0:
        return 0.0
    return 100.0 * (1.0 - other / baseline)
