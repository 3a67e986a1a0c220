"""Fan-out execution of :class:`RunSpec` batches.

``run_specs`` is the orchestration core: it deduplicates the requested
specs, satisfies what it can from the persistent :class:`RunCache`, and
fans the misses out over a ``ProcessPoolExecutor`` (``jobs`` worker
processes, default ``os.cpu_count()``).  Each simulation is fully
independent and internally seeded, so parallel execution is guaranteed
to return results bit-identical to serial execution — the equivalence
the runner test suite asserts per scheme.

Workers return serialized results (the parent deserializes and writes
the cache), which keeps cache writes single-writer/atomic and avoids
pickling ``RunResult`` dataclasses across the process boundary twice.
A spec that raises, serially or in a worker, surfaces as a
:class:`SpecError` naming its label, chained from the original error.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence

from repro.runner.cache import RunCache
from repro.runner.serialize import result_from_bytes, result_to_bytes
from repro.runner.spec import RunSpec

#: progress callback: (spec, source) with source in {"cache", "run"}.
ProgressFn = Callable[[RunSpec, str], None]


class SpecError(RuntimeError):
    """A spec's execution raised; the message leads with its label and
    ``__cause__`` holds the original exception."""

    def __init__(self, spec: RunSpec, error: BaseException) -> None:
        super().__init__(f"{spec.label()}: {type(error).__name__}: {error}")
        self.spec = spec


def execute_spec(spec: RunSpec):
    """Run one spec in-process (no caching).  Picklable worker entry."""
    return spec.execute()


def _execute_spec_bytes(spec: RunSpec) -> bytes:
    """Worker entry: run one spec and return the serialized result."""
    return result_to_bytes(spec.execute())


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value (``None``/0 -> cpu count)."""
    if jobs is None or jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def run_specs(
    specs: Sequence[RunSpec],
    jobs: Optional[int] = None,
    cache: Optional[RunCache] = None,
    progress: Optional[ProgressFn] = None,
) -> List[object]:
    """Execute ``specs``; returns results aligned with the input order.

    Duplicate specs are computed once.  ``cache`` (when given) is
    consulted first and updated with every fresh result; ``jobs=1``
    runs serially in-process, ``jobs>1`` fans cache-misses out over a
    process pool.
    """
    unique: List[RunSpec] = []
    seen: Dict[RunSpec, None] = {}
    for spec in specs:
        if spec not in seen:
            seen[spec] = None
            unique.append(spec)

    results: Dict[RunSpec, object] = {}
    misses: List[RunSpec] = []
    for spec in unique:
        cached = cache.get(spec) if cache is not None else None
        if cached is not None:
            results[spec] = cached
            if progress is not None:
                progress(spec, "cache")
        else:
            misses.append(spec)

    if misses:
        for spec, result in zip(misses, _execute_misses(misses, resolve_jobs(jobs))):
            results[spec] = result
            if cache is not None:
                cache.put(spec, result)
            if progress is not None:
                progress(spec, "run")

    return [results[spec] for spec in specs]


def _execute_misses(misses: List[RunSpec], jobs: int) -> List[object]:
    if jobs <= 1 or len(misses) == 1:
        return [_named(spec, execute_spec, spec) for spec in misses]
    try:
        with ProcessPoolExecutor(max_workers=min(jobs, len(misses))) as pool:
            futures = [pool.submit(_execute_spec_bytes, spec) for spec in misses]
            payloads = [
                _named(spec, future.result) for future, spec in zip(futures, misses)
            ]
    except (OSError, PermissionError):
        # Restricted environments (no /dev/shm, forbidden fork) fall
        # back to serial execution; results are identical by design.
        return [_named(spec, execute_spec, spec) for spec in misses]
    return [result_from_bytes(payload) for payload in payloads]


def _named(spec: RunSpec, fn: Callable, *args):
    """``fn(*args)``, with any error re-raised as a :class:`SpecError`
    naming ``spec``."""
    try:
        return fn(*args)
    except Exception as exc:
        raise SpecError(spec, exc) from exc
