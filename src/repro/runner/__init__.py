"""Experiment runner: work units, persistent cache, parallel execution.

The subsystem that turns the paper's figure/ablation sweeps into a
schedulable fan-out:

* :class:`RunSpec` — frozen description of one simulation with a
  stable content-hash :meth:`~RunSpec.key`;
* :class:`RunCache` — persistent, schema-versioned result store shared
  across processes (``results/cache`` or ``$CAGC_CACHE_DIR``);
* :func:`run_specs` — cache-aware executor with ``ProcessPoolExecutor``
  fan-out, deterministic and bit-identical to serial execution;
* :func:`sweep_specs` — cartesian-product spec builder for CLI sweeps.
"""

from repro.runner.cache import RunCache, cache_enabled, default_cache_root
from repro.runner.executor import SpecError, execute_spec, resolve_jobs, run_specs
from repro.runner.serialize import (
    SCHEMA_VERSION,
    SchemaMismatchError,
    result_from_bytes,
    result_to_bytes,
)
from repro.runner.spec import RunSpec, freeze_overrides, sweep_specs

__all__ = [
    "RunSpec",
    "RunCache",
    "freeze_overrides",
    "SCHEMA_VERSION",
    "SchemaMismatchError",
    "SpecError",
    "cache_enabled",
    "default_cache_root",
    "execute_spec",
    "resolve_jobs",
    "result_from_bytes",
    "result_to_bytes",
    "run_specs",
    "sweep_specs",
]
