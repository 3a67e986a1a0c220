"""Tests for the experiment runner: specs, cache, parallel execution.

The load-bearing guarantees pinned here:

* ``run_specs(jobs=N)`` returns results **bit-identical** to serial
  execution for every scheme — parallelism must never change what an
  experiment reports;
* a ``RunResult`` survives the serialize/deserialize round trip
  bit-for-bit (NumPy samples verbatim, JSON floats shortest-repr);
* the persistent cache is content-addressed, schema-versioned, and
  treats corruption as a miss rather than an error.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.config import GeometryConfig, SSDConfig, TimingConfig
from repro.device.ssd import RunResult, run_trace
from repro.runner import (
    RunCache,
    RunSpec,
    SchemaMismatchError,
    result_from_bytes,
    result_to_bytes,
    run_specs,
    sweep_specs,
)
from repro.runner import serialize as serialize_mod
from repro.runner.cache import ENV_CACHE_DIR, ENV_NO_CACHE, cache_enabled
from repro.runner.executor import resolve_jobs
from repro.schemes import make_scheme
from repro.workloads.request import IORequest, OpKind
from repro.workloads.trace import Trace

SCHEMES = ("baseline", "inline-dedupe", "cagc")


def assert_identical(a: RunResult, b: RunResult) -> None:
    """Field-by-field bit-identity of two run results."""
    assert a.scheme == b.scheme
    assert a.trace == b.trace
    assert a.latency == b.latency
    assert a.response_times_us.dtype == b.response_times_us.dtype
    assert np.array_equal(a.response_times_us, b.response_times_us)
    assert a.gc == b.gc
    assert a.io == b.io
    assert a.wear == b.wear
    assert a.simulated_us == b.simulated_us
    assert a.buffer == b.buffer


# --------------------------------------------------------------------- specs


class TestRunSpec:
    def test_key_is_stable_across_instances(self):
        a = RunSpec(workload="mail", scheme="cagc")
        b = RunSpec(workload="mail", scheme="cagc")
        assert a.key() == b.key()
        assert len(a.key()) == 64  # sha256 hex

    def test_key_changes_with_every_field(self):
        base = RunSpec(workload="mail", scheme="cagc")
        variants = [
            dataclasses.replace(base, workload="homes"),
            dataclasses.replace(base, scheme="baseline"),
            dataclasses.replace(base, policy="random"),
            dataclasses.replace(base, seed=1),
            dataclasses.replace(base, scale="quick"),
        ]
        keys = {base.key(), *(v.key() for v in variants)}
        assert len(keys) == 6

    def test_key_embeds_schema_version(self, monkeypatch):
        # A schema bump must orphan every old cache entry (new keys).
        import repro.runner.spec as spec_mod

        spec = RunSpec(workload="mail", scheme="cagc")
        before = spec.key()
        monkeypatch.setattr(spec_mod, "SCHEMA_VERSION", spec_mod.SCHEMA_VERSION + 1)
        assert spec.key() != before

    def test_label(self):
        spec = RunSpec(workload="mail", scheme="cagc", policy="greedy", seed=2, scale="quick")
        assert spec.label() == "mail/cagc/greedy@quick#2"

    def test_sweep_specs_cartesian_order(self):
        specs = sweep_specs(("homes", "mail"), ("baseline", "cagc"), seeds=(0, 1))
        assert len(specs) == 8
        assert specs[0] == RunSpec(workload="homes", scheme="baseline", seed=0)
        assert specs[1] == RunSpec(workload="homes", scheme="baseline", seed=1)
        assert specs[-1] == RunSpec(workload="mail", scheme="cagc", seed=1)
        assert len(set(specs)) == 8

    def test_execute_matches_run_trace(self):
        spec = RunSpec(workload="mail", scheme="baseline", scale="quick")
        assert_identical(spec.execute(), spec.execute())


# ----------------------------------------------------------------- serialize


def tiny_result(buffered: bool = False) -> RunResult:
    """A real (small) run to serialize, optionally with buffer stats."""
    config = SSDConfig(
        geometry=GeometryConfig(channels=2, pages_per_block=8, blocks=32),
        timing=TimingConfig(overhead_us=0.0),
        write_buffer_pages=16 if buffered else 0,
    )
    reqs = []
    t = 0.0
    fp = 0
    for round_ in range(3):
        for lpn in range(64):
            reqs.append(IORequest(t, OpKind.WRITE, lpn, 1, (fp,)))
            t += 50.0
            fp += 1
    reqs.append(IORequest(t, OpKind.READ, 0, 4))
    return run_trace(
        make_scheme("baseline", config), Trace.from_requests(reqs, name="tiny")
    )


class TestSerializeRoundTrip:
    def test_round_trip_is_bit_identical(self):
        result = tiny_result()
        assert_identical(result, result_from_bytes(result_to_bytes(result)))

    def test_round_trip_preserves_buffer_stats(self):
        result = tiny_result(buffered=True)
        assert result.buffer is not None
        restored = result_from_bytes(result_to_bytes(result))
        assert_identical(result, restored)
        assert restored.buffer == result.buffer

    def test_round_trip_without_buffer_keeps_none(self):
        restored = result_from_bytes(result_to_bytes(tiny_result()))
        assert restored.buffer is None

    def test_schema_mismatch_raises(self, monkeypatch):
        payload = result_to_bytes(tiny_result())
        monkeypatch.setattr(
            serialize_mod, "SCHEMA_VERSION", serialize_mod.SCHEMA_VERSION + 1
        )
        with pytest.raises(SchemaMismatchError):
            result_from_bytes(payload)


# --------------------------------------------------------------------- cache


class TestRunCache:
    def spec(self) -> RunSpec:
        return RunSpec(workload="mail", scheme="baseline", scale="quick")

    def test_put_then_get_hits(self, tmp_path):
        cache = RunCache(tmp_path)
        spec, result = self.spec(), tiny_result()
        assert cache.get(spec) is None
        assert cache.misses == 1
        path = cache.put(spec, result)
        assert path.exists()
        assert spec in cache
        assert len(cache) == 1
        assert_identical(result, cache.get(spec))
        assert cache.hits == 1

    def test_sharded_layout(self, tmp_path):
        cache = RunCache(tmp_path)
        spec = self.spec()
        path = cache.path_for(spec)
        key = spec.key()
        assert path.parent.name == key[:2]
        assert path.name == f"{key}.npz"

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = RunCache(tmp_path)
        spec = self.spec()
        path = cache.path_for(spec)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"not an npz archive")
        assert cache.get(spec) is None
        assert cache.misses == 1
        assert not path.exists()

    def test_truncated_entry_is_a_miss_and_recomputed(self, tmp_path):
        spec = self.spec()
        fresh = run_specs([spec], jobs=1)[0]
        for cut in ("5", "100", "half", "len-10"):
            cache = RunCache(tmp_path / cut)
            path = cache.put(spec, fresh)
            payload = path.read_bytes()
            keep = {"half": len(payload) // 2, "len-10": len(payload) - 10}
            path.write_bytes(payload[: keep.get(cut) or int(cut)])
            assert cache.get(spec) is None, cut
            assert not path.exists()
            assert cache.misses == 1 and cache.hits == 0
            again = run_specs([spec], jobs=1, cache=cache)[0]
            assert_identical(fresh, again)
            assert path.exists()

    def test_atomic_put_leaves_no_temp_files(self, tmp_path):
        cache = RunCache(tmp_path)
        cache.put(self.spec(), tiny_result())
        leftovers = [p for p in tmp_path.rglob("*") if p.suffix == ".tmp"]
        assert leftovers == []

    def test_clear(self, tmp_path):
        cache = RunCache(tmp_path)
        cache.put(self.spec(), tiny_result())
        assert cache.clear() == 1
        assert len(cache) == 0

    def test_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv(ENV_NO_CACHE, "1")
        assert not cache_enabled()
        assert RunCache.from_env() is None
        monkeypatch.delenv(ENV_NO_CACHE)
        assert cache_enabled()
        assert RunCache.from_env() is not None

    def test_env_cache_dir_overrides_root(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "elsewhere"))
        cache = RunCache.from_env()
        assert cache is not None
        assert cache.root == tmp_path / "elsewhere"


# ------------------------------------------------------------------ executor


class TestResolveJobs:
    def test_default_is_cpu_count(self):
        import os

        assert resolve_jobs(None) == (os.cpu_count() or 1)
        assert resolve_jobs(0) == (os.cpu_count() or 1)
        assert resolve_jobs(3) == 3


class TestRunSpecsEquivalence:
    """Parallel fan-out must be bit-identical to serial execution."""

    SPECS = tuple(
        RunSpec(workload="mail", scheme=s, scale="quick") for s in SCHEMES
    )

    def test_parallel_matches_serial_for_all_schemes(self):
        serial = run_specs(self.SPECS, jobs=1)
        parallel = run_specs(self.SPECS, jobs=2)
        for spec, a, b in zip(self.SPECS, serial, parallel):
            assert a.scheme == spec.scheme
            assert_identical(a, b)

    def test_cache_round_trip_matches_fresh_run(self, tmp_path):
        cache = RunCache(tmp_path)
        fresh = run_specs(self.SPECS, jobs=1, cache=cache)
        assert cache.hits == 0 and cache.misses == len(self.SPECS)
        cached = run_specs(self.SPECS, jobs=1, cache=cache)
        assert cache.hits == len(self.SPECS)
        for a, b in zip(fresh, cached):
            assert_identical(a, b)

    def test_duplicates_computed_once_and_aligned(self, tmp_path):
        cache = RunCache(tmp_path)
        spec = self.SPECS[0]
        results = run_specs([spec, spec, spec], jobs=1, cache=cache)
        assert len(results) == 3
        assert results[0] is results[1] is results[2]
        assert len(cache) == 1

    def test_progress_callback_reports_source(self, tmp_path):
        cache = RunCache(tmp_path)
        events = []
        spec = self.SPECS[0]
        run_specs([spec], cache=cache, progress=lambda s, src: events.append((s, src)))
        run_specs([spec], cache=cache, progress=lambda s, src: events.append((s, src)))
        assert events == [(spec, "run"), (spec, "cache")]


class TestExperimentsIntegration:
    def test_result_for_persists_across_memo_reset(self, monkeypatch, tmp_path):
        from repro.experiments.common import reset_result_caches, result_for

        spec = RunSpec(workload="mail", scheme="baseline", scale="quick")
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path))
        reset_result_caches()
        try:
            first = result_for(spec)
            again = result_for(spec)
            assert again is first  # in-process memo: identity preserved
            reset_result_caches()  # simulate a new process
            reloaded = result_for(spec)
            assert reloaded is not first  # came from the persistent cache
            assert_identical(first, reloaded)
        finally:
            monkeypatch.delenv(ENV_CACHE_DIR)
            reset_result_caches()


class TestSpecErrors:
    """A spec that raises names itself, on the serial path and from the
    process pool alike."""

    BAD = RunSpec(
        workload="mail", scheme="baseline", scale="quick",
        config_overrides=(("op_ratio", 1.5),),
    )
    GOOD = RunSpec(workload="mail", scheme="baseline", scale="quick")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_spec_is_named(self, jobs):
        from repro.runner import SpecError

        with pytest.raises(SpecError) as info:
            run_specs([self.GOOD, self.BAD], jobs=jobs)
        err = info.value
        assert err.spec == self.BAD
        assert str(err).startswith(self.BAD.label() + ": ValueError: ")
        assert isinstance(err.__cause__, ValueError)
