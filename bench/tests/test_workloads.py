"""Every workload's round at reduced size: checks, tracing, metric names."""

import json
import re

import pytest

import child
import run
import tracing
import workloads
from repro.obs.trace import validate_chrome_trace

#: Sizes small enough for a test, large enough for GC to run.
SMALL = {"figures": 0.15, "paper-full": 0.05, "array-tail": 0.0625, "stream-trim": 0.01}
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def rounds(tmp_path_factory):
    """name -> (untraced result, traced result, trace path)."""
    originals = [tracing._resolve(site)[2] for site in tracing.SITES]
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        # figures points the result cache at its own fresh directory.
        mp.setenv("CAGC_CACHE_DIR", str(tmp_path_factory.mktemp("cache")))
        for name, size in SMALL.items():
            plain = child.run_round(name, 0, tmp_path_factory.mktemp(name), size=size)
            trace_out = tmp_path_factory.mktemp(name) / f"{name}.trace.json"
            traced = child.run_round(
                name, 0, tmp_path_factory.mktemp(name), size=size, trace_out=trace_out
            )
            out[name] = (plain, traced, trace_out)
    restored = [tracing._resolve(site)[2] for site in tracing.SITES]
    assert all(r is o for r, o in zip(restored, originals)), "a site stayed patched"
    return out


def test_workload_tables_agree():
    names = set(run.WORKLOADS)
    assert names == set(workloads.WORKLOADS) == set(workloads.DEFAULT_SIZES)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("name", list(SMALL))
def test_round_passes_its_checks(rounds, name):
    plain, traced, _ = rounds[name]
    assert plain["ok"] and traced["ok"]
    assert plain["failures"] == []
    assert traced["failures"] == []  # includes the kernel cross-check
    assert plain["requests"] > 0


@pytest.mark.parametrize("name", list(SMALL))
def test_tracing_leaves_the_simulation_unchanged(rounds, name):
    plain, traced, _ = rounds[name]
    assert plain["digest"] == traced["digest"]
    assert plain["simulated"] == traced["simulated"]


@pytest.mark.parametrize("name", list(SMALL))
def test_written_trace_validates(rounds, name):
    _, _, trace_out = rounds[name]
    assert validate_chrome_trace(json.loads(trace_out.read_text())) == [f"bench.{name}"]


def test_bypassed_layers_stay_idle(rounds):
    layers = {name: traced["layers"] for name, (_, traced, _) in rounds.items()}
    assert layers["figures"]["kernel.replay.self_s"] == 0
    assert layers["figures"]["kernel.batches"] == 0
    for name in ("figures", "paper-full", "array-tail"):
        assert layers[name]["ftl.trim_request.calls"] == 0, name
    for name in ("paper-full", "stream-trim"):
        assert layers[name]["array.epoch.self_s"] == 0, name
        assert layers[name]["array.coord.calls"] == 0, name
    assert layers["stream-trim"]["ftl.trim_request.calls"] > 0
    assert layers["stream-trim"]["obs.fold.calls"] == 0
    assert layers["array-tail"]["array.coord.calls"] > 0


def test_emitted_metrics_are_the_declared_ones(rounds):
    name_pattern = re.compile(r"[A-Za-z0-9_.-]+\Z")
    declared_e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    declared_layers = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for name, (plain, traced, _) in rounds.items():
        untraced = [dict(plain, setup_s=0.25)]
        result = run.WorkloadRun(name, rounds=untraced, traced=traced)
        e2e = run.end_to_end(result)
        layers = run.per_layer(result, e2e["host_wall_s"])
        assert {k: run.END_TO_END_UNITS[k] for k in e2e} == declared_e2e, name
        assert {k: run.layer_unit(k) for k in layers} == declared_layers, name
        assert all(name_pattern.match(k) for k in [*e2e, *layers])
        assert all(v > 0 for v in e2e.values()), name
