"""The oracle sweep script: flag checks and shrinking under the exact diff."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.kernel import arrayepoch
from repro.oracle import diff_array_kernels, fuzz_config
from repro.workloads.trace import Trace

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_oracle.py"


@pytest.fixture(scope="module")
def check_oracle():
    spec = importlib.util.spec_from_file_location("check_oracle", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "argv", [["--metrics"], ["--array", "--metrics"], ["--array", "--profiles", "mixed"]]
)
def test_unrun_flag_combinations_exit_2(check_oracle, argv, capsys):
    with pytest.raises(SystemExit) as info:
        check_oracle.main([*argv, "--seeds", "0"])
    assert info.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_array_kernel_shrink_keeps_the_kernel_divergence(
    check_oracle, monkeypatch, tmp_path
):
    """A fault only the epoch kernel has (its NCQ peak counter off by
    one) shrinks under ``diff_array_kernels`` at the sweep's NCQ depth,
    not under the naive-model diff, which cannot see it."""
    counters = arrayepoch._ncq_counters

    def off_by_one(array, lane, sub, latencies):
        counters(array, lane, sub, latencies)
        lane.ncq_peak += 1

    monkeypatch.setattr(arrayepoch, "_ncq_counters", off_by_one)
    argv = [
        "--array", "--kernel-equivalence", "--shrink", "--seeds", "1",
        "--requests", "40", "--schemes", "cagc", "--policies", "greedy",
        "--regress-dir", str(tmp_path), "-q",
    ]
    assert check_oracle.main(argv) == 1
    cases = sorted(tmp_path.glob("array-s0-d1-cagc-greedy-*.csv"))
    assert cases
    for path in cases:
        coordination = path.stem.split("-greedy-")[1]
        divergence = diff_array_kernels(
            Trace.load_csv(path),
            devices=1,
            scheme="cagc",
            policy="greedy",
            config=fuzz_config(),
            coordination=coordination,
            ncq_depth=2,  # seed 0's depth in the sweep's rotation
        )
        assert divergence is not None, path.name
