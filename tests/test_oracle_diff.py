"""Property tests: the real FTL agrees with the reference oracle.

Every scheme x GC-policy combination replays a battery of seeded
adversarial fuzz traces through ``repro.oracle.diff.diff_trace`` and
must never diverge — on logical content, refcounts, live-page bounds,
request counters, the program/erase conservation laws, or any
structural invariant.  The seed count is tunable at the command line
(``pytest --oracle-seeds 50``); a deeper sweep lives behind the
opt-in ``oracle`` marker (``pytest -m oracle``).

The bug-detection tests close the loop: with a deliberately corrupted
victim index (``tests/_oracle_helpers.py``) the harness MUST report a
divergence, proving the net has no hole where that bug class lives.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.oracle import ALL_POLICIES, ALL_SCHEMES, diff_trace, fuzz_config, fuzz_trace
from repro.workloads.trace import Trace

from tests._oracle_helpers import victim_index_off_by_one

REGRESS_DIR = Path(__file__).parent / "regress"

COMBOS = [
    pytest.param(scheme, policy, id=f"{scheme}-{policy}")
    for scheme in ALL_SCHEMES
    for policy in ALL_POLICIES
]


@pytest.fixture(scope="module")
def fuzz_cfg():
    return fuzz_config()


@pytest.mark.parametrize("scheme,policy", COMBOS)
def test_no_divergence_on_fuzz_seeds(scheme, policy, fuzz_cfg, oracle_seeds):
    """Clean code never diverges from the oracle, for any combo."""
    for seed in range(oracle_seeds):
        trace = fuzz_trace(seed, fuzz_cfg)
        divergence = diff_trace(
            trace, scheme=scheme, policy=policy, config=fuzz_cfg, check_every=4
        )
        assert divergence is None, str(divergence)


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_no_divergence_preemptive_gc(scheme):
    """Preemptive-GC configs auto-route to device replay and still agree,
    over seeds on which the device reclaims both before writes (the
    free-block reserve) and in idle gaps."""
    from repro.device.ssd import SSD
    from repro.oracle.diff import build_scheme

    cfg = fuzz_config(gc_mode="preemptive")
    erased = idle_chunks = 0
    for seed in range(8):
        trace = fuzz_trace(seed, cfg)
        divergence = diff_trace(trace, scheme=scheme, config=cfg)
        assert divergence is None, str(divergence)
        ssd = SSD(build_scheme(scheme, "greedy", cfg))
        erased += ssd.replay(trace).gc.blocks_erased
        idle_chunks += ssd.background_gc_chunks
    assert erased > idle_chunks > 0


@pytest.mark.parametrize("scheme", ALL_SCHEMES)
def test_no_divergence_write_buffer(scheme):
    """With a DRAM write buffer state still matches at end of replay
    (counters are buffer-dependent and excluded from the compare)."""
    cfg = fuzz_config(write_buffer_pages=8)
    for seed in range(4):
        divergence = diff_trace(
            fuzz_trace(seed, cfg), scheme=scheme, config=cfg
        )
        assert divergence is None, str(divergence)


def test_injected_victim_index_bug_is_caught(fuzz_cfg):
    """The harness detects a real (re-injected) victim-index bug."""
    with victim_index_off_by_one():
        hits = []
        for seed in range(3):
            divergence = diff_trace(
                fuzz_trace(seed, fuzz_cfg), scheme="baseline", config=fuzz_cfg
            )
            if divergence is not None:
                hits.append(divergence)
        assert hits, "corrupted victim index escaped the differential harness"
        assert any(d.kind == "invariant" for d in hits)


def test_injected_bug_caught_in_device_replay():
    """gc_hook wiring: the same bug is caught mid-replay on a real SSD."""
    cfg = fuzz_config(gc_mode="preemptive")
    with victim_index_off_by_one():
        hits = [
            diff_trace(fuzz_trace(seed, cfg), scheme="baseline", config=cfg)
            for seed in range(3)
        ]
        assert any(d is not None and d.kind == "invariant" for d in hits)


def _regress_traces():
    paths = sorted(REGRESS_DIR.glob("*.csv"))
    assert paths, f"no regression traces under {REGRESS_DIR}"
    return paths


@pytest.mark.parametrize("path", _regress_traces(), ids=lambda p: p.stem)
@pytest.mark.parametrize("scheme,policy", COMBOS)
def test_regression_traces_stay_clean(path, scheme, policy, fuzz_cfg):
    """Every committed shrunk regression trace replays cleanly today."""
    trace = Trace.load_csv(path, name=path.stem)
    divergence = diff_trace(trace, scheme=scheme, policy=policy, config=fuzz_cfg)
    assert divergence is None, str(divergence)


def test_victim_index_regress_trace_still_triggers_bug(fuzz_cfg):
    """The committed minimal trace still reproduces the bug it shrank
    from — if the injection stops firing, the regression case is dead."""
    trace = Trace.load_csv(
        REGRESS_DIR / "victim-index-off-by-one.csv", name="victim-index-off-by-one"
    )
    with victim_index_off_by_one():
        divergence = diff_trace(trace, scheme="baseline", config=fuzz_cfg)
    assert divergence is not None and divergence.kind == "invariant"


@pytest.mark.oracle
@pytest.mark.parametrize("scheme,policy", COMBOS)
def test_deep_fuzz_sweep(scheme, policy, fuzz_cfg):
    """Opt-in deep sweep (pytest -m oracle): 50 seeds per combo."""
    for seed in range(50):
        trace = fuzz_trace(seed, fuzz_cfg)
        divergence = diff_trace(
            trace, scheme=scheme, policy=policy, config=fuzz_cfg, check_every=2
        )
        assert divergence is None, str(divergence)
