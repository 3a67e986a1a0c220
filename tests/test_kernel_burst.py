"""The vectorized kernel's GC burst pass (``repro.kernel.burst``).

Every burst must leave exactly the state the reference select ->
collect loop leaves: trajectories, counters, and the raw FTL columns
down to the fingerprint index's open-addressing table bytes.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import GeometryConfig
from repro.device.ssd import SSD
from repro.ftl.allocator import Region
from repro.kernel.orchestrator import kernel_views
from repro.oracle.diff import build_scheme, diff_kernels
from repro.oracle.fuzz import fuzz_config, fuzz_trace
from repro.schemes.base import FTLScheme

PROFILES = ("duplicate-heavy", "gc-fill", "overwrite-storm")
SCHEMES = ("baseline", "inline-dedupe", "cagc")
POLICIES = ("greedy", "random", "cost-benefit")
#: the 16x8 fuzz device (GC trigger at 4 free blocks) and a 64-page-
#: block geometry, where a victim holds dozens of valid pages.
GEOMETRIES = {
    "fuzz-16x8": fuzz_config(),
    "64-page": fuzz_config(
        geometry=GeometryConfig(channels=2, pages_per_block=64, blocks=12)
    ),
}


def _columns(scheme: FTLScheme) -> dict:
    """Raw bytes of every column a burst writes."""
    mapping = scheme.mapping
    index = scheme.index
    flash = scheme.flash
    return {
        "fwd": bytes(mapping._fwd),
        "ref": bytes(mapping._ref),
        "solo": bytes(mapping._solo),
        "shared": {ppn: sorted(lpns) for ppn, lpns in mapping._shared.items()},
        "fp": bytes(scheme.page_fp._col),
        "peak": bytes(scheme.tracker.peaks._col),
        "keys": bytes(index._keys),
        "vals": bytes(index._vals),
        "ppn_fp": bytes(index._ppn_fp),
        "index": (index._used, index._filled, index.hits, index.misses),
        "page_state": flash.page_state.tobytes(),
        "counts": (
            flash.valid_count.tobytes(),
            flash.invalid_count.tobytes(),
            flash.write_ptr.tobytes(),
            flash.erase_count.tobytes(),
            flash.last_write_us.tobytes(),
        ),
        "gc": scheme.gc_counters,
        "hist": scheme.tracker.histogram,
    }


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    profile=st.sampled_from(PROFILES),
    scheme=st.sampled_from(SCHEMES),
    policy=st.sampled_from(POLICIES),
    geometry=st.sampled_from(sorted(GEOMETRIES)),
)
def test_burst_pass_matches_reference(seed, profile, scheme, policy, geometry):
    config = GEOMETRIES[geometry]
    trace = fuzz_trace(seed, config, n_requests=300, profile=profile)
    assert diff_kernels(trace, scheme=scheme, policy=policy, config=config) is None


@pytest.mark.parametrize("profile", PROFILES)
def test_cagc_index_table_bytes_match(profile):
    """After a CAGC replay the index's key, value and reverse columns
    are byte-equal on both kernels (the walk inserts on the raw table,
    growth included)."""
    columns = {}
    for kernel in ("reference", "vectorized"):
        config = replace(GEOMETRIES["64-page"], kernel=kernel)
        trace = fuzz_trace(3, config, n_requests=800, profile=profile)
        scheme = build_scheme("cagc", "greedy", config)
        SSD(scheme).replay(trace)
        assert scheme.gc_counters.blocks_erased > 0
        columns[kernel] = _columns(scheme)
    assert columns["vectorized"] == columns["reference"]


def _overwritten_device(scheme_name: str, burst: bool) -> FTLScheme:
    """A 16x8 device whose twelve full blocks each hold one invalid page
    and whose active block holds two: one long reclaim then picks the
    active block right after it fills with copies (a destination picked
    later in the burst) and cycles the free pool through erased victims
    (an erased victim pulled again as a destination)."""
    scheme = build_scheme(scheme_name, "greedy", replace(fuzz_config(), kernel="vectorized"))
    if burst:
        kernel_views(scheme)
    fp = 1 << 20
    for lpn in range(96):  # blocks 0..11, full
        fp += 1
        scheme.write_request(lpn, [fp], float(lpn))
    for block in range(12):  # one invalid page per full block
        fp += 1
        scheme.write_request(8 * block, [fp], 100.0 + block)
    for lpn in (80, 88):  # two invalid pages in the active block
        fp += 1
        scheme.write_request(lpn, [fp], 200.0 + lpn)
    return scheme


@pytest.mark.parametrize("name", ["baseline", "inline-dedupe"])
def test_plain_copy_reclaim_matches_reference(name):
    """Pages copied in one burst move again when their block is picked
    later in the same burst, onto blocks erased earlier in it."""
    reference = _overwritten_device(name, burst=False)
    fast = _overwritten_device(name, burst=True)
    # Log the burst's block events in order: ("erase", victim) and
    # ("pull", destination block); copies go first to the open block.
    events = [("pull", fast.allocator._active[Region.HOT])]
    erase, pull = fast._erase_victim, fast.allocator._pull_free

    def logged_erase(victim):
        events.append(("erase", victim))
        erase(victim)

    def logged_pull(region):
        block = pull(region)
        events.append(("pull", block))
        return block

    fast._erase_victim = logged_erase
    fast.allocator._pull_free = logged_pull
    floor = reference.flash.blocks
    assert fast.reclaim(1000.0, floor) == reference.reclaim(1000.0, floor)
    # A destination block picked later in the burst, and an erased
    # victim pulled again as a destination.
    before = [
        (kind, block, events[:i]) for i, (kind, block) in enumerate(events)
    ]
    assert any(k == "erase" and ("pull", b) in seen for k, b, seen in before)
    assert any(k == "pull" and ("erase", b) in seen for k, b, seen in before)
    assert _columns(fast) == _columns(reference)
    assert fast.state_snapshot() == reference.state_snapshot()
    fast.check_invariants()


def test_run_gc_calls_equal_invocations(monkeypatch):
    """``FTLScheme.run_gc`` stays the class-level entry of every burst
    on the vectorized kernel."""
    calls = []
    original = FTLScheme.run_gc

    def counted(self, now_us):
        calls.append(now_us)
        return original(self, now_us)

    monkeypatch.setattr(FTLScheme, "run_gc", counted)
    config = replace(fuzz_config(), kernel="vectorized")
    for name in SCHEMES:
        calls.clear()
        scheme = build_scheme(name, "greedy", config)
        SSD(scheme).replay(fuzz_trace(1, config, n_requests=300, profile="gc-fill"))
        assert scheme.burst_pass is not None
        assert len(calls) == scheme.gc_counters.gc_invocations > 0
