"""The vectorized replay's one run step and its runner: GC-boundary
math, the adaptive run window, and the uncoordinated scheduler.

The kernel-equivalence fuzz covers these only through whole replays;
here :func:`gc_trigger_ordinal` is held to a brute-force per-write scan,
the window rule is checked both as a function and as the lookahead
every kind of lane hands the inline-dedupe plan, and an uncoordinated
lane (a bare SSD, an ``independent`` array device) is held to one plan
per run, no engine event, and the bare SSD's ``kernel`` trace.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.kernel.arrayepoch as epoch
import repro.kernel.orchestrator as orch
from repro.array import SSDArray
from repro.config import small_config
from repro.device.ssd import SSD
from repro.kernel.orchestrator import gc_trigger_ordinal, next_window, write_prefix
from repro.obs.metrics import DeviceMetrics
from repro.obs.trace import TRACK_KERNEL, Tracer
from repro.oracle.diff import build_scheme
from repro.oracle.fuzz import rows_to_trace
from repro.workloads.fiu import build_fiu_trace
from repro.workloads.request import OpKind


def _brute_trigger(wpages, lo, af0, ppb, budget) -> int:
    """First write ``k >= lo`` whose pre-write check fires, scanning
    write by write: after ``c`` pages programmed since ``lo`` the active
    block (``af0`` pages left) has pulled ``max(0, ceil((c - af0) /
    ppb))`` fresh blocks, and the check fires once that exceeds
    ``budget``.  ``len(wpages)`` when no write fires."""
    c = 0
    for k in range(lo, len(wpages)):
        if max(0, math.ceil((c - af0) / ppb)) > budget:
            return k
        c += wpages[k]
    return len(wpages)


@st.composite
def _trigger_cases(draw):
    ppb = draw(st.sampled_from([1, 4, 16]))
    wpages = draw(st.lists(st.integers(0, 3 * ppb), max_size=40))
    lo = draw(st.integers(0, len(wpages)))
    af0 = draw(st.one_of(st.sampled_from([0, ppb]), st.integers(0, ppb)))
    budget = draw(st.integers(-3, 12))
    return wpages, lo, af0, ppb, budget


class TestGcTriggerOrdinal:
    @settings(max_examples=300, deadline=None)
    @given(_trigger_cases())
    @example(([4, 4, 4], 0, 0, 4, -1))  # below the watermark: first write
    @example(([4, 4, 4], 1, 4, 4, -2))
    @example(([], 0, 0, 4, 0))
    def test_matches_per_write_scan(self, case):
        wpages, lo, af0, ppb, budget = case
        prefix = write_prefix(np.asarray(wpages, dtype=np.int64))
        got = gc_trigger_ordinal(prefix, lo, af0, ppb, budget)
        assert min(got, len(wpages)) == _brute_trigger(
            wpages, lo, af0, ppb, budget
        )

    @pytest.mark.parametrize("af0", [0, 16])
    @pytest.mark.parametrize("budget", [0, 1, 3])
    def test_exact_budget_edge(self, af0, budget):
        """``c == af0 + budget * ppb`` pages exactly fill the budget: the
        write after them still fits, the one after that fires."""
        ppb = 16
        limit = af0 + budget * ppb
        wpages = [1] * (limit + 3)
        prefix = write_prefix(np.asarray(wpages, dtype=np.int64))
        assert gc_trigger_ordinal(prefix, 0, af0, ppb, budget) == limit + 1
        assert _brute_trigger(wpages, 0, af0, ppb, budget) == limit + 1


class TestWindowRule:
    @pytest.mark.parametrize(
        "window, run_len, expected",
        [
            (1024, 700, 1024),  # a boundary after a long run keeps it wide
            (1024, 300, 600),
            (1024, 10, 256),  # never below the floor
            (1024, 0, 256),
            (256, 256, 512),  # a filled window doubles
            (512, 512, 1024),
            (1024, 1024, 1024),  # up to the cap
        ],
    )
    def test_next_window(self, window, run_len, expected):
        assert next_window(window, run_len) == expected

    @pytest.mark.parametrize(
        "coordination, first_pages",
        # The first write's extent places the first GC boundary (the
        # trigger for a bare device, the reserve for a coordinated
        # lane) exactly 700 requests in.
        [
            (None, 118),
            ("independent", 118),
            ("staggered", 262),
            ("global-token", 262),
        ],
    )
    def test_window_after_a_700_request_run(
        self, monkeypatch, coordination, first_pages
    ):
        """Every kind of lane sizes the plan after a boundary from the
        run it ended: 700 requests -> a 1024-request lookahead."""
        cfg = small_config(blocks=64, pages_per_block=16, kernel="vectorized")
        rows = []
        fp = 1 << 40
        lpn = 0
        for k in range(3000):
            pages = first_pages if k == 0 else 1
            rows.append(
                (float(k), int(OpKind.WRITE), lpn % 888, pages,
                 tuple(range(fp, fp + pages)))
            )
            fp += pages
            lpn += pages
        trace = rows_to_trace(rows)
        plans = []
        plan_inline_run = orch.plan_inline_run

        def recording(scheme, views, rlpns, *args):
            j, plan = plan_inline_run(scheme, views, rlpns, *args)
            plans.append((len(rlpns), j))
            return j, plan

        monkeypatch.setattr(orch, "plan_inline_run", recording)
        scheme = build_scheme("inline-dedupe", "greedy", cfg)
        if coordination is None:
            SSD(scheme).replay(trace)
        else:
            result = SSDArray([scheme], coordination=coordination).replay(trace)
            assert result.kernel_fallback_reason is None
        assert plans[0] == (1024, 700)
        assert plans[1][0] == 1024


def _gc_trace(cfg):
    return build_fiu_trace("homes", cfg, n_requests=3000, fill_factor=3.0, seed=7)


def _kernel_events(tracer):
    """The ``kernel`` track without its host-time attribution."""
    return [
        ev._replace(args={k: v for k, v in ev.args.items() if k != "wall_us"})
        if ev.args
        else ev
        for ev in tracer.events()
        if ev.track == TRACK_KERNEL
    ]


class TestUncoordinatedLane:
    @pytest.mark.parametrize(
        "scheme_name, plans, batches, fallbacks",
        [("inline-dedupe", 138, 138, 137), ("cagc", 196, 196, 195)],
    )
    def test_one_plan_per_run(
        self, monkeypatch, scheme_name, plans, batches, fallbacks
    ):
        """A boundary write is served in the step whose plan ended at
        it: planning again there would add one plan per fallback."""
        cfg = small_config(blocks=64, pages_per_block=16, kernel="vectorized")
        calls = []
        plan_run = epoch.plan_run

        def counting(*args):
            calls.append(args[3])
            return plan_run(*args)

        monkeypatch.setattr(epoch, "plan_run", counting)
        ssd = SSD(build_scheme(scheme_name, "greedy", cfg), metrics=DeviceMetrics())
        values = ssd.replay(_gc_trace(cfg)).metrics.values
        assert len(calls) == plans
        assert values["cagc_kernel_batches_total"] == batches
        assert (
            values['cagc_kernel_fallback_requests_total{reason="gc-trigger"}']
            == fallbacks
        )
        assert ssd.sim.events_processed == 0

    def test_independent_array_schedules_no_event(self):
        cfg = small_config(blocks=64, pages_per_block=16, kernel="vectorized")
        trace = _gc_trace(cfg)
        array = SSDArray(
            [build_scheme("cagc", "greedy", cfg) for _ in range(2)],
            pages_per_device=cfg.logical_pages,
        )
        result = array.replay(trace)
        assert result.kernel_fallback_reason is None
        assert sum(d.gc.gc_invocations for d in result.devices) > 0
        assert array.sim.events_processed == 0

    @pytest.mark.parametrize("scheme_name", ["cagc", "inline-dedupe"])
    def test_one_lane_independent_array_traces_like_bare_ssd(self, scheme_name):
        cfg = small_config(blocks=64, pages_per_block=16, kernel="vectorized")
        trace = _gc_trace(cfg)
        bare = Tracer()
        SSD(build_scheme(scheme_name, "greedy", cfg), tracer=bare).replay(trace)
        lane = Tracer()
        result = SSDArray(
            [build_scheme(scheme_name, "greedy", cfg)], tracer=lane
        ).replay(trace)
        assert result.kernel_fallback_reason is None
        events = _kernel_events(bare)
        assert any(ev.name == "fallback" for ev in events)
        assert _kernel_events(lane) == events
