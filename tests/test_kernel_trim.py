"""TRIM inside batched kernel runs.

Trims are ordinary rows of a kernel run: the bulk write kernel and the
inline-dedupe plan/apply kernel fold them in request order, net-final,
instead of ending the run and replaying the trim through the reference
``trim_request``.  These tests diff the two replay paths on the places
where in-run trims are most likely to crack — a trim that kills the
canonical page of content rewritten later in the run, a trim of a page
CAGC's GC merged, write/trim churn of one LPN, trims beyond the forward
map, and trims under every array coordination — and pin the work
counters on a fixed trim-bearing fixture: no ``trim`` fallback, the
GC-trigger fallbacks unchanged, and the batch count exact.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from repro.array import COORDINATIONS, SSDArray
from repro.config import small_config
from repro.dedup import index as index_mod
from repro.dedup.index import FingerprintIndex
from repro.device.ssd import SSD
from repro.obs.metrics import ArrayMetrics, DeviceMetrics
from repro.oracle import array_pages_per_device
from repro.oracle.arraydiff import diff_array_kernels
from repro.oracle.diff import build_scheme, diff_kernels
from repro.oracle.fuzz import (
    fuzz_config,
    fuzz_rows,
    fuzz_trace,
    rows_to_trace,
)
from repro.workloads import synth
from repro.workloads.fiu import FIU_PRESETS
from repro.workloads.request import OpKind
from repro.workloads.stream import StreamingTrace

SCHEMES = ("baseline", "inline-dedupe", "cagc", "lba-hotcold")

_W, _R, _T = int(OpKind.WRITE), int(OpKind.READ), int(OpKind.TRIM)


class _Rows:
    """Request rows on a 5 µs arrival clock."""

    def __init__(self) -> None:
        self.rows = []
        self.clock = 0.0

    def write(self, lpn, *fps):
        self.clock += 5.0
        self.rows.append((self.clock, _W, lpn, len(fps), tuple(fps)))
        return self

    def trim(self, lpn, npages=1):
        self.clock += 5.0
        self.rows.append((self.clock, _T, lpn, npages, ()))
        return self

    def read(self, lpn, npages=1):
        self.clock += 5.0
        self.rows.append((self.clock, _R, lpn, npages, ()))
        return self

    def trace(self):
        return rows_to_trace(self.rows)


def _chunked(trace, chunk):
    """``trace`` as a source of ``chunk``-request chunks."""
    return StreamingTrace(lambda: trace.iter_chunks(chunk), trace.name)


def _kernel_counters(trace, scheme, cfg):
    """(batches, fallbacks by reason, io counters) of a vectorized replay."""
    metrics = DeviceMetrics()
    ssd = SSD(
        build_scheme(scheme, "greedy", replace(cfg, kernel="vectorized")),
        metrics=metrics,
    )
    result = ssd.replay(trace)
    fallbacks = {
        reason: child.value
        for reason, child in metrics.kernel_fallbacks._children.items()
    }
    return metrics.kernel_batches.value, fallbacks, result.io


class TestInRunTrimEdges:
    @pytest.mark.parametrize("chunk", [3, 65536])
    def test_trim_kills_canonical_then_rewrite_misses(self, chunk):
        """A trimmed canonical leaves the index at once: the same
        content written later in the run misses and programs.  At
        chunk 3 the canonical is a pre-run page, else one the run bore."""
        a, b, c = 1 << 40, (1 << 40) + 1, (1 << 40) + 2
        rows = (
            _Rows()
            .write(0, a).write(1, b).write(2, c)
            .trim(0)  # sole referrer of `a`: the canonical dies
            .write(3, a)  # must miss
            .write(4, b).trim(1)  # `b` shared, then back to one referrer
            .write(5, b)  # still canonical: hit
            .trim(4).trim(5)  # last referrers of `b` go
            .write(6, b)  # miss again
        )
        cfg = fuzz_config()
        trace = _chunked(rows.trace(), chunk)
        assert diff_kernels(trace, scheme="inline-dedupe", config=cfg) is None
        batches, fallbacks, io = _kernel_counters(trace, "inline-dedupe", cfg)
        assert fallbacks == {}
        assert io.trim_requests == 4
        assert io.inline_dedup_hits == 2  # writes 4 and 5
        assert io.user_pages_programmed == 5
        if chunk == 65536:
            assert batches == 1

    @pytest.mark.parametrize("chunk", [5, 65536])
    def test_trim_of_gc_merged_shared_page(self, chunk):
        """CAGC merges duplicate content at GC: trimming one referrer of
        a merged page only decrefs it; trimming the last one kills it."""
        cfg = fuzz_config()
        rows = fuzz_rows(3, cfg, n_requests=260, profile="duplicate-heavy")
        prefix = rows_to_trace(rows)
        scheme = build_scheme("cagc", "greedy", replace(cfg, kernel="reference"))
        SSD(scheme).replay(prefix)
        shared = sorted(
            sorted(lpns) for lpns in scheme.mapping._shared.values()
        )
        assert len(shared) >= 3, "fixture must leave GC-merged pages"
        tail = _Rows()
        tail.clock = rows[-1][0]
        for lpns in shared[:3]:
            tail.trim(lpns[0])  # decref only
        tail.read(shared[0][1])
        for lpn in shared[0][1:]:
            tail.trim(lpn)  # the merged page dies
        tail.write(shared[1][1], (1 << 41) + 7)  # rebind the other referrer
        trace = _chunked(rows_to_trace(rows + tail.rows), chunk)
        assert diff_kernels(trace, scheme="cagc", config=cfg) is None
        assert diff_kernels(trace, scheme="cagc", config=cfg, metrics=True) is None
        _, fallbacks, _ = _kernel_counters(trace, "cagc", cfg)
        assert "trim" not in fallbacks

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_write_trim_churn_of_one_lpn(self, scheme):
        """Write-then-trim, trim-then-write, and multi-page overlaps of
        the same LPNs inside one run."""
        f = iter(range(1 << 42, (1 << 42) + 100))
        rows = (
            _Rows()
            .write(9, next(f))  # mapped before the churn below
            .write(4, next(f), next(f)).trim(4, 2)  # born, then trimmed
            .trim(6).write(6, next(f))  # trim of unmapped, then written
            .trim(9).write(9, next(f))  # trim of mapped, then rewritten
            .write(10, next(f)).trim(10).write(10, next(f)).trim(10)
            .write(12, next(f), next(f), next(f)).trim(13)  # mid-extent
            .read(12, 3)
            .write(20, 77, 77).trim(21).write(22, 77)  # duplicate content
        )
        cfg = fuzz_config()
        trace = rows.trace()
        assert diff_kernels(trace, scheme=scheme, config=cfg) is None
        batches, fallbacks, io = _kernel_counters(trace, scheme, cfg)
        assert (batches, fallbacks) == (1.0, {})
        assert io.trim_requests == 7
        assert io.read_requests == 1

    @pytest.mark.parametrize("scheme", ("baseline", "inline-dedupe"))
    def test_trims_beyond_forward_map(self, scheme):
        """The forward map spans the device's logical pages and replay
        never grows it: trims of never-written LPNs up to its edge are
        no-ops, and a trim past it fails on both kernels at the same
        request, before the map could grow."""
        from repro.workloads.trace import TraceError

        cfg = fuzz_config()
        cap = cfg.logical_pages
        rows = (
            _Rows()
            .trim(cap - 3, 3)  # up to the edge, before any write
            .write(1, 11).write(cap - 1, 12)
            .trim(cap - 4)  # never written
            .trim(cap - 2, 2)  # ends at the edge, over a written page
            .write(cap - 4, 13)
        )
        trace = rows.trace()
        assert diff_kernels(trace, scheme=scheme, config=cfg) is None
        lengths = {}
        for kernel in ("reference", "vectorized"):
            s = build_scheme(scheme, "greedy", replace(cfg, kernel=kernel))
            SSD(s).replay(trace)
            lengths[kernel] = (len(s.mapping._fwd), len(s.mapping))
        assert lengths["reference"] == lengths["vectorized"] == (cap, 2)
        _, fallbacks, io = _kernel_counters(trace, scheme, cfg)
        assert fallbacks == {}
        assert io.trim_requests == 3
        past = rows.write(cap - 3, 14).trim(cap - 1, 2).write(2, 15).trace()
        for kernel in ("reference", "vectorized"):
            s = build_scheme(scheme, "greedy", replace(cfg, kernel=kernel))
            with pytest.raises(TraceError) as info:
                SSD(s).replay(past)
            assert (info.value.index, info.value.field) == (7, "lpns")
            assert len(s.mapping._fwd) == cap


class TestArrayTrims:
    @pytest.mark.parametrize("coordination", COORDINATIONS)
    @pytest.mark.parametrize("scheme", ("cagc", "inline-dedupe"))
    def test_trims_ride_epoch_runs(self, coordination, scheme):
        cfg = fuzz_config()
        trims = 0
        for seed in range(4):
            trace = fuzz_trace(seed, cfg, n_requests=220, profile="array")
            assert (
                diff_array_kernels(
                    trace, devices=2, scheme=scheme, config=cfg,
                    coordination=coordination, ncq_depth=4,
                )
                is None
            )
            metrics = ArrayMetrics()
            schemes = [
                build_scheme(scheme, "greedy", replace(cfg, kernel="vectorized"))
                for _ in range(2)
            ]
            result = SSDArray(
                schemes, coordination=coordination, ncq_depth=4,
                pages_per_device=array_pages_per_device(cfg, 2),
                metrics=metrics,
            ).replay(trace)
            assert result.kernel_fallback_reason is None
            assert "trim" not in metrics.kernel_fallbacks._children
            trims += sum(run.io.trim_requests for run in result.devices)
        assert trims > 0


def _trim_fixture():
    """A 3,000-request homes trace with 5 % TRIMs on a 64-block device."""
    cfg = small_config(blocks=64, pages_per_block=16, kernel="vectorized")
    homes = FIU_PRESETS["homes"]
    span = int(cfg.logical_pages * 0.84)
    spec = homes.with_overrides(
        n_requests=3000,
        lpn_space=span,
        popular_pool=max(128, span // 20),
        trim_ratio=0.05,
        seed=1234,
    )
    return synth.generate_trace(spec), cfg


class TestTrimWorkGate:
    """Exact work counters on a fixed trim-bearing fixture.  Before
    trims rode the kernel, each of the 143 trims was its own fallback
    and split a run: batches were 343 / 292 / 251 / 339."""

    @pytest.mark.parametrize(
        "scheme, batches, gc_triggers",
        [
            ("baseline", 231, 230),
            ("cagc", 180, 179),
            ("inline-dedupe", 133, 132),
            ("lba-hotcold", 227, 229),
        ],
    )
    def test_counters(self, scheme, batches, gc_triggers):
        trace, cfg = _trim_fixture()
        got = _kernel_counters(trace, scheme, cfg)
        assert got[:2] == (batches, {"gc-trigger": gc_triggers})
        assert got[2].trim_requests == 143
        assert diff_kernels(trace, scheme=scheme, config=cfg) is None


class TestBulkIndexUpdatesInKernel:
    """The inline-dedupe apply lands index changes through
    ``insert_many`` / ``remove_many``.  With the bulk path forced on
    every batch, the replay must leave the index byte-identical to one
    whose bulk ops are per-item ``insert`` / ``remove_ppn`` loops."""

    @staticmethod
    def replay(per_item):
        trace, cfg = _trim_fixture()
        scheme = build_scheme("inline-dedupe", "greedy", cfg)
        sizes = []
        bulk_insert = FingerprintIndex.insert_many

        def insert_many(self, fps, ppns):
            sizes.append(len(fps))
            if not per_item:
                return bulk_insert(self, fps, ppns)
            for fp, ppn in zip(np.asarray(fps).tolist(), np.asarray(ppns).tolist()):
                self.insert(fp, ppn)

        def remove_loop(self, ppns):
            for ppn in np.asarray(ppns).tolist():
                self.remove_ppn(ppn)

        with mock.patch.object(index_mod, "_BULK_MIN", 1), mock.patch.object(
            FingerprintIndex, "insert_many", insert_many
        ):
            if per_item:
                with mock.patch.object(FingerprintIndex, "remove_many", remove_loop):
                    SSD(scheme).replay(trace)
            else:
                SSD(scheme).replay(trace)
        ix = scheme.index
        table = (
            bytes(ix._keys), bytes(ix._vals), bytes(ix._ppn_fp), ix._mask,
            ix._used, ix._filled, ix.hits, ix.misses,
        )
        return table, scheme.state_snapshot(), sizes

    def test_matches_per_item_loops(self):
        bulk_table, bulk_state, sizes = self.replay(per_item=False)
        loop_table, loop_state, _ = self.replay(per_item=True)
        assert max(sizes) > 8  # the fixture's runs do reach the bulk path
        assert bulk_table == loop_table
        assert bulk_state == loop_state
