"""Tests for the incremental GC victim index and its selection paths.

The contract under test: for every policy, selection through the
incrementally-maintained :class:`VictimIndex` is *bit-identical* to the
brute-force reference path (O(blocks) mask + full scan), at any point
of any program/invalidate/erase history — including the seeded RNG
stream of the random policy and the hot-first filtering of the
region-aware wrapper.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import GeometryConfig, small_config
from repro.flash.chip import FlashArray
from repro.ftl.allocator import BlockAllocator, Region
from repro.ftl.gc import make_policy
from repro.ftl.gc.cost_benefit import CostBenefitPolicy
from repro.ftl.gc.greedy import GreedyPolicy
from repro.ftl.gc.index import VictimIndex
from repro.ftl.gc.random_policy import RandomPolicy
from repro.ftl.gc.region_aware import RegionAwarePolicy
from repro.schemes import make_scheme


def make_indexed_allocator(blocks=8, pages_per_block=4):
    flash = FlashArray(
        GeometryConfig(channels=2, pages_per_block=pages_per_block, blocks=blocks)
    )
    alloc = BlockAllocator(flash)
    flash.victim_index = VictimIndex(flash)
    return flash, alloc, flash.victim_index


class TestVictimIndexUnit:
    def test_empty_flash_has_no_candidates(self):
        flash, alloc, index = make_indexed_allocator()
        assert len(index) == 0
        assert index.top_block() == -1
        assert index.sorted_candidates().size == 0
        index.check_consistency(alloc)

    def test_partial_block_not_indexed(self):
        flash, alloc, index = make_indexed_allocator()
        ppn = alloc.allocate_page(Region.HOT)
        flash.invalidate(ppn)
        assert len(index) == 0
        index.check_consistency(alloc)

    def test_block_enters_on_fill_with_prior_invalid(self):
        flash, alloc, index = make_indexed_allocator()
        ppn = alloc.allocate_page(Region.HOT)
        flash.invalidate(ppn)  # invalid while still active/partial
        for _ in range(3):
            alloc.allocate_page(Region.HOT)
        assert index.top_block() == 0
        index.check_consistency(alloc)

    def test_block_enters_on_first_invalidate_after_fill(self):
        flash, alloc, index = make_indexed_allocator()
        ppns = [alloc.allocate_page(Region.HOT) for _ in range(4)]
        assert len(index) == 0  # full but fully valid: nothing to reclaim
        flash.invalidate(ppns[2])
        assert index.top_block() == 0
        index.check_consistency(alloc)

    def test_invalidate_moves_block_up_buckets(self):
        flash, alloc, index = make_indexed_allocator()
        ppns = [alloc.allocate_page(Region.HOT) for _ in range(4)]
        for count, ppn in enumerate(ppns, start=1):
            flash.invalidate(ppn)
            assert index.candidates_mask()[0]
            assert int(flash.invalid_count[0]) == count
            index.check_consistency(alloc)

    def test_erase_removes_block(self):
        flash, alloc, index = make_indexed_allocator()
        ppns = [alloc.allocate_page(Region.HOT) for _ in range(4)]
        for ppn in ppns:
            flash.invalidate(ppn)
        flash.erase(0)
        alloc.release_block(0)
        assert len(index) == 0
        assert index.top_block() == -1
        index.check_consistency(alloc)

    def test_top_block_ties_break_to_lowest_id(self):
        flash, alloc, index = make_indexed_allocator(blocks=6)
        ppns = [alloc.allocate_page(Region.HOT) for _ in range(24)]
        # Blocks 0..5 all full; give blocks 4, 1 and 3 two invalids each.
        for block in (4, 1, 3):
            flash.invalidate(ppns[block * 4])
            flash.invalidate(ppns[block * 4 + 1])
        assert index.top_block() == 1
        index.check_consistency(alloc)

    def test_sorted_candidates_ascending_int64(self):
        flash, alloc, index = make_indexed_allocator(blocks=6)
        ppns = [alloc.allocate_page(Region.HOT) for _ in range(24)]
        for block in (5, 0, 2):
            flash.invalidate(ppns[block * 4])
        arr = index.sorted_candidates()
        assert arr.dtype == np.int64
        assert arr.tolist() == [0, 2, 5]

    def test_rebuild_matches_incremental_state(self):
        flash, alloc, index = make_indexed_allocator(blocks=6)
        ppns = [alloc.allocate_page(Region.HOT) for _ in range(20)]
        for ppn in ppns[::3]:
            flash.invalidate(ppn)
        before = index.candidates_mask().tolist()
        index.rebuild()
        assert index.candidates_mask().tolist() == before
        index.check_consistency(alloc)


def all_policy_pairs(seed=0):
    """(name, oracle_policy, indexed_policy) with paired RNG streams."""
    return [
        ("greedy", GreedyPolicy(), GreedyPolicy()),
        ("cost-benefit", CostBenefitPolicy(), CostBenefitPolicy()),
        ("random", RandomPolicy(seed=seed), RandomPolicy(seed=seed)),
    ]


def assert_selections_match(scheme, now_us, seed=0):
    """Indexed selection must equal the masked-oracle selection for all
    four policies (region-aware wraps each base policy)."""
    flash = scheme.flash
    alloc = scheme.allocator
    index = scheme.victim_index
    mask = alloc.victim_candidates_mask()
    for name, oracle, indexed in all_policy_pairs(seed):
        want = oracle.select(flash, mask.copy(), now_us)
        got = indexed.select_indexed(flash, index, now_us)
        assert got == want, f"{name}: indexed {got} != oracle {want}"
    for name, oracle, indexed in all_policy_pairs(seed):
        oracle_wrap = RegionAwarePolicy(oracle, alloc)
        indexed_wrap = RegionAwarePolicy(indexed, alloc)
        want = oracle_wrap.select(flash, mask.copy(), now_us)
        got = indexed_wrap.select_indexed(flash, index, now_us)
        assert got == want, f"hot-first({name}): indexed {got} != oracle {want}"


class TestOracleEquivalenceProperty:
    """Randomized program/invalidate/erase churn; selection must agree
    with the oracle at every checkpoint, for every policy."""

    @pytest.mark.parametrize("scheme_name", ["baseline", "cagc", "lba-hotcold"])
    def test_random_churn_replay(self, scheme_name):
        rng = np.random.default_rng(42)
        cfg = small_config(blocks=24, pages_per_block=8)
        scheme = make_scheme(scheme_name, cfg)
        logical = cfg.logical_pages
        now = 0.0
        for step in range(400):
            now += float(rng.uniform(1.0, 50.0))
            op = rng.random()
            lpn = int(rng.integers(0, logical - 4))
            npages = int(rng.integers(1, 5))
            if op < 0.75:
                fps = [int(f) for f in rng.integers(0, 40, size=npages)]
                if scheme.needs_gc():
                    scheme.run_gc(now)
                scheme.write_request(lpn, fps, now)
            elif op < 0.9:
                scheme.trim_request(lpn, npages, now)
            elif scheme.needs_background_gc():
                scheme.collect_next(now)
            if step % 20 == 0:
                assert_selections_match(scheme, now, seed=step)
                scheme.check_invariants()  # includes index consistency
        assert_selections_match(scheme, now)
        scheme.check_invariants()

    def test_direct_flash_churn(self):
        """Drive allocator/flash directly (no scheme) through fills,
        invalidations and erases; index tracks the oracle mask."""
        rng = np.random.default_rng(7)
        flash, alloc, index = make_indexed_allocator(blocks=16, pages_per_block=8)
        live = []
        for step in range(2000):
            roll = rng.random()
            if roll < 0.55 and alloc.free_blocks > 1:
                live.append(alloc.allocate_page(int(rng.random() < 0.3)))
            elif roll < 0.9 and live:
                victim = live.pop(int(rng.integers(len(live))))
                flash.invalidate(victim)
            else:
                erasable = [
                    b
                    for b in range(flash.blocks)
                    if flash.valid_count[b] == 0
                    and flash.write_ptr[b] > 0
                    and not alloc.is_active(b)
                ]
                if erasable:
                    block = erasable[int(rng.integers(len(erasable)))]
                    flash.erase(block)
                    alloc.release_block(block)
            if step % 50 == 0:
                index.check_consistency(alloc)
                mask = alloc.victim_candidates_mask()
                now = float(step)
                for name, oracle, indexed in all_policy_pairs(seed=step):
                    want = oracle.select(flash, mask.copy(), now)
                    got = indexed.select_indexed(flash, index, now)
                    assert got == want, f"{name} diverged at step {step}"
        index.check_consistency(alloc)


class TestIndexedSelectionInGC:
    def test_run_gc_uses_index_and_matches_oracle_policy(self):
        """A replay driven purely by the index-backed driver produces
        the same victim sequence the oracle path would have."""
        from repro.device.ssd import run_trace
        from repro.workloads.fiu import build_fiu_trace

        class OracleGreedy(GreedyPolicy):
            """Greedy forced through the O(blocks) reference path."""

            def select_indexed(self, flash, index, now_us, region_arr=None, region=-1):
                mask = index.candidates_mask()
                if region_arr is not None:
                    mask &= region_arr == region
                return self.select(flash, mask, now_us)

        cfg = small_config(blocks=64, pages_per_block=16)
        trace = build_fiu_trace("mail", cfg, n_requests=2000)
        fast = run_trace(make_scheme("cagc", cfg, policy=GreedyPolicy()), trace)
        slow = run_trace(make_scheme("cagc", cfg, policy=OracleGreedy()), trace)
        assert fast.gc.blocks_erased == slow.gc.blocks_erased
        assert fast.gc.pages_migrated == slow.gc.pages_migrated
        assert np.array_equal(fast.response_times_us, slow.response_times_us)

    def test_check_invariants_detects_index_corruption(self):
        cfg = small_config(blocks=16, pages_per_block=4)
        scheme = make_scheme("baseline", cfg)
        fps = list(range(8))
        scheme.write_request(0, fps, 0.0)
        scheme.write_request(0, fps, 1.0)  # overwrites: blocks 0-1 reclaimable
        scheme.check_invariants()
        # Corrupt the index behind the flash hooks' back.
        scheme.victim_index._add(9, 2)
        with pytest.raises(AssertionError):
            scheme.check_invariants()


class TestBulkWritePath:
    """The bulk program-run fast path must be state-identical to the
    per-page write_page loop."""

    @pytest.mark.parametrize("scheme_name", ["baseline", "cagc", "lba-hotcold"])
    def test_bulk_matches_per_page(self, scheme_name):
        from repro.device.ssd import run_trace
        from repro.workloads.fiu import build_fiu_trace

        cfg = small_config(blocks=48, pages_per_block=8)
        trace = build_fiu_trace("web-vm", cfg, n_requests=1500)
        bulk_scheme = make_scheme(scheme_name, cfg)
        assert bulk_scheme.bulk_user_writes
        slow_scheme = make_scheme(scheme_name, cfg)
        slow_scheme.bulk_user_writes = False  # force the reference loop
        bulk = run_trace(bulk_scheme, trace)
        slow = run_trace(slow_scheme, trace)
        assert np.array_equal(bulk.response_times_us, slow.response_times_us)
        assert bulk.io == slow.io
        assert bulk.gc == slow.gc
        assert bulk_scheme.logical_content() == slow_scheme.logical_content()
        bulk_scheme.check_invariants()

    def test_bulk_write_spans_multiple_blocks(self):
        cfg = small_config(blocks=16, pages_per_block=4)
        scheme = make_scheme("baseline", cfg)
        npages = 11  # crosses two block boundaries
        out = scheme.write_request(40, list(range(npages)), 0.0)  # of 59 LPNs
        assert out.programs == npages
        assert scheme.live_logical_pages() == npages
        assert scheme.flash.total_programs == npages
        scheme.check_invariants()

    def test_bulk_overwrite_invalidates_old_pages(self):
        cfg = small_config(blocks=16, pages_per_block=4)
        scheme = make_scheme("baseline", cfg)
        scheme.write_request(0, [1, 2, 3, 4, 5], 0.0)
        scheme.write_request(0, [6, 7, 8, 9, 10], 1.0)
        assert scheme.live_logical_pages() == 5
        assert int(scheme.flash.invalid_count.sum()) == 5
        assert scheme.logical_content() == {0: 6, 1: 7, 2: 8, 3: 9, 4: 10}
        scheme.check_invariants()

    def test_bulk_read_counts_mapped_extent(self):
        cfg = small_config(blocks=16, pages_per_block=4)
        scheme = make_scheme("baseline", cfg)
        scheme.write_request(10, [1, 2, 3], 0.0)
        assert scheme.read_request(8, 8) == 3  # only 10..12 mapped
        assert scheme.read_request(10, 3) == 3
        assert scheme.read_request(0, 4) == 0


class TestLBAHotColdBulkCounting:
    def test_write_frequency_counted_on_bulk_path(self):
        cfg = small_config(blocks=16, pages_per_block=4)
        scheme = make_scheme("lba-hotcold", cfg)
        scheme.write_request(5, [1, 2], 0.0)
        scheme.write_request(5, [3, 4], 1.0)
        scheme.write_request(6, [5], 2.0)
        assert scheme.lpn_writes[5] == 2
        assert scheme.lpn_writes[6] == 3
        assert scheme._is_hot_lpn(5)
        assert scheme._is_hot_lpn(6)
        assert not scheme._is_hot_lpn(7)
