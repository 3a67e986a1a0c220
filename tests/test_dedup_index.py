"""Tests for the fingerprint index."""

import copy
from array import array
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dedup import index as index_mod
from repro.dedup.index import FingerprintIndex, IndexError_

#: Reverse-column size of every test index: PPNs below it are valid.
_PAGES = 256


class TestBasics:
    def test_lookup_miss_then_hit(self):
        idx = FingerprintIndex(_PAGES)
        assert idx.lookup(0xAB) is None
        idx.insert(0xAB, 7)
        assert idx.lookup(0xAB) == 7
        assert idx.hits == 1
        assert idx.misses == 1
        assert idx.hit_ratio == 0.5

    def test_peek_does_not_count(self):
        idx = FingerprintIndex(_PAGES)
        idx.insert(1, 2)
        idx.peek(1)
        idx.peek(9)
        assert idx.hits == 0
        assert idx.misses == 0

    def test_fp_of_reverse_lookup(self):
        idx = FingerprintIndex(_PAGES)
        idx.insert(0xCD, 3)
        assert idx.fp_of(3) == 0xCD
        assert idx.fp_of(4) is None
        assert idx.contains_ppn(3)

    def test_len(self):
        idx = FingerprintIndex(_PAGES)
        idx.insert(1, 10)
        idx.insert(2, 20)
        assert len(idx) == 2

    def test_hit_ratio_empty(self):
        assert FingerprintIndex(_PAGES).hit_ratio == 0.0


class TestMutations:
    def test_duplicate_fp_insert_rejected(self):
        idx = FingerprintIndex(_PAGES)
        idx.insert(1, 10)
        with pytest.raises(IndexError_):
            idx.insert(1, 11)

    def test_duplicate_ppn_insert_rejected(self):
        idx = FingerprintIndex(_PAGES)
        idx.insert(1, 10)
        with pytest.raises(IndexError_):
            idx.insert(2, 10)

    @pytest.mark.parametrize("fp", [-1, -2, -(1 << 62)])
    def test_negative_fp_rejected(self, fp):
        idx = FingerprintIndex(_PAGES)
        with pytest.raises(IndexError_, match="negative fingerprint"):
            idx.insert(fp, 10)
        assert idx.peek(fp) is None  # a sentinel key never matches
        assert idx.peek_many(np.array([fp])).tolist() == [-1]
        assert len(idx) == 0 and not idx.contains_ppn(10)

    def test_remove_ppn(self):
        idx = FingerprintIndex(_PAGES)
        idx.insert(1, 10)
        assert idx.remove_ppn(10) == 1
        assert idx.peek(1) is None
        assert len(idx) == 0

    def test_remove_unknown_ppn_is_noop(self):
        assert FingerprintIndex(_PAGES).remove_ppn(42) is None

    def test_move_repoints_entry(self):
        idx = FingerprintIndex(_PAGES)
        idx.insert(5, 10)
        idx.move(10, 99)
        assert idx.peek(5) == 99
        assert idx.fp_of(99) == 5
        assert not idx.contains_ppn(10)

    def test_move_unknown_rejected(self):
        with pytest.raises(IndexError_):
            FingerprintIndex(_PAGES).move(1, 2)

    def test_move_onto_occupied_rejected(self):
        idx = FingerprintIndex(_PAGES)
        idx.insert(1, 10)
        idx.insert(2, 20)
        with pytest.raises(IndexError_):
            idx.move(10, 20)

    def test_invariants_after_churn(self):
        idx = FingerprintIndex(_PAGES)
        for i in range(20):
            idx.insert(i, 100 + i)
        for i in range(0, 20, 2):
            idx.remove_ppn(100 + i)
        for i in range(1, 20, 2):
            idx.move(100 + i, 200 + i)
        idx.check_invariants()


class TestCorruptReverseEntry:
    """``_ppn_fp`` naming an fp the table lacks must raise, not
    overwrite the last slot through ``_slot_of``'s -1."""

    def corrupt(self):
        idx = FingerprintIndex(_PAGES, initial_slots=4)
        for i in range(20):
            idx.insert(i, i)
        idx._ppn_fp[7] = 999  # fp 999 is not in the table
        return idx

    def test_remove_ppn_raises_and_leaves_table(self):
        idx = self.corrupt()
        before = _state(idx)
        with pytest.raises(IndexError_, match="not indexed"):
            idx.remove_ppn(7)
        assert _state(idx) == before

    def test_move_raises_and_leaves_table(self):
        idx = self.corrupt()
        before = _state(idx)
        with pytest.raises(IndexError_, match="not indexed"):
            idx.move(7, 50)
        assert _state(idx) == before

    @pytest.mark.parametrize("bulk_min", [1, 8])
    @pytest.mark.parametrize(
        "batch, fails_at",
        [([3, 1, 7, 2], 7), ([3, 1, 6, 2, 9, 4], 9)],  # 9 finds fp 6 gone
    )
    def test_remove_many_raises_after_prefix(self, bulk_min, batch, fails_at):
        idx = self.corrupt()
        idx._ppn_fp[9] = 6  # ppns 6 and 9 both name fp 6
        loop = copy.deepcopy(idx)
        with mock.patch.object(index_mod, "_BULK_MIN", bulk_min):
            got = _outcome(lambda: idx.remove_many(np.array(batch)))
        assert got == _outcome(lambda: [loop.remove_ppn(p) for p in batch])
        assert f"ppn {fails_at} names" in got
        assert _state(idx) == _state(loop)
        assert not idx.contains_ppn(3) and idx.contains_ppn(2) == (fails_at == 7)


# ----------------------------------------------------------- bulk operations


def _state(idx):
    """Everything a bulk op must leave exactly as the per-item loop."""
    return (
        bytes(idx._keys), bytes(idx._vals), bytes(idx._ppn_fp), idx._mask,
        idx._used, idx._filled, idx.hits, idx.misses,
    )


def _outcome(fn):
    try:
        fn()
    except IndexError_ as exc:
        return str(exc)
    return None


#: Small pools make in-batch duplicates, probe collisions and repeated
#: PPNs likely; a few huge fps ride along, and negative ones, which the
#: bulk ops and the loops must reject identically.
_FPS = st.one_of(
    st.integers(0, 40),
    st.integers(0, (1 << 63) - 1),
    st.integers(-(1 << 62), -1),
)
# _PAGES is past the reverse column: inserting or moving to it raises.
_PPNS = st.integers(-2, 90) | st.just(_PAGES)
_CHURN = st.lists(
    st.tuples(st.sampled_from("iiirm"), _FPS, _PPNS, st.integers(0, 90)),
    max_size=120,
)
_BATCH = st.lists(st.tuples(_FPS, _PPNS), max_size=60)


def _churn(ops):
    """A small index after random insert/remove/move traffic: tombstones,
    grow and same-capacity rehashes (initial capacity is 16 slots)."""
    idx = FingerprintIndex(_PAGES, initial_slots=4)
    for op, fp, ppn, other in ops:
        try:
            if op == "i":
                idx.insert(fp, ppn)
            elif op == "r":
                idx.remove_ppn(ppn)
            else:
                idx.move(ppn, other)
        except IndexError_:
            pass
    idx.lookup(3)
    idx.lookup(1 << 40)
    return idx


@pytest.mark.parametrize("bulk_min", [1, 8])
class TestBulkOpsMatchLoops:
    @settings(max_examples=150, deadline=None)
    @given(ops=_CHURN, batch=_BATCH)
    def test_peek_many(self, bulk_min, ops, batch):
        idx = _churn(ops)
        fps = [fp for fp, _ in batch]
        before = _state(idx)
        with mock.patch.object(index_mod, "_BULK_MIN", bulk_min):
            got = idx.peek_many(np.array(fps, dtype=np.int64))
        want = [idx.peek(fp) for fp in fps]
        assert got.tolist() == [-1 if p is None else p for p in want]
        assert _state(idx) == before

    @settings(max_examples=300, deadline=None)
    @given(ops=_CHURN, batch=_BATCH, fresh=st.booleans())
    def test_insert_many(self, bulk_min, ops, batch, fresh):
        idx = _churn(ops)
        if fresh:  # mostly unseen fps and free ppns: long valid prefixes
            batch = [(fp % (1 << 62) + 10_000, 100 + i) for i, (fp, _) in enumerate(batch)]
        loop = copy.deepcopy(idx)
        fps = np.array([fp for fp, _ in batch], dtype=np.int64)
        ppns = np.array([p for _, p in batch], dtype=np.int64)

        def one_by_one():
            for fp, ppn in batch:
                loop.insert(fp, ppn)

        with mock.patch.object(index_mod, "_BULK_MIN", bulk_min):
            got = _outcome(lambda: idx.insert_many(fps, ppns))
        assert got == _outcome(one_by_one)
        assert _state(idx) == _state(loop)
        idx.check_invariants()

    @settings(max_examples=200, deadline=None)
    @given(ops=_CHURN, ppns=st.lists(_PPNS, max_size=60))
    def test_remove_many(self, bulk_min, ops, ppns):
        idx = _churn(ops)
        loop = copy.deepcopy(idx)
        with mock.patch.object(index_mod, "_BULK_MIN", bulk_min):
            got = _outcome(lambda: idx.remove_many(np.array(ppns, dtype=np.int64)))
        assert got == _outcome(lambda: [loop.remove_ppn(p) for p in ppns])
        assert _state(idx) == _state(loop)
        idx.check_invariants()


def _grow_one_by_one(self):
    """``_maybe_grow`` as a per-slot loop: live keys re-enter the new
    table one by one, in old-slot order."""
    cap = self._mask + 1
    if (self._filled + 1) * 3 <= cap * 2:
        return
    new_cap = cap * 2 if (self._used + 1) * 3 > cap else cap
    old = list(zip(self._keys, self._vals))
    self._keys = array("q", [-1]) * new_cap
    self._vals = array("q", [0]) * new_cap
    self._mask = mask = new_cap - 1
    self._filled = self._used
    for fp, ppn in old:
        if fp >= 0:
            slot = ((fp * index_mod._GOLD) & ((1 << 64) - 1)) & mask
            while self._keys[slot] != -1:
                slot = (slot + 1) & mask
            self._keys[slot] = fp
            self._vals[slot] = ppn


@settings(max_examples=150, deadline=None)
@given(ops=_CHURN, batch=_BATCH)
def test_rehash_matches_one_by_one(ops, batch):
    """Growth and same-capacity rehashes, in churn and inside a bulk
    insert, lay the table out exactly as the per-slot loop."""
    fresh = [(fp % (1 << 62) + 10_000, 100 + i) for i, (fp, _) in enumerate(batch)]
    fps = np.array([fp for fp, _ in fresh], dtype=np.int64)
    ppns = np.array([p for _, p in fresh], dtype=np.int64)

    def build():
        idx = _churn(ops)
        _outcome(lambda: idx.insert_many(fps, ppns))
        return _state(idx)

    with mock.patch.object(index_mod, "_BULK_MIN", 1):
        got = build()
        with mock.patch.object(FingerprintIndex, "_maybe_grow", _grow_one_by_one):
            want = build()
    assert got == want


class TestBulkInsertEdges:
    """Deterministic cases the property tests reach only by chance."""

    def run_both(self, idx, fps, ppns):
        loop = copy.deepcopy(idx)

        def one_by_one():
            for fp, ppn in zip(fps, ppns):
                loop.insert(fp, ppn)

        with mock.patch.object(index_mod, "_BULK_MIN", 1):
            got = _outcome(lambda: idx.insert_many(np.array(fps), np.array(ppns)))
        assert got == _outcome(one_by_one)
        assert _state(idx) == _state(loop)
        return got

    def test_growth_inside_batch(self):
        idx = FingerprintIndex(_PAGES, initial_slots=4)
        self.run_both(idx, list(range(100)), list(range(100)))
        assert idx._mask + 1 == 256

    def test_same_capacity_rehash_inside_batch(self):
        idx = FingerprintIndex(physical_pages=64, initial_slots=4)
        for round_ in range(4):  # tombstones pile up at a small live count
            for i in range(8):
                idx.insert(1000 * round_ + i, i)
            for i in range(8):
                idx.remove_ppn(i)
        assert (idx._mask, idx._used, idx._filled) == (15, 0, 8)
        # Fresh fps homed on EMPTY slots: the third claim hits the load
        # check with 2 live entries, so the table rehashes at 16 slots.
        keys = np.frombuffer(idx._keys, dtype=np.int64)
        cand = np.arange(5000, 6000)
        homes = index_mod._homes(cand, idx._mask)
        fps = cand[keys[homes] == index_mod._EMPTY][:8].tolist()
        caps = []
        grow = FingerprintIndex._maybe_grow

        def spy(self):
            before = (self._mask, self._filled)
            grow(self)
            if (self._mask, self._filled) != before:
                caps.append((before[0], self._mask))

        with mock.patch.object(FingerprintIndex, "_maybe_grow", spy):
            self.run_both(idx, fps, list(range(8)))
        assert caps == [(15, 15)] * 2  # once in the bulk op, once in the loop

    def test_in_batch_probe_collisions(self):
        idx = FingerprintIndex(_PAGES, initial_slots=4)
        mask = idx._mask
        homes = index_mod._homes(np.arange(400), mask)
        fps = np.flatnonzero(homes == 3)[:6].tolist()  # one home slot
        self.run_both(idx, fps, list(range(6)))
        assert sorted(idx.entries()) == sorted(zip(fps, range(6)))

    @pytest.mark.parametrize(
        "fps, ppns, error, prefix",
        [
            ([1, 2, 3, 5], [10, 11, 12, 13], "already indexed", 3),  # fp 5
            ([1, 2, 1, 3], [10, 11, 12, 13], "already indexed", 2),  # in-batch fp
            ([1, 2, 3, 4], [10, 11, 10, 13], "already canonical", 2),  # in-batch
            ([1, 2, 3, 4], [10, 11, 50, 13], "already canonical", 2),  # ppn 50
            ([1, 2, 3, 4], [10, 11, -1, 13], "negative ppn", 2),
            ([1, 2, -3, 4], [10, 11, 12, 13], "negative fingerprint", 2),
            ([1, 2, 3, 4], [10, 11, _PAGES, 13], "out-of-range ppn", 2),
        ],
    )
    def test_error_after_prefix(self, fps, ppns, error, prefix):
        idx = FingerprintIndex(_PAGES, initial_slots=4)
        idx.insert(5, 50)
        got = self.run_both(idx, fps, ppns)
        assert error in got
        assert len(idx) == 1 + prefix
