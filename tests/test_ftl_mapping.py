"""Tests for the shared-page mapping table."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ftl.mapping import MappingError, MappingTable


class TestBind:
    def test_bind_and_lookup(self):
        m = MappingTable(64, 128)
        assert m.lookup(5) is None
        m.bind(5, 100)
        assert m.lookup(5) == 100

    def test_bind_returns_previous(self):
        m = MappingTable(64, 128)
        assert m.bind(1, 10) is None
        assert m.bind(1, 20) == 10
        assert m.lookup(1) == 20

    def test_refcount_counts_sharers(self):
        m = MappingTable(64, 128)
        m.bind(1, 10)
        m.bind(2, 10)
        m.bind(3, 10)
        assert m.refcount(10) == 3
        assert sorted(m.lpns_of(10)) == [1, 2, 3]

    def test_rebind_same_lpn_same_ppn_keeps_refcount(self):
        m = MappingTable(64, 128)
        m.bind(1, 10)
        old = m.bind(1, 10)
        assert old == 10
        assert m.refcount(10) == 1

    def test_old_ppn_loses_reference(self):
        m = MappingTable(64, 128)
        m.bind(1, 10)
        m.bind(2, 10)
        m.bind(1, 20)
        assert m.refcount(10) == 1
        assert m.refcount(20) == 1

    def test_len_counts_lpns(self):
        m = MappingTable(64, 128)
        m.bind(1, 10)
        m.bind(2, 10)
        assert len(m) == 2


class TestUnbind:
    def test_unbind_returns_ppn(self):
        m = MappingTable(64, 128)
        m.bind(1, 10)
        assert m.unbind(1) == 10
        assert m.lookup(1) is None
        assert m.refcount(10) == 0

    def test_unbind_unknown_returns_none(self):
        assert MappingTable(64, 128).unbind(99) is None

    def test_unbind_keeps_other_sharers(self):
        m = MappingTable(64, 128)
        m.bind(1, 10)
        m.bind(2, 10)
        m.unbind(1)
        assert m.refcount(10) == 1
        assert m.lookup(2) == 10


class TestRemap:
    def test_remap_moves_all_referrers(self):
        m = MappingTable(64, 128)
        m.bind(1, 10)
        m.bind(2, 10)
        moved = m.remap_ppn(10, 50)
        assert moved == 2
        assert m.lookup(1) == 50
        assert m.lookup(2) == 50
        assert m.refcount(10) == 0
        assert m.refcount(50) == 2

    def test_remap_merges_into_existing(self):
        m = MappingTable(64, 128)
        m.bind(1, 10)
        m.bind(2, 20)
        m.remap_ppn(10, 20)
        assert m.refcount(20) == 2

    def test_remap_unmapped_is_noop(self):
        m = MappingTable(64, 128)
        assert m.remap_ppn(10, 20) == 0

    def test_remap_to_self_rejected(self):
        m = MappingTable(64, 128)
        m.bind(1, 10)
        with pytest.raises(MappingError):
            m.remap_ppn(10, 10)

    def test_is_mapped(self):
        m = MappingTable(64, 128)
        assert not m.is_mapped(10)
        m.bind(1, 10)
        assert m.is_mapped(10)


class TestInvariantsProperty:
    @given(
        ops=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=0, max_value=9),   # lpn
                st.integers(min_value=0, max_value=14),  # ppn
            ),
            max_size=200,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_random_ops_keep_forward_reverse_consistent(self, ops):
        m = MappingTable(64, 128)
        for op, lpn, ppn in ops:
            if op == 0:
                m.bind(lpn, ppn)
            elif op == 1:
                m.unbind(lpn)
            else:
                target = (ppn + 1) % 15
                if target != ppn:
                    m.remap_ppn(ppn, target)
        m.check_invariants()

    @given(
        binds=st.lists(
            st.tuples(st.integers(0, 20), st.integers(0, 5)), min_size=1, max_size=100
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_refcounts_sum_to_lpn_count(self, binds):
        m = MappingTable(64, 128)
        for lpn, ppn in binds:
            m.bind(lpn, ppn)
        total = sum(m.refcount(p) for p in set(m.mapped_ppns()))
        assert total == len(m)


class TestCompactReverseMap:
    """The reverse relation keeps a sole referrer in the flat solo
    column and only spills into the shared-PPN overflow dict at
    refcount 2 (the paper's Fig 6: >80% of pages have exactly one
    referrer).  These tests drive the promote/demote transitions and
    check the table against a plain dict model."""

    def test_promote_on_second_sharer_demote_on_unbind(self):
        m = MappingTable(64, 128)
        m.bind(1, 10)
        assert 10 not in m._shared  # sole referrer stays in the solo column
        assert m._solo[10] == 1
        m.bind(2, 10)
        assert m._shared[10] == {1, 2}  # promoted to the overflow on share
        m.unbind(1)
        assert 10 not in m._shared  # demoted back at refcount 1
        assert m._solo[10] == 2
        assert m.lookup(2) == 10
        m.check_invariants()

    def test_lpn_zero_is_a_valid_sole_referrer(self):
        # LPN 0 is falsy; the int representation must not confuse it
        # with "absent".
        m = MappingTable(64, 128)
        m.bind(0, 10)
        assert m.refcount(10) == 1
        assert list(m.lpns_of(10)) == [0]
        assert m.unbind(0) == 10
        assert m.refcount(10) == 0
        m.check_invariants()

    def test_remap_merges_int_into_int(self):
        m = MappingTable(64, 128)
        m.bind(1, 10)
        m.bind(2, 20)
        assert m.remap_ppn(10, 20) == 1
        assert m._shared[20] == {1, 2}
        assert m.refcount(20) == 2
        m.check_invariants()

    def test_remap_transfers_set_wholesale(self):
        m = MappingTable(64, 128)
        m.bind(1, 10)
        m.bind(2, 10)
        assert m.remap_ppn(10, 50) == 2
        assert m._shared[50] == {1, 2}
        assert sorted(m.lpns_of(50)) == [1, 2]
        m.check_invariants()

    @given(
        ops=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),  # bind/unbind/remap
                st.integers(min_value=0, max_value=9),  # lpn
                st.integers(min_value=0, max_value=11),  # ppn
                st.integers(min_value=0, max_value=11),  # remap target
            ),
            max_size=120,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_model(self, ops):
        m = MappingTable(64, 128)
        model = {}  # lpn -> ppn, the obviously-correct forward map
        for op, lpn, ppn, target in ops:
            if op == 0:
                assert m.bind(lpn, ppn) == model.get(lpn)
                model[lpn] = ppn
            elif op == 1:
                assert m.unbind(lpn) == model.pop(lpn, None)
            elif target != ppn:
                moved = sum(1 for p in model.values() if p == ppn)
                assert m.remap_ppn(ppn, target) == moved
                model = {
                    l: (target if p == ppn else p) for l, p in model.items()
                }
            m.check_invariants()
        assert len(m) == len(model)
        for lpn in range(10):
            assert m.lookup(lpn) == model.get(lpn)
        for ppn in range(12):
            referrers = sorted(l for l, p in model.items() if p == ppn)
            assert sorted(m.lpns_of(ppn)) == referrers
            assert m.refcount(ppn) == len(referrers)
            assert m.is_mapped(ppn) == bool(referrers)
