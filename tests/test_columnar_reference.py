"""Differential property tests: columnar stores vs dict reference models.

The columnar :class:`MappingTable` and :class:`FingerprintIndex` replaced
dict-of-boxed-ints implementations.  These tests re-state the old dict
semantics as in-test reference models and drive both through seeded
random operation sequences, comparing every return value and every
queryable observation after every step, and running the columnar
structures' own ``check_invariants`` as they go.  Any divergence —
wrong value, missing error, drifted occupancy — fails with the step
number that produced it.

Opt-in via the ``oracle`` marker (deselected by default, swept by
``scripts/check_oracle.py``-adjacent CI jobs)::

    pytest -m oracle tests/test_columnar_reference.py
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Set

import pytest

from repro.dedup.index import FingerprintIndex, IndexError_
from repro.ftl.mapping import MappingTable

pytestmark = pytest.mark.oracle

SEEDS = range(12)
STEPS = 400


class DictMapping:
    """The pre-columnar MappingTable semantics, as plain dicts."""

    def __init__(self) -> None:
        self.fwd: Dict[int, int] = {}
        self.rev: Dict[int, Set[int]] = {}

    def __len__(self) -> int:
        return len(self.fwd)

    def lookup(self, lpn: int) -> Optional[int]:
        return self.fwd.get(lpn)

    def refcount(self, ppn: int) -> int:
        return len(self.rev.get(ppn, ()))

    def is_mapped(self, ppn: int) -> bool:
        return bool(self.rev.get(ppn))

    def lpns_of(self, ppn: int):
        return sorted(self.rev.get(ppn, ()))

    def mapped_ppns(self):
        return sorted(p for p, refs in self.rev.items() if refs)

    def mapped_count(self, lpn: int, npages: int) -> int:
        return sum(1 for i in range(lpn, lpn + npages) if i in self.fwd)

    def bind(self, lpn: int, ppn: int) -> Optional[int]:
        old = self.fwd.get(lpn)
        if old is not None:
            self._drop(old, lpn)
        self.fwd[lpn] = ppn
        self.rev.setdefault(ppn, set()).add(lpn)
        return old

    def unbind(self, lpn: int) -> Optional[int]:
        old = self.fwd.pop(lpn, None)
        if old is not None:
            self._drop(old, lpn)
        return old

    def remap_ppn(self, old_ppn: int, new_ppn: int) -> int:
        moving = self.rev.pop(old_ppn, set())
        for lpn in moving:
            self.fwd[lpn] = new_ppn
        if moving:
            self.rev.setdefault(new_ppn, set()).update(moving)
        return len(moving)

    def _drop(self, ppn: int, lpn: int) -> None:
        refs = self.rev.get(ppn)
        if refs is not None:
            refs.discard(lpn)
            if not refs:
                del self.rev[ppn]


def _compare_mapping(step: int, columnar: MappingTable, ref: DictMapping,
                     lpn_span: int, ppn_span: int) -> None:
    assert len(columnar) == len(ref), f"step {step}: table length diverged"
    assert columnar.mapped_ppns() == ref.mapped_ppns(), f"step {step}: mapped_ppns"
    for ppn in range(ppn_span):
        assert columnar.refcount(ppn) == ref.refcount(ppn), f"step {step}: refcount({ppn})"
        assert sorted(columnar.lpns_of(ppn)) == ref.lpns_of(ppn), f"step {step}: lpns_of({ppn})"
    for lpn in range(lpn_span):
        assert columnar.lookup(lpn) == ref.lookup(lpn), f"step {step}: lookup({lpn})"
    columnar.check_invariants()


@pytest.mark.parametrize("seed", SEEDS)
def test_mapping_table_matches_dict_reference(seed):
    rng = random.Random(seed)
    lpn_span, ppn_span = 48, 32
    columnar = MappingTable(logical_pages=lpn_span, physical_pages=ppn_span)
    ref = DictMapping()
    for step in range(STEPS):
        op = rng.random()
        if op < 0.55:
            lpn, ppn = rng.randrange(lpn_span), rng.randrange(ppn_span)
            assert columnar.bind(lpn, ppn) == ref.bind(lpn, ppn), f"step {step}: bind"
        elif op < 0.75:
            lpn = rng.randrange(lpn_span)
            assert columnar.unbind(lpn) == ref.unbind(lpn), f"step {step}: unbind"
        else:
            old, new = rng.sample(range(ppn_span), 2)
            assert columnar.remap_ppn(old, new) == ref.remap_ppn(old, new), (
                f"step {step}: remap_ppn({old}, {new})"
            )
        # Vectorized extent query against the naive per-page count.
        lo = rng.randrange(lpn_span)
        for width in (1, 7, 100):
            assert columnar.mapped_count(lo, width) == ref.mapped_count(lo, width), (
                f"step {step}: mapped_count({lo}, {width})"
            )
        _compare_mapping(step, columnar, ref, lpn_span, ppn_span)


class DictIndex:
    """The pre-columnar FingerprintIndex semantics, as plain dicts."""

    def __init__(self) -> None:
        self.fp_ppn: Dict[int, int] = {}
        self.ppn_fp: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.fp_ppn)

    def peek(self, fp: int) -> Optional[int]:
        return self.fp_ppn.get(fp)

    def fp_of(self, ppn: int) -> Optional[int]:
        return self.ppn_fp.get(ppn)

    def contains_ppn(self, ppn: int) -> bool:
        return ppn in self.ppn_fp

    def entries(self):
        return sorted(self.fp_ppn.items())

    def insert(self, fp: int, ppn: int) -> None:
        if fp < 0:
            raise IndexError_("negative fingerprint")
        if fp in self.fp_ppn:
            raise IndexError_("already indexed")
        if ppn in self.ppn_fp:
            raise IndexError_("already canonical")
        self.fp_ppn[fp] = ppn
        self.ppn_fp[ppn] = fp

    def remove_ppn(self, ppn: int) -> Optional[int]:
        fp = self.ppn_fp.pop(ppn, None)
        if fp is not None:
            del self.fp_ppn[fp]
        return fp

    def move(self, old_ppn: int, new_ppn: int) -> None:
        if old_ppn not in self.ppn_fp:
            raise IndexError_("not canonical")
        if new_ppn in self.ppn_fp:
            raise IndexError_("already canonical")
        fp = self.ppn_fp.pop(old_ppn)
        self.ppn_fp[new_ppn] = fp
        self.fp_ppn[fp] = new_ppn


def _fp_pool(rng: random.Random, size: int):
    # A mix of small, huge (>= 2^62, stressing the Fibonacci-hash
    # distribution), and negative fingerprints (both indexes reject them).
    pool = [rng.randrange(1 << 63) for _ in range(size)]
    pool += [(1 << 63) - 1 - i for i in range(4)]
    pool += [-rng.randrange(1, 1 << 62) for _ in range(4)]
    return pool


@pytest.mark.parametrize("seed", SEEDS)
def test_fingerprint_index_matches_dict_reference(seed):
    rng = random.Random(1000 + seed)
    ppn_span = 64
    fps = _fp_pool(rng, 24)
    # Tiny initial table so the run crosses several grow/rehash cycles,
    # and enough churn that tombstones accumulate between them.
    columnar = FingerprintIndex(ppn_span, initial_slots=4)
    ref = DictIndex()
    for step in range(STEPS):
        op = rng.random()
        if op < 0.5:
            fp, ppn = rng.choice(fps), rng.randrange(ppn_span)
            outcome_col = outcome_ref = None
            try:
                columnar.insert(fp, ppn)
            except IndexError_:
                outcome_col = "raised"
            try:
                ref.insert(fp, ppn)
            except IndexError_:
                outcome_ref = "raised"
            assert outcome_col == outcome_ref, f"step {step}: insert({fp:#x}, {ppn})"
        elif op < 0.8:
            ppn = rng.randrange(ppn_span)
            assert columnar.remove_ppn(ppn) == ref.remove_ppn(ppn), (
                f"step {step}: remove_ppn({ppn})"
            )
        else:
            old, new = rng.sample(range(ppn_span), 2)
            outcome_col = outcome_ref = None
            try:
                columnar.move(old, new)
            except IndexError_:
                outcome_col = "raised"
            try:
                ref.move(old, new)
            except IndexError_:
                outcome_ref = "raised"
            assert outcome_col == outcome_ref, f"step {step}: move({old}, {new})"

        assert len(columnar) == len(ref), f"step {step}: index length diverged"
        for fp in fps:
            assert columnar.peek(fp) == ref.peek(fp), f"step {step}: peek({fp:#x})"
        for ppn in range(ppn_span):
            assert columnar.fp_of(ppn) == ref.fp_of(ppn), f"step {step}: fp_of({ppn})"
            assert columnar.contains_ppn(ppn) == ref.contains_ppn(ppn), (
                f"step {step}: contains_ppn({ppn})"
            )
        assert sorted(columnar.entries()) == ref.entries(), f"step {step}: entries"
        columnar.check_invariants()


def test_lookup_counts_hits_and_misses_like_dict_membership():
    idx = FingerprintIndex(16, initial_slots=4)
    ref = DictIndex()
    for i, fp in enumerate((5, 1 << 62, -3)):
        idx.insert(fp, i)
        ref.insert(fp, i)
    hits = misses = 0
    for fp in (5, 7, -3, -9, 1 << 62, 0):
        expected = ref.peek(fp)
        assert idx.lookup(fp) == expected
        if expected is None:
            misses += 1
        else:
            hits += 1
    assert (idx.hits, idx.misses) == (hits, misses)
    assert idx.hit_ratio == pytest.approx(hits / (hits + misses))
