"""Fixed-size FTL columns.

Every LPN/PPN column is sized once, from the geometry the store is
built with: a mutation keyed at or past a column's end raises the
store's typed error and leaves the column as it was, and a replay on
either batched kernel never resizes a column (the kernels' cached
NumPy views pin the buffers).
"""

import numpy as np
import pytest

from repro.config import small_config
from repro.dedup.fingerprint import PageFingerprints
from repro.dedup.index import FingerprintIndex, IndexError_
from repro.dedup.refcount import PeakStore
from repro.device.ssd import SSD
from repro.ftl.mapping import MappingError, MappingTable
from repro.kernel import arrayepoch
from repro.schemes import make_scheme
from repro.workloads import synth
from repro.workloads.fiu import FIU_PRESETS

LOGICAL, PHYSICAL = 8, 12


def _infos(*columns):
    return [col.buffer_info() for col in columns]


class TestStoresDoNotGrow:
    def test_mapping_bind_past_either_column(self):
        m = MappingTable(LOGICAL, PHYSICAL)
        before = _infos(m._fwd, m._ref, m._solo)
        for lpn, ppn in ((LOGICAL, 0), (0, PHYSICAL), (-1, 0), (0, -1)):
            with pytest.raises(MappingError, match="out of range"):
                m.bind(lpn, ppn)
        assert _infos(m._fwd, m._ref, m._solo) == before
        assert len(m) == 0
        m.bind(LOGICAL - 1, PHYSICAL - 1)  # the last slot of each column
        assert m.lookup(LOGICAL - 1) == PHYSICAL - 1

    def test_mapping_remap_past_the_ppn_column(self):
        m = MappingTable(LOGICAL, PHYSICAL)
        m.bind(1, 3)
        before = _infos(m._fwd, m._ref, m._solo)
        with pytest.raises(MappingError, match="out of range"):
            m.remap_ppn(3, PHYSICAL)
        assert _infos(m._fwd, m._ref, m._solo) == before
        assert m.lookup(1) == 3
        m.check_invariants()

    def test_index_insert_and_move_past_the_reverse_column(self):
        idx = FingerprintIndex(PHYSICAL)
        idx.insert(7, 2)
        before = idx._ppn_fp.buffer_info()
        with pytest.raises(IndexError_, match=f"out-of-range ppn {PHYSICAL}"):
            idx.insert(8, PHYSICAL)
        with pytest.raises(IndexError_, match=f"out-of-range ppn {PHYSICAL}"):
            idx.move(2, PHYSICAL)
        assert idx._ppn_fp.buffer_info() == before
        assert idx.entries() == [(7, 2)]
        idx.check_invariants()

    def test_page_fingerprints_past_the_column(self):
        fps = PageFingerprints(PHYSICAL)
        before = fps._col.buffer_info()
        for ppn in (PHYSICAL, -1):
            with pytest.raises(KeyError):
                fps[ppn] = 5
        assert fps._col.buffer_info() == before
        assert len(fps) == 0

    def test_peak_store_past_the_column(self):
        peaks = PeakStore(PHYSICAL)
        before = peaks._col.buffer_info()
        for key in (PHYSICAL, -1):
            with pytest.raises(KeyError):
                peaks[key] = 1
        with pytest.raises(ValueError, match="peak >= 1"):
            peaks[0] = 0
        assert peaks._col.buffer_info() == before
        assert len(peaks) == 0


def _columns(scheme):
    return (
        scheme.mapping._fwd, scheme.mapping._ref, scheme.mapping._solo,
        scheme.page_fp._col, scheme.tracker.peaks._col, scheme.index._ppn_fp,
    )


@pytest.mark.parametrize("name", ["cagc", "inline-dedupe"])
def test_kernel_replay_keeps_every_column_in_place(name, monkeypatch):
    """A write+TRIM replay on the batched kernel, GC included, leaves
    each column's buffer where and as large as the scheme made it, and
    the cached forward-map view still aliases the live column."""
    cfg = small_config(blocks=64, pages_per_block=16, kernel="vectorized")
    span = int(cfg.logical_pages * 0.84)
    spec = FIU_PRESETS["homes"].with_overrides(
        n_requests=3000, lpn_space=span, popular_pool=max(128, span // 20),
        trim_ratio=0.05, seed=1234,
    )
    trace = synth.generate_trace(spec)
    scheme = make_scheme(name, cfg)
    before = _infos(*_columns(scheme))
    assert [n for _, n in before] == [cfg.logical_pages] + [cfg.geometry.total_pages] * 5
    taken = []
    real = arrayepoch.kernel_views
    monkeypatch.setattr(
        arrayepoch, "kernel_views", lambda s: taken.append(real(s)) or taken[-1]
    )
    result = SSD(scheme).replay(trace)
    assert result.io.trim_requests > 0 and result.gc.blocks_erased > 0
    assert _infos(*_columns(scheme)) == before
    (views,) = taken
    fwd = np.frombuffer(scheme.mapping._fwd, dtype=np.int64)
    assert np.shares_memory(views.fwd, fwd)
    with pytest.raises(BufferError):  # the live view pins the buffer
        scheme.mapping._fwd.append(-1)
