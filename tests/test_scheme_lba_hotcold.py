"""Tests for the LBA-based hot/cold comparator scheme."""

import pytest

from repro.ftl.allocator import Region
from repro.schemes import make_scheme
from repro.schemes.lba_hotcold import LBAHotColdScheme


@pytest.fixture
def scheme(tiny_config):
    return LBAHotColdScheme(tiny_config)


class TestHeatTracking:
    def test_write_counts_accumulate(self, scheme):
        scheme.write_request(0, [1], 0.0)
        scheme.write_request(0, [2], 0.0)
        scheme.write_request(1, [3], 0.0)
        assert scheme.lpn_writes[0] == 2
        assert scheme.lpn_writes[1] == 1

    def test_hot_classification_threshold(self, scheme):
        scheme.write_request(0, [1], 0.0)
        assert not scheme._is_hot_lpn(0)
        scheme.write_request(0, [2], 0.0)
        assert scheme._is_hot_lpn(0)

    def test_trim_clears_heat(self, scheme):
        scheme.write_request(0, [1], 0.0)
        scheme.write_request(0, [2], 0.0)
        scheme.trim_request(0, 1, 0.0)
        assert not scheme._is_hot_lpn(0)

    def test_threshold_validation(self, tiny_config):
        with pytest.raises(ValueError):
            LBAHotColdScheme(tiny_config, hot_write_threshold=0)

    @pytest.mark.parametrize("chunk", [2, 65536])
    def test_batched_trims_keep_heat_in_request_order(self, chunk):
        """write -> trim -> write of one LPN inside a kernel run: the
        batched hooks fire in request order, so the heat the second
        write leaves matches the reference exactly."""
        from repro.device.ssd import SSD
        from repro.oracle.fuzz import fuzz_config, rows_to_trace
        from repro.workloads.request import OpKind
        from repro.workloads.stream import StreamingTrace

        w, t = int(OpKind.WRITE), int(OpKind.TRIM)
        rows = [
            (5.0, w, 3, 2, (101, 102)),
            (10.0, w, 3, 1, (103,)),
            (15.0, t, 3, 2, ()),
            (20.0, w, 4, 1, (104,)),
            (25.0, w, 3, 1, (105,)),
        ]
        trace = rows_to_trace(rows)
        chunked = StreamingTrace(lambda: trace.iter_chunks(chunk), trace.name)
        heat = {}
        for kernel in ("reference", "vectorized"):
            lba = LBAHotColdScheme(fuzz_config(kernel=kernel))
            SSD(lba).replay(chunked)
            heat[kernel] = dict(lba.lpn_writes)
        assert heat["reference"] == heat["vectorized"] == {3: 1, 4: 1}


class TestMigrationPlacement:
    def fill_and_gc(self, scheme):
        # LPNs 0..3 rewritten (hot), 4..15 written once (cold)
        fp = 0
        for lpn in range(16):
            scheme.write_page(lpn, fp, 0.0)
            fp += 1
        for _ in range(3):
            for lpn in range(4):
                scheme.write_page(lpn, fp, 0.0)
                fp += 1
        # collect all full blocks once
        flash = scheme.flash
        victims = [
            b
            for b in range(flash.blocks)
            if not scheme.allocator.is_active(b)
            and flash.write_ptr[b] == flash.pages_per_block
        ]
        for b in victims:
            scheme.collect_block(b, 0.0)

    def test_cold_lpns_migrate_to_cold_region(self, scheme):
        self.fill_and_gc(scheme)
        cold_lpns = range(4, 16)
        cold_regions = {
            scheme.allocator.region_of(
                scheme.flash.geometry.ppn_to_block(scheme.mapping.lookup(lpn))
            )
            for lpn in cold_lpns
        }
        assert Region.COLD in cold_regions

    def test_hot_lpns_stay_hot(self, scheme):
        self.fill_and_gc(scheme)
        for lpn in range(4):
            region = scheme.allocator.region_of(
                scheme.flash.geometry.ppn_to_block(scheme.mapping.lookup(lpn))
            )
            assert region == Region.HOT

    def test_no_dedup_anywhere(self, scheme):
        scheme.write_request(0, [7], 0.0)
        scheme.write_request(1, [7], 0.0)
        assert scheme.flash.total_programs == 2
        assert len(scheme.index) == 0

    def test_content_preserved_through_gc(self, scheme):
        self.fill_and_gc(scheme)
        scheme.check_invariants()


class TestFactory:
    def test_make_scheme_by_name(self, tiny_config):
        scheme = make_scheme("lba-hotcold", tiny_config)
        assert scheme.name == "lba-hotcold"
