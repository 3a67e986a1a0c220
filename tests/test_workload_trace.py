"""Tests for trace containers and serialization."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads import trace as trace_mod
from repro.workloads.request import IORequest, OpKind
from repro.workloads.trace import Trace, TraceError


def make_requests():
    return [
        IORequest(0.0, OpKind.WRITE, lpn=10, npages=2, fingerprints=(111, 222)),
        IORequest(5.0, OpKind.READ, lpn=10, npages=2),
        IORequest(9.0, OpKind.TRIM, lpn=10, npages=1),
        IORequest(12.5, OpKind.WRITE, lpn=0, npages=1, fingerprints=(111,)),
    ]


class TestIORequest:
    def test_write_requires_fingerprints(self):
        with pytest.raises(ValueError):
            IORequest(0.0, OpKind.WRITE, lpn=0, npages=2)

    def test_write_fingerprint_count_must_match(self):
        with pytest.raises(ValueError):
            IORequest(0.0, OpKind.WRITE, lpn=0, npages=2, fingerprints=(1,))

    def test_read_rejects_fingerprints(self):
        with pytest.raises(ValueError):
            IORequest(0.0, OpKind.READ, lpn=0, npages=1, fingerprints=(1,))

    def test_npages_positive(self):
        with pytest.raises(ValueError):
            IORequest(0.0, OpKind.READ, lpn=0, npages=0)

    def test_lpns_range(self):
        req = IORequest(0.0, OpKind.READ, lpn=5, npages=3)
        assert list(req.lpns) == [5, 6, 7]
        assert req.bytes == 3 * 4096


class TestTraceConstruction:
    def test_from_requests_roundtrip(self):
        reqs = make_requests()
        trace = Trace.from_requests(reqs, name="t")
        assert len(trace) == 4
        back = list(trace.iter_requests())
        assert back == reqs

    def test_iter_rows_matches_requests(self):
        trace = Trace.from_requests(make_requests())
        rows = list(trace.iter_rows())
        assert rows[0][1] == int(OpKind.WRITE)
        assert list(rows[0][4]) == [111, 222]
        assert rows[1][4] is None

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError):
            Trace(
                np.zeros(2),
                np.zeros(3, dtype=np.uint8),
                np.zeros(2, dtype=np.int64),
                np.ones(2, dtype=np.int32),
                np.zeros(0, dtype=np.int64),
                np.zeros(3, dtype=np.int64),
            )

    def test_bad_offsets_rejected(self):
        with pytest.raises(ValueError):
            Trace(
                np.zeros(2),
                np.zeros(2, dtype=np.uint8),
                np.zeros(2, dtype=np.int64),
                np.ones(2, dtype=np.int32),
                np.zeros(0, dtype=np.int64),
                np.zeros(2, dtype=np.int64),  # needs n+1
            )


class TestTraceStats:
    def test_stats_basic(self):
        trace = Trace.from_requests(make_requests())
        stats = trace.stats()
        assert stats.requests == 4
        assert stats.write_requests == 2
        assert stats.read_requests == 1
        assert stats.trim_requests == 1
        assert stats.write_ratio == 0.5
        assert stats.written_pages == 3
        # fps: 111, 222, 111 -> one duplicate of three.
        assert stats.dedup_ratio == pytest.approx(1 / 3)
        assert stats.unique_written_pages == 2

    def test_avg_req_kb(self):
        trace = Trace.from_requests(make_requests())
        assert trace.stats().avg_req_kb == pytest.approx((2 + 2 + 1 + 1) / 4 * 4.0)

    def test_max_lpn(self):
        trace = Trace.from_requests(make_requests())
        assert trace.max_lpn() == 11

    def test_written_page_count(self):
        assert Trace.from_requests(make_requests()).written_page_count() == 3

    def test_empty_trace(self):
        trace = Trace.from_requests([])
        stats = trace.stats()
        assert stats.requests == 0
        assert stats.dedup_ratio == 0.0
        assert trace.max_lpn() == 0


class TestCSV:
    def test_roundtrip(self, tmp_path):
        trace = Trace.from_requests(make_requests(), name="demo")
        path = tmp_path / "demo.csv"
        trace.save_csv(path)
        loaded = Trace.load_csv(path)
        assert loaded.name == "demo"
        assert list(loaded.iter_requests()) == list(trace.iter_requests())

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("nope,nope\n1,2\n")
        with pytest.raises(ValueError):
            Trace.load_csv(path)

    @given(
        reqs=st.lists(
            st.tuples(
                st.integers(0, 2),
                st.integers(0, 100),
                st.integers(1, 5),
                st.lists(st.integers(0, 2**62), min_size=5, max_size=5),
            ),
            max_size=30,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property(self, tmp_path_factory, reqs):
        requests = []
        t = 0.0
        for op, lpn, npages, fps in reqs:
            kind = OpKind(op)
            requests.append(
                IORequest(
                    t,
                    kind,
                    lpn=lpn,
                    npages=npages,
                    fingerprints=tuple(fps[:npages]) if kind == OpKind.WRITE else None,
                )
            )
            t += 1.5
        trace = Trace.from_requests(requests)
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        trace.save_csv(path)
        assert list(Trace.load_csv(path).iter_requests()) == requests


def _columns(fps, offsets, ops=(1, 0, 1)):
    """Three-request columns with the given fingerprint column; each
    row's ``npages`` is its fingerprint span, or 1 where that is < 1."""
    n = len(ops)
    return (
        np.arange(n, dtype=np.float64),
        np.asarray(ops, dtype=np.uint8),
        np.zeros(n, dtype=np.int64),
        np.maximum(np.diff(offsets), 1).astype(np.int32),
        np.asarray(fps, dtype=np.int64),
        np.asarray(offsets, dtype=np.int64),
    )


class TestTraceContract:
    """Every constructor path rejects a malformed fingerprint column with
    a TraceError naming the request and the field."""

    @pytest.mark.parametrize(
        "fps, offsets, index, field, detail",
        [
            ([5, -3], [0, 1, 1, 2], 2, "fps_flat", "negative fingerprint -3"),
            ([5, 6], [1, 1, 1, 2], 0, "fp_offsets", "starts at 1"),
            ([5, 6, 7], [0, 1, 1, 2], 2, "fp_offsets", "ends at 2"),
            ([5, 6, 7], [0, 2, 1, 3], 1, "fp_offsets", "decreases by 1"),
            ([5, 6, 7], [0, 1, 2, 3], 1, "fps_flat", "for a READ row"),
        ],
    )
    def test_raw_arrays(self, fps, offsets, index, field, detail):
        with pytest.raises(TraceError, match=f"request {index}: {field}") as info:
            Trace(*_columns(fps, offsets))
        assert (info.value.index, info.value.field) == (index, field)
        assert detail in info.value.detail
        assert isinstance(info.value, ValueError)

    def test_unknown_opcode(self):
        with pytest.raises(TraceError, match="request 1: ops unknown opcode 3"):
            Trace(*_columns([5, 6], [0, 1, 1, 2], ops=(1, 3, 1)))

    def test_empty_trace_passes_and_fingerprintless_write_fails(self):
        Trace(*_columns([], [0], ops=()))
        with pytest.raises(TraceError) as info:
            Trace(*_columns([], [0, 0, 0, 0]))
        assert (info.value.index, info.value.field) == (0, "npages")
        assert info.value.detail == "1 differs from the WRITE's 0 fingerprints"

    @pytest.mark.parametrize("npages", [0, -2, 2**31, 2**32 + 1])
    @pytest.mark.parametrize("op", [0, 1, 2])
    def test_npages_outside_the_int32_column(self, op, npages):
        columns = list(_columns([5], [0, 1, 1, 1], ops=(1, op, 0)))
        columns[3] = np.array([1, npages, 1], dtype=np.int64)
        with pytest.raises(TraceError) as info:
            Trace(*columns)  # checked before the int32 cast can wrap it
        assert (info.value.index, info.value.field) == (1, "npages")
        assert info.value.detail == f"{npages} is outside 1..2147483647"

    def test_npages_ties_after_fps_flat_before_times_us(self):
        columns = list(_columns([5, 6], [0, 1, 2, 2]))
        columns[3] = np.array([1, 0, 1], dtype=np.int32)
        with pytest.raises(TraceError, match="request 1: fps_flat"):
            Trace(*columns)  # row 1: a READ with a fingerprint, npages 0
        columns = list(_columns([5, 6], [0, 1, 1, 2]))
        columns[3] = np.array([1, 0, 1], dtype=np.int32)
        columns[0] = np.array([0.0, -1.0, 2.0])
        with pytest.raises(TraceError, match="request 1: npages"):
            Trace(*columns)  # row 1: npages 0 and an arrival before row 0

    #: Writes of npages 5 with one fingerprint and npages 0 with two:
    #: 3 fingerprinted pages under a claimed 5 written pages.
    _NPAGES_CSV = (
        "time_us,op,lpn,npages,fingerprints\n0.0,1,0,5,a\n1.0,1,8,0,b/c\n"
    )

    def test_write_npages_differs_from_its_fingerprint_span(self, tmp_path):
        from repro.workloads.stream import open_trace

        path = tmp_path / "npages.csv"
        path.write_text(self._NPAGES_CSV)
        raw = (
            np.array([0.0, 1.0]), np.array([1, 1], dtype=np.uint8),
            np.array([0, 8]), np.array([5, 0], dtype=np.int32),
            np.array([0xA, 0xB, 0xC]), np.array([0, 1, 3]),
        )
        for source in (
            lambda: Trace(*raw),
            lambda: Trace.load_csv(path),
            lambda: list(open_trace(path, stream=True, chunk_size=1).iter_chunks()),
        ):
            with pytest.raises(TraceError) as info:
                source()
            assert (info.value.index, info.value.field) == (0, "npages")
            assert info.value.detail == "5 differs from the WRITE's 1 fingerprints"

    def test_negative_fp_past_a_check_block(self, monkeypatch):
        monkeypatch.setattr(trace_mod, "_CHECK_BLOCK", 2)
        ops = [1, 1, 2, 1, 1]
        with pytest.raises(TraceError, match="request 4: fps_flat") as info:
            Trace(*_columns([1, 2, 3, 4, 5, -9], [0, 2, 3, 3, 4, 6], ops=ops))
        assert info.value.detail == "holds negative fingerprint -9"

    def test_remapped_mail_trace_fails_at_construction(self):
        from repro.config import small_config
        from repro.workloads.fiu import build_fiu_trace

        cfg = small_config(blocks=64, pages_per_block=16)
        t = build_fiu_trace("mail", cfg, n_requests=1500)
        for shift in (3, 130):
            fps = t.fps_flat % 1000 - shift
            with pytest.raises(TraceError, match="negative fingerprint"):
                Trace(t.times_us, t.ops, t.lpns, t.npages, fps, t.fp_offsets)

    def test_load_csv(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "time_us,op,lpn,npages,fingerprints\n0.0,1,0,1,a\n1.0,1,1,2,b/-3\n"
        )
        with pytest.raises(TraceError, match="request 1: fps_flat"):
            Trace.load_csv(path)

    def test_streamed_csv_chunk_names_the_file_row(self, tmp_path):
        from repro.workloads.stream import open_trace
        from repro.workloads.trace import iter_csv_chunks

        path = tmp_path / "bad.csv"
        rows = [f"{i}.0,1,{i},1,{i + 1:x}" for i in range(5)] + ["5.0,1,5,1,-4"]
        path.write_text("time_us,op,lpn,npages,fingerprints\n" + "\n".join(rows))
        chunks = iter_csv_chunks(path, chunk_size=2)
        assert len(next(chunks)) == 2 and len(next(chunks)) == 2
        with pytest.raises(TraceError, match="request 5: fps_flat") as info:
            next(chunks)
        assert info.value.index == 5
        with pytest.raises(TraceError, match="request 5"):
            list(open_trace(path, stream=True, chunk_size=4).iter_chunks())

    @pytest.mark.parametrize("op", [257, -1])
    @pytest.mark.parametrize("dtype", [np.int64, np.int16])
    def test_opcode_range_checked_before_the_uint8_cast(self, op, dtype):
        columns = list(_columns([5, 6], [0, 1, 1, 2]))
        columns[1] = np.array([1, op, 1], dtype=dtype)
        with pytest.raises(TraceError) as info:
            Trace(*columns)
        assert (info.value.index, info.value.field) == (1, "ops")
        assert info.value.detail == f"unknown opcode {op}"

    @pytest.mark.parametrize("size", [1, 2, 65536])
    def test_csv_opcode_out_of_uint8_range(self, tmp_path, size):
        from repro.workloads.stream import open_trace

        path = tmp_path / "bad.csv"
        path.write_text(
            "time_us,op,lpn,npages,fingerprints\n0.0,1,0,1,a\n1.0,257,1,1,\n"
        )
        for source in (
            lambda: Trace.load_csv(path),
            lambda: list(open_trace(path, stream=True, chunk_size=size).iter_chunks()),
        ):
            with pytest.raises(TraceError) as info:
                source()
            assert (info.value.index, info.value.field) == (1, "ops")
            assert info.value.detail == "unknown opcode 257"

    @pytest.mark.parametrize("size", [1, 2, 65536])
    @pytest.mark.parametrize(
        "row, field",
        [
            ("3.0,1,3,1,zz", "fps_flat"),
            ("3.0,1,3,1,4/", "fps_flat"),
            ("soon,1,3,1,4", "times_us"),
            ("3.0,W,3,1,4", "ops"),
            ("3.0,1,0x3,1,4", "lpns"),
            ("3.0,0,3,1.5,", "npages"),
            ("3.0,1,3,1", "fps_flat"),
            ("3.0,1,3", "npages"),
        ],
    )
    def test_csv_field_that_does_not_parse_names_its_request(
        self, tmp_path, size, row, field
    ):
        from repro.workloads.stream import open_trace

        path = tmp_path / "bad.csv"
        rows = [f"{i}.0,1,{i},1,{i + 1:x}" for i in range(5)]
        rows[3] = row
        path.write_text("time_us,op,lpn,npages,fingerprints\n" + "\n".join(rows))
        for source in (
            lambda: Trace.load_csv(path),
            lambda: list(open_trace(path, stream=True, chunk_size=size).iter_chunks()),
        ):
            with pytest.raises(TraceError, match=f"request 3: {field} ") as info:
                source()
            assert (info.value.index, info.value.field) == (3, field)

    def test_csv_npages_past_int32_names_its_request(self, tmp_path):
        from repro.workloads.stream import open_trace

        path = tmp_path / "t.csv"
        path.write_text("time_us,op,lpn,npages,fingerprints\n0.0,1,0,1,a\n1.0,0,0,99999999999,\n")
        for source in [lambda: Trace.load_csv(path)] + [
            lambda k=k: list(open_trace(path, stream=True, chunk_size=k).iter_chunks())
            for k in (1, 2)
        ]:
            with pytest.raises(TraceError) as info:
                source()
            assert (info.value.index, info.value.field) == (1, "npages")

    def test_csv_rejects_a_fingerprintless_write(self, tmp_path):
        from repro.workloads.stream import open_trace

        path = tmp_path / "t.csv"
        path.write_text("time_us,op,lpn,npages,fingerprints\n0.0,0,0,1,\n1.0,1,0,1,\n")
        for source in [lambda: Trace.load_csv(path)] + [
            lambda k=k: list(open_trace(path, stream=True, chunk_size=k).iter_chunks())
            for k in (1, 2, 65536)
        ]:
            with pytest.raises(TraceError) as info:
                source()
            assert (info.value.index, info.value.field) == (1, "npages")
            assert info.value.detail == "1 differs from the WRITE's 0 fingerprints"

    def test_decreasing_arrival(self):
        columns = list(_columns([5, 6], [0, 1, 1, 2]))
        columns[0] = np.array([0.0, 10.0, 5.0])
        with pytest.raises(TraceError, match="request 2: times_us") as info:
            Trace(*columns)
        assert info.value.detail == "decreases from 10 to 5"
        columns[0] = np.array([0.0, 5.0, 5.0])  # ties are in order
        Trace(*columns)
        columns[0] = np.array([-1.0, 0.0, 5.0])  # the event clock starts at 0
        with pytest.raises(TraceError, match="request 0: times_us decreases from 0"):
            Trace(*columns)

    def test_decreasing_arrival_across_a_check_block(self, monkeypatch):
        monkeypatch.setattr(trace_mod, "_CHECK_BLOCK", 2)
        columns = list(_columns([], [0, 0, 0, 0, 0, 0], ops=(0, 0, 0, 0, 0)))
        columns[0] = np.array([0.0, 1.0, 2.0, 3.0, 2.5])
        with pytest.raises(TraceError, match="request 4: times_us") as info:
            Trace(*columns)
        assert info.value.detail == "decreases from 3 to 2.5"
        columns[0] = np.array([0.0, 1.0, 2.5, 2.0, 3.0])
        with pytest.raises(TraceError, match="request 3: times_us"):
            Trace(*columns)

    @staticmethod
    def _decreasing_arrival_csv(tmp_path):
        """Six writes arriving at 0, 10, 5, 20, 30, 40 us."""
        path = tmp_path / "late.csv"
        rows = [
            f"{t:.1f},1,{i},1,{i + 1:x}" for i, t in enumerate((0, 10, 5, 20, 30, 40))
        ]
        path.write_text("time_us,op,lpn,npages,fingerprints\n" + "\n".join(rows))
        return path

    @pytest.mark.parametrize("device", ["ssd", "array"])
    @pytest.mark.parametrize("kernel", ["reference", "vectorized"])
    def test_decreasing_arrival_same_error_on_every_driver(
        self, tmp_path, device, kernel
    ):
        from repro.array import SSDArray
        from repro.config import small_config
        from repro.device.ssd import SSD
        from repro.schemes import make_scheme
        from repro.workloads.stream import open_trace

        cfg = small_config(blocks=64, pages_per_block=16, kernel=kernel)

        def replay(trace):
            if device == "ssd":
                return SSD(make_scheme("cagc", cfg)).replay(trace)
            return SSDArray([make_scheme("cagc", cfg) for _ in range(2)]).replay(trace)

        path = self._decreasing_arrival_csv(tmp_path)
        sources = [lambda: open_trace(path)]
        if device == "ssd":  # arrays replay materialized traces only
            sources += [
                lambda size=size: open_trace(path, stream=True, chunk_size=size)
                for size in (1, 2, 7)
            ]
        for source in sources:
            with pytest.raises(TraceError) as info:
                replay(source())
            assert (info.value.index, info.value.field) == (2, "times_us")
            assert info.value.detail == "decreases from 10 to 5"

    def test_load_npz_memory_mapped(self, tmp_path):
        path = tmp_path / "bad.npz"
        fields = ("times_us", "ops", "lpns", "npages", "fps_flat", "fp_offsets")
        np.savez(path, **dict(zip(fields, _columns([5, -3], [0, 1, 1, 2]))))
        with pytest.raises(TraceError, match="request 2: fps_flat"):
            Trace.load_npz(path)
        good = tmp_path / "good.npz"
        np.savez(good, **dict(zip(fields, _columns([5, 3], [0, 1, 1, 2]))))
        assert isinstance(Trace.load_npz(good).fps_flat.base, np.memmap)

    def test_multiplex_traces(self):
        from repro.workloads.multiplex import multiplex_traces

        a = Trace.from_requests(make_requests(), name="a")
        b = Trace.from_requests(make_requests(), name="b")
        b.fps_flat[2] = -1  # corrupted after construction
        with pytest.raises(TraceError, match="fps_flat holds negative"):
            multiplex_traces([a, b], devices=2, pages_per_device=64)

    @staticmethod
    def _write_csv(path, times, ops, lpns, fps):
        """One single-page request per row; ``fps[i]`` is row i's
        fingerprint field as written (empty for no fingerprint)."""
        rows = [
            f"{t!r},{op},{lpn},1,{fp}" for t, op, lpn, fp in zip(times, ops, lpns, fps)
        ]
        path.write_text("time_us,op,lpn,npages,fingerprints\n" + "\n".join(rows))
        return path

    @staticmethod
    def _every_source(path, raw=None):
        """Loaders of one trace: the raw columns (when given), the CSV
        loaded, and the CSV streamed at several chunk sizes."""
        from repro.workloads.stream import open_trace

        sources = [lambda: open_trace(path)] + [
            lambda k=k: list(open_trace(path, stream=True, chunk_size=k).iter_chunks())
            for k in (1, 2, 7, 65536)
        ]
        return ([lambda: Trace(*raw)] if raw is not None else []) + sources

    @pytest.mark.parametrize(
        "times", [[0.0, float("nan"), 1.0, 2.0], [float("nan"), 1.0, 2.0, 3.0],
                  [0.0, 1.0, 2.0, float("inf")], [0.0, float("-inf"), 1.0, 2.0]],
    )
    def test_non_finite_arrival(self, tmp_path, times):
        bad = int(np.argmax(~np.isfinite(times)))
        path = self._write_csv(tmp_path / "t.csv", times, [1] * 4, range(4), "abcd")
        raw = list(_columns(list(range(4)), range(5), ops=(1, 1, 1, 1)))
        raw[0] = np.asarray(times)
        for source in self._every_source(path, raw):
            with pytest.raises(TraceError) as info:
                source()
            assert (info.value.index, info.value.field) == (bad, "times_us")
            assert info.value.detail == f"{times[bad]} is not finite"

    @pytest.mark.parametrize(
        "times, ops, lpns, fps, index, field",
        [
            # row 2 arrives early, row 3 has op 7: the lower row wins
            ([0, 2, 1.5, 3], [1, 1, 1, 7], [0, 1, 2, 3], [5, 6, 7, None], 2, "times_us"),
            # op 7 at row 1 comes before row 3's early arrival
            ([0, 2, 3, 1.5], [1, 7, 1, 1], [0, 1, 2, 3], [5, None, 7, 8], 1, "ops"),
            # one row breaks two rules: the field order breaks the tie
            ([0, 2, 1.5, 3], [1, 1, 7, 1], [0, 1, 2, 3], [5, 6, None, 8], 2, "ops"),
            # a negative LPN at row 1 before a negative fingerprint at row 2
            ([0, 1, 2, 3], [1, 1, 1, 1], [0, -1, 2, 3], [5, 6, -7, 8], 1, "lpns"),
            # a chunk's first row goes back past a later row's bad op
            ([0, 1, 2, 3, 2.5, 4, 5, 6], [1, 1, 1, 1, 1, 7, 1, 1], list(range(8)),
             [1, 2, 3, 4, 5, None, 7, 8], 4, "times_us"),
        ],
    )
    def test_lowest_bad_request_is_named(
        self, tmp_path, times, ops, lpns, fps, index, field
    ):
        fields = ["" if fp is None else f"{fp:x}" for fp in fps]
        path = self._write_csv(tmp_path / "t.csv", times, ops, lpns, fields)
        flat = [fp for fp in fps if fp is not None]
        offsets = np.cumsum([0] + [fp is not None for fp in fps])
        raw = (np.asarray(times, dtype=np.float64), np.asarray(ops),
               np.asarray(lpns), np.ones(len(ops)), np.asarray(flat), offsets)
        for source in self._every_source(path, raw):
            with pytest.raises(TraceError) as info:
                source()
            assert (info.value.index, info.value.field) == (index, field)

    def test_parse_error_after_a_contract_fault(self, tmp_path):
        """A CSV field that does not parse is named only when no row
        above it breaks the contract."""
        times = [0.0, 2.0, 1.0, 3.0, 4.0]
        path = self._write_csv(tmp_path / "t.csv", times, [1] * 5, range(5), "abcde")
        path.write_text(path.read_text().replace("3.0,1,3,1,d", "3.0,1,3,1,zz"))
        for source in self._every_source(path):
            with pytest.raises(TraceError) as info:
                source()
            assert (info.value.index, info.value.field) == (2, "times_us")

    @pytest.mark.parametrize("op", [int(OpKind.READ), int(OpKind.TRIM)])
    def test_csv_fingerprint_on_a_non_write_row(self, tmp_path, op):
        """The CSV reader parses every row's fingerprint field, so a
        READ or TRIM row carrying one fails as its raw columns do."""
        from repro.workloads.stream import open_trace

        path = self._write_csv(tmp_path / "t.csv", [0.0, 1.0], [1, op], [0, 0], "ab")
        raw = _columns([10, 11], [0, 1, 2], ops=(1, op))
        sources = [lambda: Trace(*raw), lambda: Trace.load_csv(path)] + [
            lambda k=k: list(open_trace(path, stream=True, chunk_size=k).iter_chunks())
            for k in (1, 2, 65536)
        ]
        for source in sources:
            with pytest.raises(TraceError) as info:
                source()
            assert (info.value.index, info.value.field) == (1, "fps_flat")
            assert info.value.detail == (
                f"holds 1 fingerprints for a {OpKind(op).name} row"
            )

    @pytest.mark.parametrize(
        "row",
        [
            "4.0,1,952,1,e",  # a write just past the last logical page
            "4.0,1,951,2,e/f",  # a write whose fingerprint span ends past it
            "4.0,0,1029,1,",  # a read
            "4.0,2,950,3,",  # a trim whose extent ends past it
            "4.0,1,1000000,1,e",
        ],
    )
    @pytest.mark.parametrize("kernel", ["reference", "vectorized"])
    def test_extent_past_logical_pages(self, tmp_path, kernel, row):
        """Both kernels reject a request whose extent ends past the
        device's logical pages, named by its offset in the whole trace,
        loaded or streamed at any chunk size."""
        from repro.config import small_config
        from repro.device.ssd import SSD
        from repro.schemes import make_scheme
        from repro.workloads.stream import open_trace

        cfg = small_config(blocks=64, pages_per_block=16, kernel=kernel)
        assert cfg.logical_pages == 952
        path = self._write_csv(tmp_path / "t.csv", [0.0, 1.0, 2.0, 3.0], [1] * 4,
                               [0, 951, 1, 2], "abcd")
        path.write_text(path.read_text() + "\n" + row + "\n5.0,1,3,1,f\n")
        sources = [lambda: open_trace(path)] + [
            lambda k=k: open_trace(path, stream=True, chunk_size=k)
            for k in (1, 7, 65536)
        ]
        for trace in sources:
            with pytest.raises(TraceError) as info:
                SSD(make_scheme("cagc", cfg)).replay(trace())
            assert (info.value.index, info.value.field) == (4, "lpns")
            assert info.value.detail.endswith("passes the device's 952 logical pages")

    def test_array_pages_per_device_past_logical_pages(self):
        from repro.array import SSDArray
        from repro.config import small_config
        from repro.schemes import make_scheme

        cfg = small_config(blocks=64, pages_per_block=16)
        schemes = [make_scheme("baseline", cfg) for _ in range(2)]
        SSDArray(schemes, pages_per_device=cfg.logical_pages)
        with pytest.raises(ValueError, match="pages_per_device=953 exceeds"):
            SSDArray(schemes, pages_per_device=cfg.logical_pages + 1)

    @pytest.mark.parametrize("kernel", ["reference", "vectorized"])
    def test_negative_lpn_fails_before_either_kernel(self, tmp_path, kernel):
        from repro.config import small_config
        from repro.device.ssd import SSD
        from repro.schemes import make_scheme
        from repro.workloads.stream import open_trace

        raw = list(_columns([5, 6], [0, 1, 1, 2]))
        raw[2] = np.array([0, -1, 2])
        with pytest.raises(TraceError) as info:
            Trace(*raw)
        assert (info.value.index, info.value.field) == (1, "lpns")
        assert info.value.detail == "-1 is negative"
        path = self._write_csv(tmp_path / "t.csv", [0.0, 1.0, 2.0], [1] * 3,
                               [0, -1, 2], "abc")
        cfg = small_config(blocks=64, pages_per_block=16, kernel=kernel)
        for trace in (lambda: open_trace(path),
                      lambda: open_trace(path, stream=True, chunk_size=1)):
            with pytest.raises(TraceError) as info:
                SSD(make_scheme("cagc", cfg)).replay(trace())
            assert (info.value.index, info.value.field) == (1, "lpns")
