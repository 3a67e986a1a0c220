"""Streaming trace pipeline: chunked/memmap access and constant memory.

The contract under test: every streaming access path (chunked FIU
parsing, chunked CSV parsing, memory-mapped npz columns) yields *exactly*
the same request sequence as materializing the trace — same floats, same
fingerprints — so replay trajectories are bit-identical; and replaying a
streamed trace holds peak RSS constant regardless of trace length.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import small_config
from repro.device.ssd import SSD, run_trace
from repro.metrics.latency import LatencyRecorder, LatencySummary
from repro.obs.telemetry import _BUCKETS, _EDGES, _FIRST_US, LatencyHistogram
from repro.schemes import make_scheme
from repro.workloads.fiu import build_fiu_trace
from repro.workloads.fiu_format import (
    FIUFormatError,
    dump_fiu_trace,
    iter_fiu_chunks,
    load_fiu_trace,
)
from repro.workloads.stream import StreamingTrace, open_trace
from repro.workloads.trace import Trace, TraceError, concat_traces, iter_csv_chunks


def _sample_trace(n: int = 3000) -> Trace:
    return build_fiu_trace("mail", small_config(), n_requests=n)


def _rows(source):
    """Every row of a trace source, read through its ``iter_chunks()``."""
    return [row for chunk in source.iter_chunks() for row in chunk.iter_rows()]


def _assert_rows_equal(a, b) -> None:
    rows_a = _rows(a)
    rows_b = _rows(b)
    assert len(rows_a) == len(rows_b)
    for ra, rb in zip(rows_a, rows_b):
        assert ra[:4] == rb[:4]
        if ra[4] is None:
            assert rb[4] is None
        else:
            assert np.array_equal(ra[4], rb[4])


class TestSliceAndChunks:
    def test_slice_window(self):
        t = _sample_trace(500)
        window = t.slice(100, 200)
        assert len(window) == 100
        _assert_rows_equal(window, Trace.from_requests(list(t)[100:200]))

    def test_slice_clamps_bounds(self):
        t = _sample_trace(50)
        assert len(t.slice(-5, 10_000)) == 50
        assert len(t.slice(60, 70)) == 0

    def test_chunks_cover_trace_exactly(self):
        t = _sample_trace(1000)
        for size in (1, 7, 999, 1000, 5000):
            chunks = list(t.iter_chunks(size))
            assert sum(len(c) for c in chunks) == len(t)
            _assert_rows_equal(concat_traces(chunks, t.name), t)

    def test_chunk_size_must_be_positive(self):
        with pytest.raises(ValueError):
            list(_sample_trace(10).iter_chunks(0))

    def test_iter_requests_chunked_equals_plain(self):
        t = _sample_trace(800)
        chunked = [r for c in t.iter_chunks(97) for r in c.iter_requests()]
        assert list(t.iter_requests()) == chunked


class TestNpz:
    @pytest.mark.parametrize("mmap", (True, False))
    def test_round_trip(self, tmp_path, mmap):
        t = _sample_trace()
        path = tmp_path / "t.npz"
        t.save_npz(path)
        loaded = Trace.load_npz(path, mmap=mmap)
        assert loaded.name == "t"
        _assert_rows_equal(t, loaded)

    def test_mmap_columns_are_file_backed(self, tmp_path):
        t = _sample_trace()
        path = tmp_path / "t.npz"
        t.save_npz(path)
        loaded = Trace.load_npz(path)
        for field in Trace._NPZ_FIELDS:
            col = getattr(loaded, field)
            assert isinstance(col.base, np.memmap) or isinstance(col, np.memmap)

    def test_rejects_non_trace_npz(self, tmp_path):
        path = tmp_path / "bogus.npz"
        np.savez(path, something=np.arange(4))
        with pytest.raises(ValueError, match="missing"):
            Trace.load_npz(path)

    def test_replay_from_mmap_matches_materialized(self, tmp_path):
        t = _sample_trace()
        path = tmp_path / "t.npz"
        t.save_npz(path)
        cfg = small_config()
        a = run_trace(make_scheme("cagc", cfg), t)
        b = run_trace(make_scheme("cagc", cfg), Trace.load_npz(path))
        assert np.array_equal(a.response_times_us, b.response_times_us)


class TestStreamingSources:
    def test_fiu_chunks_concat_equals_load(self, tmp_path):
        t = _sample_trace(1200)
        path = tmp_path / "t.fiu"
        dump_fiu_trace(t, path)
        whole = load_fiu_trace(path)
        for size in (1, 13, 1200, 100_000):
            chunks = list(iter_fiu_chunks(path, chunk_size=size))
            _assert_rows_equal(concat_traces(chunks, whole.name), whole)

    def test_csv_chunks_concat_equals_load(self, tmp_path):
        t = _sample_trace(900)
        path = tmp_path / "t.csv"
        t.save_csv(path)
        whole = Trace.load_csv(path)
        for size in (1, 57, 5000):
            chunks = list(iter_csv_chunks(path, chunk_size=size))
            _assert_rows_equal(concat_traces(chunks, whole.name), whole)

    def test_open_trace_dispatch(self, tmp_path):
        t = _sample_trace(300)
        csv_p, npz_p, fiu_p = (
            tmp_path / "t.csv", tmp_path / "t.npz", tmp_path / "t.trace"
        )
        t.save_csv(csv_p)
        t.save_npz(npz_p)
        dump_fiu_trace(t, fiu_p)
        for path in (csv_p, npz_p, fiu_p):
            _assert_rows_equal(open_trace(path), open_trace(path, stream=True))

    def test_streaming_trace_is_restartable(self, tmp_path):
        t = _sample_trace(200)
        path = tmp_path / "t.csv"
        t.save_csv(path)
        stream = open_trace(path, stream=True, chunk_size=64)
        assert isinstance(stream, StreamingTrace)
        first = _rows(stream)
        second = _rows(stream)
        assert len(first) == len(second) == len(t)

    def test_streaming_replay_trajectory_sha256_equal(self, tmp_path):
        """The end-to-end guarantee: streamed and materialized replays of
        the same on-disk trace are byte-identical trajectories."""
        t = _sample_trace(2500)
        path = tmp_path / "t.fiu"
        dump_fiu_trace(t, path)
        materialized = _replay_digest(load_fiu_trace(path))
        streamed = _replay_digest(open_trace(path, stream=True, chunk_size=333))
        assert materialized == streamed

    def test_streamed_npz_honours_chunk_size(self, tmp_path):
        t = _sample_trace(300)
        path = tmp_path / "t.npz"
        t.save_npz(path)
        stream = open_trace(path, stream=True, chunk_size=7)
        assert isinstance(stream, StreamingTrace) and stream.name == "t"
        sizes = [len(c) for c in stream.iter_chunks()]
        assert sizes == [7] * 42 + [6]
        whole = open_trace(path)
        assert isinstance(whole.fps_flat.base, np.memmap)
        assert _replay_digest(stream) == _replay_digest(whole)

    @pytest.mark.parametrize("fmt", ("csv", "fiu"))
    @pytest.mark.parametrize("size", (1, 7, 65536))
    def test_open_trace_stream_concat_equals_load(self, tmp_path, fmt, size):
        t = _sample_trace(400)
        path = tmp_path / f"t.{fmt}"
        t.save_csv(path) if fmt == "csv" else dump_fiu_trace(t, path)
        whole = open_trace(path)
        chunks = list(open_trace(path, stream=True, chunk_size=size).iter_chunks())
        assert all(len(c) == size for c in chunks[:-1])
        joined = concat_traces(chunks, whole.name)
        for field in Trace._NPZ_FIELDS:
            assert np.array_equal(getattr(joined, field), getattr(whole, field))

    @pytest.mark.parametrize("size", (1, 2, 7, 65536))
    def test_malformed_csv_row_same_error_both_paths(self, tmp_path, size):
        path = tmp_path / "bad.csv"
        rows = [f"{i}.0,1,{i},1,{i + 1:x}" for i in range(5)]
        rows.insert(3, "3.5,7,9,1,")  # opcode 7 is no OpKind
        path.write_text("time_us,op,lpn,npages,fingerprints\n" + "\n".join(rows))
        with pytest.raises(TraceError) as whole:
            open_trace(path)
        with pytest.raises(TraceError) as streamed:
            list(open_trace(path, stream=True, chunk_size=size).iter_chunks())
        assert (whole.value.index, whole.value.field) == (3, "ops")
        assert (streamed.value.index, streamed.value.field) == (3, "ops")

    @pytest.mark.parametrize("size", (1, 7))
    def test_malformed_fiu_record_same_error_both_paths(self, tmp_path, size):
        path = tmp_path / "bad.fiu"
        good = [f"{i * 1000} 1 p {i} 1 W 8 0 {i + 1:032x}" for i in range(9)]
        path.write_text("\n".join(good[:8] + ["8000 1 p 8 1 X 8 0 0"] + good[8:]))
        with pytest.raises(FIUFormatError) as whole:
            open_trace(path)
        with pytest.raises(FIUFormatError) as streamed:
            list(open_trace(path, stream=True, chunk_size=size).iter_chunks())
        assert str(whole.value) == str(streamed.value) == "line 9: unknown op 'X'"

    @pytest.mark.parametrize("fmt", ("csv", "fiu"))
    @pytest.mark.parametrize("size", (1, 2, 7, 65536))
    def test_decreasing_arrival_same_error_both_paths(self, tmp_path, fmt, size):
        """Request 5 arrives at 3.5 us, after request 4 at 4 us: inside
        a chunk or across a chunk boundary, whatever the chunk size."""
        times_ns = (0, 1000, 2000, 3000, 4000, 3500, 5000)
        path = tmp_path / f"late.{fmt}"
        if fmt == "csv":
            rows = [f"{ns / 1000},1,{i},1,{i + 1:x}" for i, ns in enumerate(times_ns)]
            path.write_text("time_us,op,lpn,npages,fingerprints\n" + "\n".join(rows))
        else:
            rows = [
                f"{ns} 1 p {10 * i} 1 W 8 0 {i + 1:032x}"
                for i, ns in enumerate(times_ns)
            ]
            path.write_text("\n".join(rows))
        with pytest.raises(TraceError) as whole:
            open_trace(path)
        with pytest.raises(TraceError) as streamed:
            list(open_trace(path, stream=True, chunk_size=size).iter_chunks())
        for error in (whole.value, streamed.value):
            assert (error.index, error.field) == (5, "times_us")
            assert error.detail == "decreases from 4 to 3.5"


def _replay_digest(trace) -> str:
    """sha256 of a cagc replay's trajectory on the small device."""
    cfg = small_config()
    result = run_trace(make_scheme("cagc", cfg), trace)
    h = hashlib.sha256()
    h.update(result.response_times_us.tobytes())
    h.update(
        json.dumps(
            {
                "erased": result.gc.blocks_erased,
                "migrated": result.gc.pages_migrated,
                "programs": result.io.user_pages_programmed,
                "simulated_us": result.simulated_us,
            },
            sort_keys=True,
        ).encode()
    )
    return h.hexdigest()


def _hist_summary(hist: LatencyHistogram) -> LatencySummary:
    """The summary a sample-less recorder holding ``hist`` reports."""
    q = hist.quantiles((50, 95, 99, 99.9))
    return LatencySummary(hist.total, hist.mean_us, *q, hist.max_us)


class TestHistogramLatency:
    def test_histogram_mode_summary_close_to_exact(self):
        rng = np.random.default_rng(11)
        samples = rng.lognormal(mean=3.5, sigma=1.0, size=20_000)
        exact = LatencyRecorder()
        binned = LatencyRecorder(keep_samples=False)
        for s in samples:
            exact.record(float(s))
            binned.record(float(s))
        e, b = exact.summary(), binned.summary()
        # The sample-less summary is the shared histogram's, exactly.
        assert b == _hist_summary(LatencyHistogram.from_samples(samples))
        assert (b.count, b.max_us) == (e.count, e.max_us)
        # Bucket upper edges: within one 7 % bucket of the exact value.
        for field in ("median_us", "p95_us", "p99_us", "p999_us"):
            exact_us, edge_us = getattr(e, field), getattr(b, field)
            assert exact_us / 1.07 <= edge_us <= exact_us * 1.07, field

    @settings(max_examples=60, deadline=None)
    @given(
        batches=st.lists(
            st.lists(
                st.one_of(
                    # exact bucket edges and their float neighbours, the
                    # first and overflow buckets, and values in between
                    st.integers(0, _BUCKETS - 1).flatmap(
                        lambda k: st.sampled_from([
                            float(_EDGES[k]),
                            float(np.nextafter(_EDGES[k], 0.0)),
                            float(np.nextafter(_EDGES[k], np.inf)),
                        ])
                    ),
                    st.sampled_from(
                        [0.0, 1e-9, _FIRST_US, float(_EDGES[-1]) * 2, 1e300]
                    ),
                    st.floats(0.0, 5e7, allow_nan=False),
                ),
                max_size=40,
            ),
            max_size=6,
        )
    )
    def test_binned_record_many_matches_record_loop(self, batches):
        one, many = LatencyHistogram(), LatencyHistogram()
        for batch in batches:
            for value in batch:
                one.record(value)
            many.record_many(np.asarray(batch, dtype=np.float64))
        assert np.array_equal(one.counts, many.counts)
        assert one.sum_us == many.sum_us  # bit-exact left-to-right fold
        assert one.max_us == many.max_us
        assert one.total == many.total == sum(map(len, batches))
        recorder = LatencyRecorder(keep_samples=False)
        for batch in batches:
            recorder.record_many(np.asarray(batch, dtype=np.float64))
        assert len(recorder) == many.total
        if many.total:
            assert recorder.summary() == _hist_summary(many)

    def test_histogram_mode_keeps_no_samples(self):
        rec = LatencyRecorder(keep_samples=False)
        for i in range(1000):
            rec.record(float(i + 1))
        assert len(rec) == 1000
        assert rec.samples().size == 0

    def test_device_keep_samples_false_empty_result_samples(self):
        cfg = small_config()
        trace = _sample_trace(400)
        ssd = SSD(make_scheme("baseline", cfg), keep_samples=False)
        result = ssd.replay(trace)
        assert result.response_times_us.size == 0
        assert result.latency.count == 400
        # The summary is the shared histogram of an exact-sample run's
        # response times, exactly.
        exact = run_trace(make_scheme("baseline", cfg), _sample_trace(400))
        hist = LatencyHistogram.from_samples(exact.response_times_us)
        assert result.latency == _hist_summary(hist)
        assert result.latency.max_us == exact.latency.max_us


_REPLAY_CHILD = textwrap.dedent(
    """
    import resource, sys
    sys.path.insert(0, sys.argv[3])
    from repro.config import small_config
    from repro.device.ssd import SSD
    from repro.schemes import make_scheme
    from repro.workloads.stream import open_trace

    trace = open_trace(sys.argv[1], stream=True, chunk_size=65536)
    cfg = small_config(blocks=64, pages_per_block=32)
    ssd = SSD(make_scheme("baseline", cfg), keep_samples=False)
    result = ssd.replay(trace)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(result.latency.count, peak_kb)
    """
)


def _write_synthetic_fiu(path: Path, n_requests: int) -> None:
    """Emit an FIU text trace cheaply: mostly reads over a small LPN
    span (fast to replay), a write every 16th request so the FTL does
    real work.  One record per request (no coalescing runs).  Arrivals
    are spaced 500 µs apart — comfortably slower than the device's
    service rate, so the admission queue stays near-empty and measured
    memory is the pipeline's, not genuine request backlog."""
    span = 1024
    with open(path, "w") as fh:
        for i in range(n_requests):
            lpn = (i * 37) % span
            if i % 16 == 0:
                fh.write(f"{i * 500_000} 1 synth {lpn} 1 W 8 0 {i % 4096:032x}\n")
            else:
                fh.write(f"{i * 500_000} 1 synth {lpn} 1 R 8 0 {'0' * 32}\n")


@pytest.mark.slow
def test_streaming_replay_constant_memory(tmp_path):
    """Peak RSS of a streamed replay must not scale with trace length.

    Two fresh subprocesses replay 250k- and 1M-request synthetic FIU
    traces through the streaming pipeline.  Materialized, the 1M trace
    costs ~4x the memory of the 250k one; streamed, both must peak at
    essentially the same RSS (interpreter + device state + one chunk).
    """
    src_root = str(Path(__file__).resolve().parents[1] / "src")
    peaks = {}
    for n in (250_000, 1_000_000):
        path = tmp_path / f"synthetic-{n}.fiu"
        _write_synthetic_fiu(path, n)
        out = subprocess.run(
            [sys.executable, "-c", _REPLAY_CHILD, str(path), str(n), src_root],
            capture_output=True,
            text=True,
            check=True,
        )
        count, peak_kb = out.stdout.split()
        assert int(count) == n, f"replay consumed {count} of {n} requests"
        peaks[n] = int(peak_kb)
        path.unlink()  # keep tmp usage bounded
    ratio = peaks[1_000_000] / peaks[250_000]
    assert ratio < 1.35, (
        f"peak RSS grew with trace length: {peaks[250_000]}kB -> "
        f"{peaks[1_000_000]}kB (x{ratio:.2f})"
    )
