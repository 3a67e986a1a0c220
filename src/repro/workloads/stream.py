"""Streaming trace access: constant-memory replay of on-disk traces.

Production FIU traces run to tens of millions of records; materializing
one as in-memory columns costs GBs and dwarfs the simulator state.
This module is the dispatch layer that keeps replay memory flat:

* :func:`open_trace` — one entry point for every on-disk format.  With
  ``stream=True`` it returns a trace object whose iteration touches at
  most one chunk of requests at a time: FIU text and CSV parse lazily
  (:class:`StreamingTrace`), npz archives come back as memory-mapped
  column views the OS pages in and out on demand.
* :class:`StreamingTrace` — wraps a restartable chunk iterator in the
  replay-facing trace protocol (``iter_rows`` / ``iter_requests`` /
  ``name``), so :meth:`repro.device.ssd.SSD.replay` consumes it exactly
  like a materialized :class:`~repro.workloads.trace.Trace`.

The replay loop itself was already single-pass; with these sources its
peak RSS is set by the device geometry, not the trace length (the
constant-memory assertion in ``tests/test_trace_stream.py`` pins this).
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Callable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.workloads.fiu_format import iter_fiu_chunks, load_fiu_trace
from repro.workloads.request import IORequest, OpKind
from repro.workloads.trace import Trace, TraceError

#: Default requests per streamed chunk: large enough to amortize the
#: per-chunk array construction, small enough (~a few MB of columns)
#: to keep memory flat.
DEFAULT_CHUNK_SIZE = 65536


class StreamingTrace:
    """A trace iterated chunk-by-chunk from a restartable source.

    ``chunks`` is a zero-argument callable returning a fresh iterator of
    :class:`Trace` chunks — restartable so the trace can be replayed (or
    analyzed) more than once, like a materialized trace.  Only one chunk
    of columns is live at any point during iteration.
    """

    def __init__(self, chunks: Callable[[], Iterator[Trace]], name: str) -> None:
        self._chunks = chunks
        self.name = name

    def iter_chunks(self) -> Iterator[Trace]:
        return self._chunks()

    def iter_rows(self) -> Iterator[Tuple[float, int, int, int, Optional[np.ndarray]]]:
        """The replay hot path: rows from one chunk at a time."""
        for chunk in self._chunks():
            yield from chunk.iter_rows()

    def iter_requests(self, chunk_size: Optional[int] = None) -> Iterator[IORequest]:
        # chunk_size is already fixed by the source; accepted for
        # drop-in parity with Trace.iter_requests.
        for chunk in self._chunks():
            yield from chunk.iter_requests()

    def __iter__(self) -> Iterator[IORequest]:
        return self.iter_requests()

    def materialize(self) -> Trace:
        """Concatenate all chunks into an in-memory :class:`Trace`."""
        return concat_traces(list(self._chunks()), self.name)


def concat_traces(chunks: List[Trace], name: str) -> Trace:
    """Concatenate trace chunks (rebasing fingerprint offsets)."""
    if not chunks:
        return Trace(
            np.empty(0),
            np.empty(0, dtype=np.uint8),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int32),
            np.empty(0, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            name,
        )
    offsets = [chunks[0].fp_offsets]
    base = int(chunks[0].fp_offsets[-1])
    for chunk in chunks[1:]:
        offsets.append(chunk.fp_offsets[1:] + base)
        base += int(chunk.fp_offsets[-1])
    return Trace(
        np.concatenate([c.times_us for c in chunks]),
        np.concatenate([c.ops for c in chunks]),
        np.concatenate([c.lpns for c in chunks]),
        np.concatenate([c.npages for c in chunks]),
        np.concatenate([c.fps_flat for c in chunks]),
        np.concatenate(offsets),
        name,
    )


def iter_csv_chunks(
    path: Union[str, Path],
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    name: Optional[str] = None,
) -> Iterator[Trace]:
    """Stream a ``Trace.save_csv`` file as chunks of ``chunk_size``
    requests; concatenating them reproduces :meth:`Trace.load_csv`."""
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    trace_name = name or Path(path).stem
    write = int(OpKind.WRITE)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != Trace.CSV_HEADER:
            raise ValueError(f"unrecognized trace CSV header: {header}")
        times: List[float] = []
        ops: List[int] = []
        lpns: List[int] = []
        npages: List[int] = []
        fps: List[int] = []
        offsets: List[int] = [0]
        emitted = 0  # requests in the chunks already yielded

        def take() -> Trace:
            nonlocal times, ops, lpns, npages, fps, offsets
            try:
                chunk = Trace(
                    np.asarray(times, dtype=np.float64),
                    np.asarray(ops, dtype=np.uint8),
                    np.asarray(lpns, dtype=np.int64),
                    np.asarray(npages, dtype=np.int32),
                    np.asarray(fps, dtype=np.int64),
                    np.asarray(offsets, dtype=np.int64),
                    trace_name,
                )
            except TraceError as exc:  # name the request by its file row
                raise TraceError(emitted + exc.index, exc.field, exc.detail) from None
            times, ops, lpns, npages, fps, offsets = [], [], [], [], [], [0]
            return chunk

        for row in reader:
            times.append(float(row[0]))
            op = int(row[1])
            ops.append(op)
            lpns.append(int(row[2]))
            npages.append(int(row[3]))
            if op == write:
                fps.extend(int(tok, 16) for tok in row[4].split("/"))
            offsets.append(len(fps))
            if len(times) >= chunk_size:
                yield take()
                emitted += chunk_size
        if times or not emitted:
            yield take()


def open_trace(
    path: Union[str, Path],
    fmt: Optional[str] = None,
    stream: bool = False,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    name: Optional[str] = None,
):
    """Open an on-disk trace in any supported format.

    ``fmt`` is ``"csv"``, ``"npz"``, ``"fiu"``, or ``None`` to infer
    from the file extension (unknown extensions mean FIU text, the
    format real SyLab traces ship in).

    ``stream=False`` materializes the trace (npz still memory-maps its
    columns).  ``stream=True`` guarantees constant-memory access: text
    formats parse lazily in ``chunk_size``-request chunks, npz columns
    are memory-mapped, so either way iteration never holds the whole
    trace in RAM.
    """
    path = Path(path)
    if fmt is None:
        suffix = path.suffix.lower()
        fmt = {".csv": "csv", ".npz": "npz"}.get(suffix, "fiu")
    if fmt == "npz":
        # Memory-mapped columns are already constant-memory.
        return Trace.load_npz(path, name=name)
    if fmt == "csv":
        if not stream:
            return Trace.load_csv(path, name=name)
        return StreamingTrace(
            lambda: iter_csv_chunks(path, chunk_size, name), name or path.stem
        )
    if fmt == "fiu":
        if not stream:
            return load_fiu_trace(path, name=name)
        return StreamingTrace(
            lambda: iter_fiu_chunks(path, chunk_size, name), name or path.stem
        )
    raise ValueError(f"unknown trace format {fmt!r}")
