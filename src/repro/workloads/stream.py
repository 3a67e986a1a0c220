"""Streaming trace access: constant-memory replay of on-disk traces.

Production FIU traces run to tens of millions of records; materializing
one as in-memory columns costs GBs and dwarfs the simulator state.
This module is the dispatch layer that keeps replay memory flat:

* :func:`open_trace` — one entry point for every on-disk format.  With
  ``stream=True`` it returns a :class:`StreamingTrace` whose iteration
  touches at most one chunk of requests at a time: FIU text and CSV
  parse lazily, npz archives are sliced out of memory-mapped columns
  the OS pages in and out on demand.
* :class:`StreamingTrace` — a trace source: ``name`` plus a restartable
  ``iter_chunks()``, the one protocol
  :meth:`repro.device.ssd.SSD.replay` consumes, so a streamed trace
  replays exactly like a materialized :class:`~repro.workloads.trace.Trace`.

The replay loop itself is single-pass; with these sources its peak RSS
is set by the device geometry, not the trace length (the
constant-memory assertion in ``tests/test_trace_stream.py`` pins this).
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterator, Optional, Union

from repro.workloads.fiu_format import iter_fiu_chunks, load_fiu_trace
from repro.workloads.trace import DEFAULT_CHUNK_SIZE, Trace, iter_csv_chunks


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

    ``stream=False`` returns a :class:`Trace` (npz still memory-maps its
    columns).  ``stream=True`` returns a :class:`StreamingTrace` of
    ``chunk_size``-request chunks with constant-memory access: text
    formats parse lazily, npz chunks are windows of the memory-mapped
    columns, so iteration never holds the whole trace in RAM.
    """
    path = Path(path)
    if fmt is None:
        suffix = path.suffix.lower()
        fmt = {".csv": "csv", ".npz": "npz"}.get(suffix, "fiu")
    if fmt == "npz":
        trace = Trace.load_npz(path, name=name)
        if not stream:
            return trace
        return StreamingTrace(lambda: trace.iter_chunks(chunk_size), trace.name)
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
