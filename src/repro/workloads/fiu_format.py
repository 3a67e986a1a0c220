"""Parser for FIU IODedup-style content traces.

The paper replays the FIU SyLab traces (Koller & Rangaswami, "I/O
Deduplication", TOS 2010; SNIA IOTTA trace 391).  Those traces are not
redistributable, but users with access can replay them directly: this
module parses the published record format into a :class:`Trace`.

Record format (whitespace-separated, one 4 KB block per record)::

    <timestamp_ns> <pid> <process> <block> <size_blocks> <op> <major> <minor> <md5>

* ``timestamp_ns`` — nanoseconds; converted to the simulator's
  microsecond clock, rebased to zero at the first record.
* ``block`` — logical block number in 4 KB units (used as the LPN).
* ``size_blocks`` — spanned 4 KB blocks; the FIU tooling emits one
  record per block, so this is almost always 1.
* ``op`` — ``W`` or ``R`` (case-insensitive).
* ``md5`` — hex digest of the block's content; truncated to 63 bits for
  the simulator's integer fingerprints (collisions at simulator scale
  are negligible).  Read records' hashes are ignored.

Consecutive same-op records that are contiguous in LBA and share a
timestamp are coalesced into multi-page requests (``coalesce=True``),
recovering the original request sizes Table II reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, TextIO, Tuple, Union

import numpy as np

from repro.workloads.request import OpKind
from repro.workloads.trace import (
    DEFAULT_CHUNK_SIZE,
    Trace,
    checked_chunks,
    concat_traces,
)


class FIUFormatError(ValueError):
    """Raised on malformed FIU trace records."""


@dataclass(frozen=True)
class FIURecord:
    """One parsed FIU trace record."""

    time_us: float
    pid: int
    process: str
    block: int
    size_blocks: int
    op: OpKind
    fingerprint: int


def parse_fiu_line(line: str, lineno: int = 0) -> Optional[FIURecord]:
    """Parse one record; ``None`` for blank/comment lines."""
    line = line.strip()
    if not line or line.startswith("#"):
        return None
    fields = line.split()
    if len(fields) != 9:
        raise FIUFormatError(
            f"line {lineno}: expected 9 fields, got {len(fields)}: {line[:80]!r}"
        )
    ts, pid, process, block, size, op, _major, _minor, digest = fields
    op_upper = op.upper()
    if op_upper not in ("W", "R"):
        raise FIUFormatError(f"line {lineno}: unknown op {op!r}")
    try:
        fingerprint = int(digest, 16) & ((1 << 63) - 1)
    except ValueError:
        raise FIUFormatError(f"line {lineno}: bad md5 field {digest!r}") from None
    try:
        return FIURecord(
            time_us=int(ts) / 1000.0,
            pid=int(pid),
            process=process,
            block=int(block),
            size_blocks=int(size),
            op=OpKind.WRITE if op_upper == "W" else OpKind.READ,
            fingerprint=fingerprint,
        )
    except ValueError as exc:
        raise FIUFormatError(f"line {lineno}: {exc}") from None


def iter_fiu_records(lines: Iterable[str]) -> Iterator[FIURecord]:
    for lineno, line in enumerate(lines, start=1):
        record = parse_fiu_line(line, lineno)
        if record is not None:
            yield record


class _RequestBuilder:
    """Accumulates coalesced FIU request rows into Trace columns.

    The coalescing rule and the timestamp rebase arithmetic live here
    exactly once, and the open group and the rebase base carry across
    the chunks :func:`iter_fiu_chunks` takes out of it.
    """

    def __init__(self, coalesce: bool) -> None:
        self.coalesce = coalesce
        self.base_us: Optional[float] = None
        self.group: List[FIURecord] = []
        self.times: List[float] = []
        self.ops: List[int] = []
        self.lpns: List[int] = []
        self.npages: List[int] = []
        self.fps: List[int] = []
        self.offsets: List[int] = [0]

    def __len__(self) -> int:
        """Requests flushed so far (the open group is not counted)."""
        return len(self.times)

    def push(self, record: FIURecord) -> None:
        if self.base_us is None:
            self.base_us = record.time_us
        group = self.group
        if not group:
            group.append(record)
            return
        head = group[-1]
        contiguous = (
            self.coalesce
            and record.op == group[0].op
            and record.time_us == group[0].time_us
            and record.pid == group[0].pid
            and record.block == head.block + head.size_blocks
        )
        if contiguous:
            group.append(record)
        else:
            self._flush()
            self.group = [record]

    def _flush(self) -> None:
        group = self.group
        head = group[0]
        self.times.append(head.time_us - self.base_us)
        self.ops.append(int(head.op))
        self.lpns.append(head.block)
        self.npages.append(len(group))
        if head.op == OpKind.WRITE:
            self.fps.extend(r.fingerprint for r in group)
        self.offsets.append(len(self.fps))

    def finish(self) -> None:
        """Flush the trailing open group at end of input."""
        if self.group:
            self._flush()
            self.group = []

    def take_columns(self) -> Tuple[np.ndarray, ...]:
        """Emit the flushed rows as Trace columns and reset them (the
        open coalescing group and timestamp base carry over)."""
        columns = (
            np.asarray(self.times, dtype=np.float64),
            np.asarray(self.ops, dtype=np.uint8),
            np.asarray(self.lpns, dtype=np.int64),
            np.asarray(self.npages, dtype=np.int32),
            np.asarray(self.fps, dtype=np.int64),
            np.asarray(self.offsets, dtype=np.int64),
        )
        self.times = []
        self.ops = []
        self.lpns = []
        self.npages = []
        self.fps = []
        self.offsets = [0]
        return columns


def load_fiu_trace(
    source: Union[str, Path, TextIO],
    name: Optional[str] = None,
    coalesce: bool = True,
) -> Trace:
    """Load an FIU IODedup trace file into a :class:`Trace`.

    ``source`` may be a path or an open text stream.  Timestamps are
    rebased so the trace starts at t=0.  The trace is the chunks of
    :func:`iter_fiu_chunks` joined by :func:`concat_traces`.
    """
    chunks = list(iter_fiu_chunks(source, name=name, coalesce=coalesce))
    return concat_traces(chunks, chunks[0].name)


def iter_fiu_chunks(
    source: Union[str, Path, TextIO],
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    name: Optional[str] = None,
    coalesce: bool = True,
) -> Iterator[Trace]:
    """Stream an FIU trace file as :class:`Trace` chunks of
    ``chunk_size`` requests, at memory proportional to one chunk.

    Always yields at least one (possibly empty) chunk.  The coalescing
    group that is still open when a chunk fills carries over into the
    next chunk (a multi-record request is never split), and timestamps
    stay rebased to the whole trace's first record, so the chunks
    concatenate to the same trace whatever the chunk size.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    if isinstance(source, (str, Path)):
        with open(source) as fh:
            name = name or Path(source).stem
            yield from iter_fiu_chunks(fh, chunk_size, name, coalesce)
        return
    yield from checked_chunks(_iter_columns(source, chunk_size, coalesce), name or "fiu")


def _iter_columns(
    lines: Iterable[str], chunk_size: int, coalesce: bool
) -> Iterator[Tuple[np.ndarray, ...]]:
    builder = _RequestBuilder(coalesce)
    empty = True
    for record in iter_fiu_records(lines):
        builder.push(record)
        if len(builder) >= chunk_size:
            empty = False
            yield builder.take_columns()
    builder.finish()
    if len(builder) or empty:
        yield builder.take_columns()


def dump_fiu_trace(trace: Trace, path: Union[str, Path], process: str = "repro") -> None:
    """Write a :class:`Trace` in the FIU record format (round-trip aid).

    Multi-page requests expand to one record per block, as the FIU
    tooling does.  Reads get a zero digest (their hashes are unused).
    """
    with open(path, "w") as fh:
        for time_us, op, lpn, npages, page_fps in trace.iter_rows():
            ts_ns = int(round(time_us * 1000.0))
            kind = "W" if op == int(OpKind.WRITE) else "R"
            if op == int(OpKind.TRIM):
                continue  # the FIU format has no TRIM records
            for i in range(npages):
                digest = (
                    format(int(page_fps[i]), "032x")
                    if page_fps is not None
                    else "0" * 32
                )
                fh.write(
                    f"{ts_ns} 1 {process} {lpn + i} 1 {kind} 8 0 {digest}\n"
                )
