"""Trace container with array-backed storage and CSV/npz serialization.

A :class:`Trace` stores half a million requests in a handful of NumPy
arrays (times, opcodes, extents) plus one flat fingerprint array with a
per-request offset table — no per-request Python objects on the replay
hot path.  ``iter_requests`` materializes :class:`IORequest` views for
API consumers that prefer objects.

For production-scale traces the columns also serialize to an
uncompressed ``.npz`` (:meth:`Trace.save_npz`) that loads back as
memory-mapped views (:meth:`Trace.load_npz`): the OS pages column data
in and out on demand, so replaying a multi-million-request trace never
materializes it in RAM.  :meth:`Trace.slice` and :meth:`Trace.iter_chunks`
carve zero-copy windows out of the columns for chunked consumers.

Every trace source — a :class:`Trace`, or a
:class:`repro.workloads.stream.StreamingTrace` over a file — is ``name``
plus a restartable, argument-free ``iter_chunks()``; the replay loops
consume nothing else.  The CSV reader (:func:`iter_csv_chunks`) lives
here beside :meth:`Trace.save_csv`, and :meth:`Trace.load_csv` is its
chunks joined by :func:`concat_traces`.

Every trace, however it is built, passes one column check in
:class:`Trace`'s constructor: arrival times are finite and never
decrease from the clock's start at 0; every op is a known
:class:`OpKind` (checked before the ``uint8`` cast); every LPN is
non-negative; ``fp_offsets`` starts at 0, never decreases and ends at
``len(fps_flat)``; only WRITE rows carry a non-empty fingerprint span;
every fingerprint is non-negative (an opaque content id, see
:mod:`repro.dedup.fingerprint`); every ``npages`` is at least 1 and
fits ``int32`` (checked before the cast), and a WRITE's equals its
fingerprint span, so ``npages`` is every request's extent.  A column that breaks it, or a CSV field that does not parse,
raises :class:`TraceError` naming the lowest bad request and its field
(on a tie, the first of ``ops``, ``lpns``, ``fp_offsets``,
``fps_flat``, ``npages``, ``times_us``), so the replay
layers below never see an out-of-contract request and a file names
the same request loaded or streamed at any chunk size.
"""

from __future__ import annotations

import csv
import struct
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.workloads.request import IORequest, OpKind

#: Requests per chunk of every chunked trace source: large enough to
#: amortize the per-chunk array construction, small enough (~a few MB
#: of columns) to keep memory flat.
DEFAULT_CHUNK_SIZE = 65536


def _mmap_npz_member(path: Union[str, Path], info: zipfile.ZipInfo) -> np.ndarray:
    """Memory-map one stored (uncompressed) ``.npy`` member of an npz.

    ``zipfile`` has no public "offset of member data" API, so this reads
    the member's local file header to find where the raw ``.npy`` bytes
    start, parses the npy header there, and maps the array data that
    follows it.  Only valid for ``ZIP_STORED`` members (the raw bytes
    *are* the npy file).
    """
    with open(path, "rb") as fh:
        fh.seek(info.header_offset)
        local = fh.read(30)
        if len(local) != 30 or local[:4] != b"PK\x03\x04":
            raise ValueError(f"{path}: bad local header for {info.filename}")
        name_len, extra_len = struct.unpack("<HH", local[26:30])
        fh.seek(info.header_offset + 30 + name_len + extra_len)
        version = np.lib.format.read_magic(fh)
        if version == (1, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
        elif version == (2, 0):
            shape, fortran, dtype = np.lib.format.read_array_header_2_0(fh)
        else:
            raise ValueError(f"{path}: unsupported npy version {version}")
        if fortran:
            raise ValueError(f"{path}: fortran-order member {info.filename}")
        data_offset = fh.tell()
    return np.memmap(path, dtype=dtype, mode="r", offset=data_offset, shape=shape)


class TraceError(ValueError):
    """A trace column breaks the request contract at request ``index``."""

    def __init__(self, index: int, field: str, detail: str) -> None:
        super().__init__(f"request {index}: {field} {detail}")
        self.index = index
        self.field = field
        self.detail = detail


#: Requests per block of the column check: its temporaries stay this
#: small however long a memory-mapped trace is.
_CHECK_BLOCK = 1 << 16
#: The largest ``npages`` the ``int32`` column holds.
_NPAGES_MAX = int(np.iinfo(np.int32).max)


def _check_columns(
    times_us: np.ndarray,
    ops: np.ndarray,
    lpns: np.ndarray,
    npages: np.ndarray,
    fps_flat: np.ndarray,
    fp_offsets: np.ndarray,
    start_us: float,
) -> None:
    """Raise :class:`TraceError` unless the columns hold to the trace
    contract (see the module docs), naming the lowest request that
    breaks it; ``start_us`` is the arrival request 0 may not precede."""
    n = len(ops)
    if int(fp_offsets[0]) != 0:
        raise TraceError(0, "fp_offsets", f"starts at {int(fp_offsets[0])}, not 0")
    write = int(OpKind.WRITE)
    top = max(OpKind)
    for lo in range(0, n, _CHECK_BLOCK):
        hi = min(lo + _CHECK_BLOCK, n)
        block_ops = np.asarray(ops[lo:hi])
        block_lpns = np.asarray(lpns[lo:hi])
        block_npages = np.asarray(npages[lo:hi])
        offsets = np.asarray(fp_offsets[lo : hi + 1])
        spans = np.diff(offsets)
        # Each arrival after its predecessor (``start_us`` for row 0).
        times = np.concatenate(([times_us[lo - 1] if lo else start_us], times_us[lo:hi]))
        # Fingerprints of the rows up to the first decreasing offset.
        d = _first(spans < 0)
        fps = fps_flat[int(offsets[0]) : int(offsets[len(spans) if d is None else d])]
        k = _first(fps < 0)
        neg = None if k is None else int(
            np.searchsorted(offsets, offsets[0] + k, side="right") - 1
        )
        # (first bad row, field, its detail) per rule, in tie-break order.
        faults = [
            (_first((block_ops > top) | (block_ops < 0)), "ops",
             lambda i: f"unknown opcode {int(block_ops[i])}"),
            (_first(block_lpns < 0), "lpns",
             lambda i: f"{int(block_lpns[i])} is negative"),
            (d, "fp_offsets", lambda i: f"decreases by {-int(spans[i])}"),
            (_first((spans != 0) & (block_ops != write)), "fps_flat",
             lambda i: f"holds {int(spans[i])} fingerprints for a "
                       f"{OpKind(int(block_ops[i])).name} row"),
            (neg, "fps_flat", lambda i: f"holds negative fingerprint {int(fps[k])}"),
            (_first((block_npages < 1) | (block_npages > _NPAGES_MAX)), "npages",
             lambda i: f"{int(block_npages[i])} is outside 1..{_NPAGES_MAX}"),
            (_first((block_npages != spans) & (block_ops == write)), "npages",
             lambda i: f"{int(block_npages[i])} differs from the WRITE's "
                       f"{int(spans[i])} fingerprints"),
            (_first(~np.isfinite(times[1:])), "times_us",
             lambda i: f"{times[i + 1]} is not finite"),
            (_first(np.diff(times) < 0), "times_us",
             lambda i: f"decreases from {times[i]:g} to {times[i + 1]:g}"),
        ]
        found = [(i, rule) for rule, (i, _, _) in enumerate(faults) if i is not None]
        if found:
            i, rule = min(found)
            _, field, detail = faults[rule]
            raise TraceError(lo + i, field, detail(i))
    last = int(fp_offsets[n])
    if last != len(fps_flat):
        raise TraceError(
            max(n - 1, 0), "fp_offsets",
            f"ends at {last}, but fps_flat holds {len(fps_flat)} fingerprints",
        )


def _first(mask: np.ndarray) -> Optional[int]:
    """Index of the first True in ``mask``, or None."""
    return int(np.argmax(mask)) if mask.any() else None


@dataclass(frozen=True)
class TraceStats:
    """Aggregate characteristics, comparable against the paper's Table II."""

    requests: int
    write_ratio: float
    dedup_ratio: float
    avg_req_kb: float
    read_requests: int
    write_requests: int
    trim_requests: int
    written_pages: int
    unique_written_pages: int
    span_us: float


class Trace:
    """An ordered sequence of page-granular I/O requests.

    Raises :class:`TraceError` for columns that break the trace
    contract (see the module docs).  ``start_us`` is the arrival the
    first request may not precede: the clock's start for a whole trace,
    the previous chunk's last arrival for a chunk of one.
    """

    def __init__(
        self,
        times_us: np.ndarray,
        ops: np.ndarray,
        lpns: np.ndarray,
        npages: np.ndarray,
        fps_flat: np.ndarray,
        fp_offsets: np.ndarray,
        name: str = "trace",
        start_us: float = 0.0,
    ) -> None:
        n = len(times_us)
        if not (len(ops) == len(lpns) == len(npages) == n):
            raise ValueError("array length mismatch")
        if len(fp_offsets) != n + 1:
            raise ValueError("fp_offsets must have n+1 entries")
        self.times_us = np.asarray(times_us, dtype=np.float64)
        ops = np.asarray(ops)  # range-checked before the uint8 cast
        npages = np.asarray(npages)  # and this before the int32 cast
        self.lpns = np.asarray(lpns, dtype=np.int64)
        self.fps_flat = np.asarray(fps_flat, dtype=np.int64)
        self.fp_offsets = np.asarray(fp_offsets, dtype=np.int64)
        self.name = name
        _check_columns(
            self.times_us, ops, self.lpns, npages, self.fps_flat,
            self.fp_offsets, start_us,
        )
        self.ops = ops.astype(np.uint8, copy=False)
        self.npages = npages.astype(np.int32, copy=False)

    def __len__(self) -> int:
        return len(self.times_us)

    # -- construction -------------------------------------------------------------

    @classmethod
    def from_requests(cls, requests: Sequence[IORequest], name: str = "trace") -> "Trace":
        n = len(requests)
        times = np.empty(n, dtype=np.float64)
        ops = np.empty(n, dtype=np.uint8)
        lpns = np.empty(n, dtype=np.int64)
        npages = np.empty(n, dtype=np.int32)
        fps: List[int] = []
        offsets = np.zeros(n + 1, dtype=np.int64)
        for i, req in enumerate(requests):
            times[i] = req.time_us
            ops[i] = int(req.op)
            lpns[i] = req.lpn
            npages[i] = req.npages
            if req.fingerprints is not None:
                fps.extend(req.fingerprints)
            offsets[i + 1] = len(fps)
        return cls(times, ops, lpns, npages, np.asarray(fps, dtype=np.int64), offsets, name)

    # -- iteration -------------------------------------------------------------------

    def iter_rows(
        self,
    ) -> Iterator[Tuple[float, int, int, int, Optional[np.ndarray]]]:
        """Yield ``(time_us, op, lpn, npages, fps-or-None)`` tuples.

        This is the replay hot path: no object construction, fingerprint
        slices are views into the flat array.
        """
        times = self.times_us
        ops = self.ops
        lpns = self.lpns
        npages = self.npages
        fps = self.fps_flat
        offsets = self.fp_offsets
        write = int(OpKind.WRITE)
        for i in range(len(times)):
            op = int(ops[i])
            page_fps = fps[offsets[i] : offsets[i + 1]] if op == write else None
            yield (float(times[i]), op, int(lpns[i]), int(npages[i]), page_fps)

    def iter_requests(self) -> Iterator[IORequest]:
        """Yield :class:`IORequest` objects (convenience API)."""
        for time_us, op, lpn, npages, page_fps in self.iter_rows():
            yield IORequest(
                time_us=time_us,
                op=OpKind(op),
                lpn=lpn,
                npages=npages,
                fingerprints=tuple(int(f) for f in page_fps) if page_fps is not None else None,
            )

    def __iter__(self) -> Iterator[IORequest]:
        return self.iter_requests()

    # -- chunked views -----------------------------------------------------------------

    def slice(self, start: int, stop: int) -> "Trace":
        """Zero-copy window ``[start, stop)`` over the trace columns.

        Fingerprint offsets are rebased to the window's flat-array
        slice; every column is a NumPy view, so slicing a memory-mapped
        trace touches no data pages until the slice is iterated.
        """
        n = len(self)
        start = max(0, min(start, n))
        stop = max(start, min(stop, n))
        fp_lo = int(self.fp_offsets[start])
        fp_hi = int(self.fp_offsets[stop])
        return Trace(
            self.times_us[start:stop],
            self.ops[start:stop],
            self.lpns[start:stop],
            self.npages[start:stop],
            self.fps_flat[fp_lo:fp_hi],
            self.fp_offsets[start : stop + 1] - fp_lo,
            self.name,
        )

    def iter_chunks(self, chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator["Trace"]:
        """Yield the trace as consecutive :meth:`slice` windows."""
        if chunk_size <= 0:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        for start in range(0, len(self), chunk_size):
            yield self.slice(start, start + chunk_size)

    # -- statistics --------------------------------------------------------------------

    def stats(self) -> TraceStats:
        """Measure Table II-style characteristics of this trace."""
        n = len(self)
        is_write = self.ops == int(OpKind.WRITE)
        is_read = self.ops == int(OpKind.READ)
        is_trim = self.ops == int(OpKind.TRIM)
        writes = int(is_write.sum())
        written_pages = int(self.npages[is_write].sum()) if writes else 0
        # Dedup ratio: fraction of written pages whose content was already
        # written earlier in the trace (the FIU-trace convention).
        unique = int(np.unique(self.fps_flat).size)
        duplicates = len(self.fps_flat) - unique
        dedup_ratio = duplicates / len(self.fps_flat) if len(self.fps_flat) else 0.0
        avg_req_kb = float(self.npages.mean()) * 4.0 if n else 0.0
        span = float(self.times_us[-1] - self.times_us[0]) if n > 1 else 0.0
        return TraceStats(
            requests=n,
            write_ratio=writes / n if n else 0.0,
            dedup_ratio=dedup_ratio,
            avg_req_kb=avg_req_kb,
            read_requests=int(is_read.sum()),
            write_requests=writes,
            trim_requests=int(is_trim.sum()),
            written_pages=written_pages,
            unique_written_pages=unique,
            span_us=span,
        )

    def written_page_count(self) -> int:
        return int(self.npages[self.ops == int(OpKind.WRITE)].sum())

    def max_lpn(self) -> int:
        if len(self) == 0:
            return 0
        return int((self.lpns + self.npages).max()) - 1

    def check_capacity(self, logical_pages: int, offset: int = 0) -> None:
        """Raise :class:`TraceError` (as request ``offset + i``) at the
        first request whose extent ``[lpn, lpn + npages)`` ends past
        ``logical_pages``."""
        i = _first(self.lpns + self.npages > logical_pages)
        if i is not None:
            raise TraceError(
                offset + i, "lpns",
                f"{int(self.lpns[i])} + {int(self.npages[i])} pages passes the "
                f"device's {logical_pages} logical pages",
            )

    # -- serialization --------------------------------------------------------------------

    CSV_HEADER = ["time_us", "op", "lpn", "npages", "fingerprints"]

    def save_csv(self, path: Union[str, Path]) -> None:
        """Write the trace as CSV (fingerprints hex, slash-separated)."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.CSV_HEADER)
            for time_us, op, lpn, npages, page_fps in self.iter_rows():
                fp_field = (
                    "/".join(format(int(f), "x") for f in page_fps)
                    if page_fps is not None
                    else ""
                )
                writer.writerow([repr(time_us), op, lpn, npages, fp_field])

    @classmethod
    def load_csv(cls, path: Union[str, Path], name: Optional[str] = None) -> "Trace":
        """Load a trace written by :meth:`save_csv`."""
        chunks = list(iter_csv_chunks(path, name=name))
        return concat_traces(chunks, chunks[0].name)

    _NPZ_FIELDS = ("times_us", "ops", "lpns", "npages", "fps_flat", "fp_offsets")

    def save_npz(self, path: Union[str, Path]) -> None:
        """Write the trace columns as an *uncompressed* ``.npz``.

        Uncompressed on purpose: stored (not deflated) zip members can
        be memory-mapped straight out of the archive, which is what
        makes :meth:`load_npz` constant-memory.
        """
        np.savez(path, **{f: getattr(self, f) for f in self._NPZ_FIELDS})

    @classmethod
    def load_npz(
        cls, path: Union[str, Path], name: Optional[str] = None, mmap: bool = True
    ) -> "Trace":
        """Load a trace written by :meth:`save_npz`.

        With ``mmap=True`` (the default) every column is an
        ``np.memmap`` view into the file — the process's resident set
        stays constant no matter how many requests the trace holds,
        because the OS pages column data in on access and drops it
        under pressure.  Falls back to an ordinary in-memory read for
        compressed archives.
        """
        columns = {}
        with zipfile.ZipFile(path) as zf:
            for field in cls._NPZ_FIELDS:
                member = field + ".npy"
                try:
                    info = zf.getinfo(member)
                except KeyError:
                    raise ValueError(f"{path}: not a trace npz (missing {member})")
                if mmap and info.compress_type == zipfile.ZIP_STORED:
                    columns[field] = _mmap_npz_member(path, info)
                else:
                    with zf.open(member) as fh:
                        columns[field] = np.lib.format.read_array(fh)
        return cls(name=name or Path(path).stem.replace(".npz", ""), **columns)


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


def checked_chunks(
    columns: Iterator[Tuple[np.ndarray, ...]], name: str
) -> Iterator[Trace]:
    """Build the consecutive chunks of one trace from their column
    tuples (``times_us, ops, lpns, npages, fps_flat, fp_offsets``), each
    checked from the previous chunk's last arrival on, so a chunk names
    its lowest bad request whatever the chunk size; a
    :class:`TraceError` names the request by its offset in the whole
    trace.  Chunk readers use it."""
    offset, last = 0, 0.0  # requests and last arrival so far
    try:
        for cols in columns:
            chunk = Trace(*cols, name=name, start_us=last)
            if len(chunk):
                last = float(chunk.times_us[-1])
            yield chunk
            offset += len(chunk)
    except TraceError as exc:
        raise TraceError(offset + exc.index, exc.field, exc.detail) from None


#: The :class:`Trace` column and parser of each CSV field, in file order.
_CSV_FIELDS = (
    ("times_us", float), ("ops", int), ("lpns", int), ("npages", int),
    ("fps_flat", lambda field: [int(tok, 16) for tok in field.split("/")]),
)


def _csv_row_error(index: int, row: List[str]) -> TraceError:
    """The :class:`TraceError` naming a CSV row's first field that is
    missing or does not parse."""
    for column, (field, parse) in enumerate(_CSV_FIELDS):
        try:
            parse(row[column])
        except IndexError:
            return TraceError(index, field, "is missing")
        except ValueError as exc:
            return TraceError(index, field, f"does not parse: {exc}")
    raise AssertionError(f"CSV row {index} parses field by field: {row}")


def iter_csv_chunks(
    path: Union[str, Path],
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    name: Optional[str] = None,
) -> Iterator[Trace]:
    """Read a :meth:`Trace.save_csv` file as chunks of ``chunk_size``
    requests, at memory proportional to one chunk.

    Always yields at least one (possibly empty) chunk.  A row that
    breaks the trace contract or does not parse raises
    :class:`TraceError` naming it by its position in the file.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    columns = _read_csv_columns(path, chunk_size)
    yield from checked_chunks(columns, name or Path(path).stem)


def _read_csv_columns(path, chunk_size: int) -> Iterator[Tuple[np.ndarray, ...]]:
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

        def take() -> Tuple[np.ndarray, ...]:
            nonlocal times, ops, lpns, npages, fps, offsets
            columns = (
                np.asarray(times, dtype=np.float64),
                np.asarray(ops, dtype=np.int64),
                np.asarray(lpns, dtype=np.int64),
                np.asarray(npages, dtype=np.int64),
                np.asarray(fps, dtype=np.int64),
                np.asarray(offsets, dtype=np.int64),
            )
            times, ops, lpns, npages, fps, offsets = [], [], [], [], [], [0]
            return columns

        for row in reader:
            try:
                op = int(row[1])
                fields = (float(row[0]), int(row[2]), int(row[3]))
                if row[4]:
                    fps.extend([int(tok, 16) for tok in row[4].split("/")])
            except (ValueError, IndexError):
                # The rows above it go first: one of them may break the
                # contract, and the lowest bad request is the one named.
                if times:
                    yield take()
                raise _csv_row_error(0, row) from None
            times.append(fields[0])
            ops.append(op)
            lpns.append(fields[1])
            npages.append(fields[2])
            offsets.append(len(fps))
            if len(times) >= chunk_size:
                yield take()
                emitted += chunk_size
        if times or not emitted:
            yield take()
