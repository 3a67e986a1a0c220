"""Span tracing in simulated-time coordinates.

A :class:`Tracer` collects three kinds of events, all timestamped in
simulation microseconds:

* **spans** — an interval of work on a *track* (``name``, ``ts_us``,
  ``dur_us``): a request's service window, one page read inside GC, one
  hash-lane occupancy, one erase;
* **instants** — a point event (GC victim selection, a promotion);
* **counters** — a sampled numeric series (free blocks over time).

Tracks are plain strings naming the resource the event occupies.  The
stack expects the conventional tracks below; anything else is legal and
simply becomes another row in the viewer:

=================  ====================================================
``io``             foreground request service (reads/writes/trims,
                   write-buffer destages)
``gc``             GC bursts, per-victim collection spans, erases
``gc.read``        the GC read path (one page read at a time)
``gc.write``       the GC write path (migration programs)
``hash-lane-<i>``  one track per hash-engine lane (hash + lookup spans)
=================  ====================================================

Spans can be recorded two ways: :meth:`Tracer.span` with a known
duration (the simulator computes durations analytically, so this is the
common form), or :meth:`Tracer.begin` / :meth:`Tracer.end` which keep a
per-track stack and therefore guarantee well-nested spans — used for GC
bursts whose duration is only known at the end.

Exports: :meth:`Tracer.write` emits either JSONL (one event object per
line, schema mirroring :class:`TraceEvent`) or Chrome trace-event JSON
(the ``{"traceEvents": [...]}`` form), which loads directly in Perfetto
or ``chrome://tracing``.  :func:`validate_chrome_trace` checks a
document against the trace-event schema — the acceptance test for the
export path.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, IO, Iterator, List, NamedTuple, Optional, Tuple, Union

TRACK_IO = "io"
TRACK_GC = "gc"
TRACK_GC_READ = "gc.read"
TRACK_GC_WRITE = "gc.write"
#: Batched-replay instrumentation: per-run ``batch`` spans (args carry
#: the request/page counts and wall time) plus ``batch-size`` and
#: ``fallback-rate`` counters, emitted by ``repro.kernel`` instead of
#: per-request ``io`` spans when the vectorized kernel is active.
TRACK_KERNEL = "kernel"
#: Array-level coordination events (``repro.array``): GC deferral
#: instants, token grants, stagger-window rotations, NCQ admission
#: stalls — everything that happens *between* devices rather than
#: inside one.
TRACK_ARRAY = "array"


def hash_lane_track(lane: int) -> str:
    """Track name for hash-engine lane ``lane`` (one track per lane)."""
    return f"hash-lane-{lane}"


class TraceEvent(NamedTuple):
    """One recorded event.  ``dur_us`` is ``None`` for instants and
    ``value`` is ``None`` for everything but counters."""

    kind: str  # "span" | "instant" | "counter"
    track: str
    name: str
    ts_us: float
    dur_us: Optional[float]
    value: Optional[float]
    args: Optional[Dict[str, Any]]


#: Chrome trace-event phase codes the exporter emits.
_PH_COMPLETE = "X"
_PH_INSTANT = "i"
_PH_COUNTER = "C"
_PH_METADATA = "M"


class Tracer:
    """Append-only event recorder with per-track begin/end stacks.

    ``limit`` bounds memory on very long replays: once reached, further
    events are counted (``dropped``) but not stored, so a runaway trace
    degrades gracefully instead of eating the heap.
    """

    __slots__ = ("_events", "_stacks", "limit", "dropped")

    def __init__(self, limit: Optional[int] = None) -> None:
        #: raw event rows, in record order (monotone ts per track).
        self._events: List[TraceEvent] = []
        #: open begin/end spans per track: (name, ts_us, args).
        self._stacks: Dict[str, List[Tuple[str, float, Optional[dict]]]] = {}
        self.limit = limit
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._events)

    def _push(self, event: TraceEvent) -> None:
        if self.limit is not None and len(self._events) >= self.limit:
            self.dropped += 1
            return
        self._events.append(event)

    # ------------------------------------------------------------------ record

    def span(
        self, track: str, name: str, ts_us: float, dur_us: float, **args: Any
    ) -> None:
        """Record a complete span (duration known up front)."""
        self._push(TraceEvent("span", track, name, ts_us, dur_us, None, args or None))

    def instant(self, track: str, name: str, ts_us: float, **args: Any) -> None:
        """Record a point event."""
        self._push(TraceEvent("instant", track, name, ts_us, None, None, args or None))

    def counter(self, track: str, name: str, ts_us: float, value: float) -> None:
        """Record one sample of a numeric series."""
        self._push(TraceEvent("counter", track, name, ts_us, None, float(value), None))

    def begin(self, track: str, name: str, ts_us: float, **args: Any) -> None:
        """Open a span on ``track``; close it with :meth:`end`.

        Begin/end pairs nest per track (a stack), so spans recorded this
        way can never partially overlap on their track.
        """
        self._stacks.setdefault(track, []).append((name, ts_us, args or None))

    def end(self, track: str, ts_us: float, **args: Any) -> None:
        """Close the innermost open span on ``track``."""
        try:
            name, start_us, open_args = self._stacks[track].pop()
        except (KeyError, IndexError):
            raise ValueError(f"end() with no open span on track {track!r}") from None
        merged = open_args
        if args:
            merged = dict(open_args or ())
            merged.update(args)
        self._push(TraceEvent("span", track, name, start_us, ts_us - start_us, None, merged))

    def open_spans(self, track: str) -> int:
        """Number of spans currently open on ``track`` (tests/debug)."""
        return len(self._stacks.get(track, ()))

    def add_counters_from(self, series: Dict[str, Dict[str, List[float]]],
                          track: str = "timeline") -> None:
        """Fold ``{name: {"times_us": [...], "values": [...]}}`` series
        into counter events, so device time-series ride along in the
        same file."""
        for name, data in sorted(series.items()):
            for t, v in zip(data["times_us"], data["values"]):
                self.counter(track, name, t, v)

    # ------------------------------------------------------------------ read

    def events(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def tracks(self) -> List[str]:
        """Distinct tracks in first-seen order."""
        seen: Dict[str, None] = {}
        for event in self._events:
            if event.track not in seen:
                seen[event.track] = None
        return list(seen)

    def spans(self, track: Optional[str] = None) -> List[TraceEvent]:
        return [
            e
            for e in self._events
            if e.kind == "span" and (track is None or e.track == track)
        ]

    # ------------------------------------------------------------------ export

    def to_chrome(self) -> dict:
        """The Chrome trace-event document (``chrome://tracing`` /
        Perfetto ``JSON`` format): one thread (tid) per track, named via
        ``thread_name`` metadata events; spans as complete (``X``)
        events, instants as ``i``, counters as ``C``."""
        pid = 1
        tids: Dict[str, int] = {}
        out: List[dict] = []
        for track in self.tracks():
            tid = tids[track] = len(tids) + 1
            out.append(
                {
                    "ph": _PH_METADATA,
                    "pid": pid,
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": track},
                }
            )
        for e in self._events:
            row: Dict[str, Any] = {
                "name": e.name,
                "cat": e.track,
                "pid": pid,
                "tid": tids[e.track],
                "ts": e.ts_us,
            }
            if e.kind == "span":
                row["ph"] = _PH_COMPLETE
                row["dur"] = e.dur_us
            elif e.kind == "instant":
                row["ph"] = _PH_INSTANT
                row["s"] = "t"  # thread-scoped
            else:
                row["ph"] = _PH_COUNTER
                row["args"] = {e.name: e.value}
            if e.args:
                row.setdefault("args", {}).update(e.args)
            out.append(row)
        return {"traceEvents": out, "displayTimeUnit": "ms"}

    def write_chrome(self, fp: IO[str]) -> None:
        json.dump(self.to_chrome(), fp, separators=(",", ":"), sort_keys=True)
        fp.write("\n")

    def write_jsonl(self, fp: IO[str]) -> None:
        for e in self._events:
            doc: Dict[str, Any] = {
                "kind": e.kind,
                "track": e.track,
                "name": e.name,
                "ts_us": e.ts_us,
            }
            if e.dur_us is not None:
                doc["dur_us"] = e.dur_us
            if e.value is not None:
                doc["value"] = e.value
            if e.args:
                doc["args"] = e.args
            fp.write(json.dumps(doc, sort_keys=True))
            fp.write("\n")

    def write(self, path: Union[str, "os.PathLike"], fmt: str = "chrome") -> None:
        """Write the trace to ``path`` as ``chrome`` or ``jsonl``."""
        if fmt not in ("chrome", "jsonl"):
            raise ValueError(f"unknown trace format {fmt!r}")
        with open(str(path), "w", encoding="utf-8") as fp:
            if fmt == "chrome":
                self.write_chrome(fp)
            else:
                self.write_jsonl(fp)


def validate_chrome_trace(doc: dict) -> List[str]:
    """Schema-check a Chrome trace-event document.

    Returns the track names declared by ``thread_name`` metadata, or
    raises ``ValueError`` describing the first violation.  Checks the
    subset of the trace-event format the viewers actually require:
    ``traceEvents`` list, per-event ``ph``/``pid``/``tid``/``name``,
    ``ts``+``dur`` on complete events, a scope on instants, numeric args
    on counters, and consistent thread naming.
    """
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise ValueError("traceEvents must be a non-empty list")
    tracks: Dict[Tuple[int, int], str] = {}
    for i, e in enumerate(events):
        if not isinstance(e, dict):
            raise ValueError(f"event {i} is not an object")
        ph = e.get("ph")
        if ph not in (_PH_COMPLETE, _PH_INSTANT, _PH_COUNTER, _PH_METADATA):
            raise ValueError(f"event {i}: unknown phase {ph!r}")
        for key in ("pid", "tid", "name"):
            if key not in e:
                raise ValueError(f"event {i}: missing {key!r}")
        if ph == _PH_METADATA:
            if e["name"] == "thread_name":
                tracks[(e["pid"], e["tid"])] = e["args"]["name"]
            continue
        ts = e.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise ValueError(f"event {i}: bad ts {ts!r}")
        if ph == _PH_COMPLETE:
            dur = e.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"event {i}: complete event with bad dur {dur!r}")
        if ph == _PH_INSTANT and e.get("s") not in ("t", "p", "g"):
            raise ValueError(f"event {i}: instant without scope")
        if ph == _PH_COUNTER:
            args = e.get("args")
            if not args or not all(
                isinstance(v, (int, float)) for v in args.values()
            ):
                raise ValueError(f"event {i}: counter without numeric args")
        if (e["pid"], e["tid"]) not in tracks:
            raise ValueError(f"event {i}: tid {e['tid']} has no thread_name")
    return list(tracks.values())
