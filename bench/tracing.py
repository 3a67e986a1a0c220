"""Outside-in host-time tracing for the benchmark's traced round.

The simulator carries no stage spans of its own, so the traced round
wraps the functions at each layer boundary from here.  Every
:class:`Site` names one module or class attribute *where the caller
looks it up*: functions bound at import (``apply_write_run`` inside
``repro.kernel.orchestrator``) are patched in the importing module,
functions imported lazily at call time (``repro.kernel.replay_vectorized``)
in the module they are imported from, and methods on the class that
defines them.  :class:`Instrumentation` installs the wrappers and puts
every original back when the round ends.

Spans are aggregated online per layer name into inclusive time (only
the outermost span of a name counts, so recursion is not double
counted), self time (the span minus the time its wrapped child spans
cover) and call counts.  A capped sample of the spans themselves is
kept in memory and written out as a Chrome trace-event document.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: Root span names the child process opens around setup and the round.
SETUP_SPAN = "bench.setup"
ROUND_SPAN = "bench.round"

#: Fallback reasons the kernels tag per request (single-device kernel:
#: ``gc-trigger``/``trim``/``negative-fp``; array epoch kernel:
#: ``array-coord-grant``, plus ``trim`` for its trim boundaries).
FALLBACK_REASONS = ("gc-trigger", "trim", "negative-fp", "array-coord-grant")


class SpanRecorder:
    """In-memory span store with online self-time aggregation."""

    def __init__(
        self, clock: Callable[[], float] = time.perf_counter, keep_per_name: int = 500
    ) -> None:
        self.clock = clock
        self.keep_per_name = keep_per_name
        self.t0 = clock()
        #: round id stamped on every kept span.
        self.round_id = 0
        self._stack: List[list] = []  # open spans: [name, start, covered]
        self._open: Dict[str, int] = defaultdict(int)
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        #: kept spans: (name, start, end, parent name, round id).
        self.spans: List[Tuple[str, float, float, Optional[str], int]] = []
        self._kept: Dict[str, int] = defaultdict(int)
        self.dropped: Dict[str, int] = defaultdict(int)

    def begin(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])
        self._open[name] += 1

    def end(self) -> float:
        """Close the innermost open span; returns its duration."""
        end = self.clock()
        name, start, covered = self._stack.pop()
        self._open[name] -= 1
        duration = end - start
        self.self_time[name] += duration - covered
        if not self._open[name]:
            self.inclusive[name] += duration
            self.calls[name] += 1
        parent = None
        if self._stack:
            self._stack[-1][2] += duration
            parent = self._stack[-1][0]
        if self._kept[name] < self.keep_per_name:
            self._kept[name] += 1
            self.spans.append((name, start, end, parent, self.round_id))
        else:
            self.dropped[name] += 1
        return duration

    @contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def to_chrome(self, track: str) -> dict:
        """Kept spans as a Chrome trace-event document (one thread)."""
        events = [
            {
                "ph": "M",
                "pid": 1,
                "tid": 1,
                "name": "thread_name",
                "args": {"name": track},
            }
        ]
        spans = sorted(self.spans, key=lambda s: s[1])
        for name, start, end, parent, round_id in spans:
            events.append(
                {
                    "ph": "X",
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "pid": 1,
                    "tid": 1,
                    "ts": (start - self.t0) * 1e6,
                    "dur": (end - start) * 1e6,
                    "args": {"parent": parent, "round": round_id},
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"dropped_spans": dict(self.dropped)},
        }

    def write_chrome(self, path, track: str) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(self.to_chrome(track), fp, separators=(",", ":"))


# ------------------------------------------------------------------ sites


def _count_sim_events(rec: SpanRecorder, args, kwargs, result) -> None:
    rec.count("sim.events", args[0].sim.events_processed)


def _count_batch(rec: SpanRecorder, requests: int) -> None:
    rec.count("kernel.batches")
    rec.count("kernel.batched_requests", requests)


def _count_fallback(rec: SpanRecorder, reason: str) -> None:
    rec.count(f"kernel.fallback_requests.{reason}")


@dataclass(frozen=True)
class Site:
    """One patch point: ``attr`` is ``name`` or ``Class.name`` in ``module``.

    ``kind`` is ``span`` (time the call), ``iter`` (time each step of
    the returned iterator) or ``count`` (call ``on_call`` with the
    arguments, no timing).  ``after`` runs on a span's return value.
    """

    module: str
    attr: str
    layer: str
    kind: str = "span"
    after: Optional[Callable] = None
    on_call: Optional[Callable] = None


_ORCH = "repro.kernel.orchestrator"
_EPOCH = "repro.kernel.arrayepoch"

SITES: Tuple[Site, ...] = (
    Site(
        "repro.device.ssd", "SSD.replay", "device.ref_replay", after=_count_sim_events
    ),
    Site("repro.runner.spec", "RunSpec.execute", "runner.execute"),
    Site("repro.runner.cache", "result_to_bytes", "runner.serialize"),
    Site("repro.runner.cache", "result_from_bytes", "runner.serialize"),
    Site("repro.runner.cache", "RunCache.get", "runner.cache"),
    Site("repro.runner.cache", "RunCache.put", "runner.cache"),
    Site("repro.experiments.registry", "run_experiment", "experiments.report"),
    Site("repro.workloads.fiu", "generate_trace", "workloads.generate"),
    Site("repro.workloads.synth", "generate_trace", "workloads.generate"),
    Site("repro.workloads.multiplex", "multiplex_traces", "workloads.multiplex"),
    Site("repro.workloads.trace", "Trace.iter_chunks", "workloads.ingest", kind="iter"),
    Site("repro.kernel", "replay_vectorized", "kernel.replay"),
    Site(_ORCH, "replay_vectorized", "kernel.replay"),
    Site(_EPOCH, "replay_vectorized", "kernel.replay"),
    Site(_ORCH, "apply_write_run", "kernel.write_apply"),
    Site(_EPOCH, "apply_write_run", "kernel.write_apply"),
    Site(_ORCH, "plan_inline_run", "kernel.inline_plan"),
    Site(_EPOCH, "plan_inline_run", "kernel.inline_plan"),
    Site(_ORCH, "apply_inline_run", "kernel.inline_apply"),
    Site(_EPOCH, "apply_inline_run", "kernel.inline_apply"),
    Site(
        _ORCH, "completion_recurrence", "kernel.batches", kind="count",
        on_call=lambda rec, args, kwargs: _count_batch(rec, len(args[0])),
    ),
    Site(
        _EPOCH, "_EpochRunner._commit_run", "kernel.batches", kind="count",
        on_call=lambda rec, args, kwargs: _count_batch(rec, args[3] - args[2]),
    ),
    Site(
        _ORCH, "_slow_request", "kernel.fallback", kind="count",
        on_call=lambda rec, args, kwargs: _count_fallback(rec, args[8]),
    ),
    Site(
        _EPOCH, "_EpochRunner._commit_scalar", "kernel.fallback", kind="count",
        on_call=lambda rec, args, kwargs: _count_fallback(rec, args[2]),
    ),
    Site(
        "repro.array.device", "SSDArray.replay", "array.replay",
        after=_count_sim_events,
    ),
    Site(_EPOCH, "replay_array_vectorized", "array.epoch"),
    Site(_EPOCH, "split_epoch_streams", "array.split"),
    Site(_EPOCH, "ncq_occupancy", "array.ncq"),
    *(
        Site("repro.array.coord", f"{cls}.{method}", "array.coord")
        for cls, methods in (
            ("GCCoordinator", ("foreground_gc", "on_idle", "on_collection_done")),
            ("StaggeredCoordinator", ("foreground_gc", "on_idle", "on_window")),
            ("TokenCoordinator", ("foreground_gc", "on_idle", "on_collection_done")),
        )
        for method in methods
    ),
    Site("repro.schemes.base", "FTLScheme.run_gc", "ftl.run_gc"),
    Site("repro.schemes.base", "FTLScheme.write_request", "ftl.write_request"),
    Site("repro.schemes.base", "FTLScheme.trim_request", "ftl.trim_request"),
    Site(
        "repro.schemes.lba_hotcold", "LBAHotColdScheme.trim_request",
        "ftl.trim_request",
    ),
    Site("repro.obs.metrics", "DeviceMetrics.on_batch", "obs.fold"),
    Site("repro.obs.metrics", "ArrayMetrics.on_array_batch", "obs.fold"),
    Site("repro.obs.metrics", "DeviceMetrics.snapshot", "obs.snapshot"),
    Site("repro.metrics.latency", "LatencyRecorder.record_many", "metrics.record_many"),
)


def _resolve(site: Site):
    """``(owner, name, original)`` for a site; raises when it is gone."""
    owner = importlib.import_module(site.module)
    path = site.attr.split(".")
    for part in path[:-1]:
        owner = getattr(owner, part)
    name = path[-1]
    if isinstance(owner, type):
        # The class's own entry, so an inherited method is never
        # shadowed and the restore writes back exactly what was there.
        return owner, name, owner.__dict__[name]
    return owner, name, getattr(owner, name)


def _wrap(rec: SpanRecorder, site: Site, original):
    layer = site.layer
    if site.kind == "count":
        on_call = site.on_call

        @functools.wraps(original)
        def counted(*args, **kwargs):
            on_call(rec, args, kwargs)
            return original(*args, **kwargs)

        return counted
    if site.kind == "iter":

        @functools.wraps(original)
        def iterated(*args, **kwargs):
            inner = iter(original(*args, **kwargs))
            while True:
                rec.begin(layer)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    rec.end()
                yield item

        return iterated
    after = site.after

    @functools.wraps(original)
    def timed(*args, **kwargs):
        rec.begin(layer)
        try:
            result = original(*args, **kwargs)
        finally:
            rec.end()
        if after is not None:
            after(rec, args, kwargs, result)
        return result

    return timed


class Instrumentation:
    """Context manager: wrap every site for the duration of the block.

    Sites that no longer exist are skipped and listed in ``missing`` so
    a refactor of the program degrades the trace instead of breaking
    the benchmark; the bench tests pin that none is missing.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.missing: List[str] = []
        self._undo: List[tuple] = []

    def __enter__(self) -> "Instrumentation":
        for site in SITES:
            try:
                owner, name, original = _resolve(site)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{site.module}.{site.attr}")
                continue
            setattr(owner, name, _wrap(self.recorder, site, original))
            self._undo.append((owner, name, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


# ------------------------------------------------------------ per layer

#: Layer metrics reported from the traced round, named ``<layer>.<field>``:
#: ``self_s`` (self seconds), ``s`` (inclusive seconds) or ``calls``.
LAYER_FIELDS: Tuple[Tuple[str, str], ...] = (
    ("device.ref_replay", "self_s"),
    ("runner.execute", "self_s"),
    ("runner.serialize", "self_s"),
    ("runner.cache", "self_s"),
    ("experiments.report", "self_s"),
    ("workloads.generate", "self_s"),
    ("workloads.multiplex", "self_s"),
    ("workloads.ingest", "self_s"),
    ("kernel.replay", "self_s"),
    ("kernel.write_apply", "s"),
    ("kernel.inline_plan", "s"),
    ("kernel.inline_apply", "s"),
    ("array.replay", "self_s"),
    ("array.epoch", "self_s"),
    ("array.split", "s"),
    ("array.ncq", "s"),
    ("array.coord", "calls"),
    ("ftl.run_gc", "s"),
    ("ftl.run_gc", "calls"),
    ("ftl.write_request", "s"),
    ("ftl.trim_request", "s"),
    ("ftl.trim_request", "calls"),
    ("obs.fold", "s"),
    ("obs.fold", "calls"),
    ("obs.snapshot", "s"),
    ("metrics.record_many", "s"),
)


def layer_metrics(rec: SpanRecorder) -> Dict[str, float]:
    """Every per-layer host metric of one traced child, by name.

    Spans recorded during setup count too: the only layer that runs
    there is ``workloads.generate`` (the ``stream-trim`` trace), which
    the layer table maps to ``setup_s``.
    """
    fields = {"self_s": rec.self_time, "s": rec.inclusive, "calls": rec.calls}
    out: Dict[str, float] = {
        f"{layer}.{field}": float(fields[field].get(layer, 0.0))
        for layer, field in LAYER_FIELDS
    }
    batches = rec.counts.get("kernel.batches", 0.0)
    batched = rec.counts.get("kernel.batched_requests", 0.0)
    fallbacks = {
        reason: rec.counts.get(f"kernel.fallback_requests.{reason}", 0.0)
        for reason in FALLBACK_REASONS
    }
    fallback_total = sum(fallbacks.values())
    out["kernel.batches"] = batches
    out["kernel.batch_mean_requests"] = batched / batches if batches else 0.0
    out["kernel.fallback_frac"] = (
        fallback_total / (batched + fallback_total) if fallback_total else 0.0
    )
    for reason, value in fallbacks.items():
        out[f"kernel.fallback_requests.{reason}"] = value
    out["sim.events"] = rec.counts.get("sim.events", 0.0)
    round_wall = rec.inclusive.get(ROUND_SPAN, 0.0)
    out["bench.unattributed_frac"] = (
        rec.self_time.get(ROUND_SPAN, 0.0) / round_wall if round_wall else 0.0
    )
    return out
