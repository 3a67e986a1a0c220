"""Structured run observability: tracing, telemetry, logging.

The simulator's core claim is a *timing-overlap* claim — CAGC hides the
fingerprint cost inside erase windows — so end-of-run aggregates are not
enough to trust it.  This package adds the instrumentation layer the
rest of the stack threads through:

* :class:`Tracer` (``repro.obs.trace``) — typed spans and instant events
  in simulated-time coordinates, one track per pipeline resource
  (foreground I/O, GC phases, each hash lane), exportable as JSONL or
  Chrome trace-event JSON loadable in Perfetto / ``chrome://tracing``;
* :class:`LatencyHistogram` (``repro.obs.telemetry``) — fixed-bucket
  latency percentiles without storing every sample;
* :mod:`repro.obs.log` — the one logger the CLI and scripts share
  (``--quiet`` / ``--verbose``);
* :class:`Heartbeat` (``repro.obs.heartbeat``) — wall-clock progress
  lines (sim time, events/sec, rolling ops/s, GC collects, ETA) to
  stderr for long replays;
* :class:`DeviceMetrics` / :class:`ArrayMetrics` (``repro.obs.metrics``)
  — the unified metrics registry: typed Counter/Gauge/Histogram handles
  resolved once at attach time, per-device/per-tenant label dimensions,
  a simulated-time :class:`~repro.obs.series.TimeSeriesRecorder`, and
  on top of it the exporters (``repro.obs.export``), declarative SLO
  monitors with burn-rate evaluation (``repro.obs.slo``) and cross-run
  regression diffing (``repro.obs.compare``).

Every instrumentation site in the hot path is a single
``if tracer is not None`` predicated call, so a run without a tracer
pays one attribute test per site and nothing more — the property the
``benchguard`` overhead test pins against ``BENCH_throughput.json``.
"""

from repro.obs.compare import compare_snapshots
from repro.obs.export import prometheus_text, series_csv, series_jsonl
from repro.obs.heartbeat import Heartbeat
from repro.obs.metrics import (
    ArrayMetrics,
    DeviceMetrics,
    MetricsRegistry,
    MetricsSnapshot,
)
from repro.obs.series import TimeSeriesRecorder
from repro.obs.slo import SLObjective, default_objectives, evaluate_slos
from repro.obs.telemetry import LatencyHistogram
from repro.obs.trace import (
    TRACK_GC,
    TRACK_GC_READ,
    TRACK_GC_WRITE,
    TRACK_IO,
    TRACK_KERNEL,
    TraceEvent,
    Tracer,
    hash_lane_track,
    validate_chrome_trace,
)

__all__ = [
    "ArrayMetrics",
    "DeviceMetrics",
    "Heartbeat",
    "LatencyHistogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "SLObjective",
    "TimeSeriesRecorder",
    "compare_snapshots",
    "default_objectives",
    "evaluate_slos",
    "prometheus_text",
    "series_csv",
    "series_jsonl",
    "TRACK_GC",
    "TRACK_GC_READ",
    "TRACK_GC_WRITE",
    "TRACK_IO",
    "TRACK_KERNEL",
    "TraceEvent",
    "Tracer",
    "hash_lane_track",
    "validate_chrome_trace",
]
