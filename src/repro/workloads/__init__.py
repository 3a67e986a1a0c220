"""Workloads: request/trace containers, synthetic FIU-like generation."""

from repro.workloads.request import IORequest, OpKind
from repro.workloads.trace import Trace, TraceError, TraceStats
from repro.workloads.synth import TraceSpec, generate_trace
from repro.workloads.fiu import (
    FIU_PRESETS,
    MAIL,
    HOMES,
    WEB_VM,
    WEBMAIL,
    build_fiu_trace,
)
from repro.workloads.filemodel import FileStore, FileModelTrace
from repro.workloads.multiplex import (
    MultiplexedTrace,
    TenantPlacement,
    demultiplex_lpns,
    multiplex_traces,
    tenant_layout,
)

__all__ = [
    "IORequest",
    "OpKind",
    "Trace",
    "TraceError",
    "TraceStats",
    "TraceSpec",
    "generate_trace",
    "FIU_PRESETS",
    "MAIL",
    "HOMES",
    "WEB_VM",
    "WEBMAIL",
    "build_fiu_trace",
    "FileStore",
    "FileModelTrace",
    "MultiplexedTrace",
    "TenantPlacement",
    "demultiplex_lpns",
    "multiplex_traces",
    "tenant_layout",
]
