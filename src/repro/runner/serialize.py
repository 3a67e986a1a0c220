"""Schema-versioned serialization of :class:`~repro.device.ssd.RunResult`.

A ``RunResult`` mixes plain dataclasses (latency summary, GC/IO
counters, wear stats, optional write-buffer stats) with a NumPy array
of raw per-request response times, so it is stored as an ``.npz``
archive: the array verbatim plus one JSON metadata entry.  JSON floats
round-trip exactly (shortest-repr), so a load reproduces the result
bit-for-bit — the property the runner's determinism tests pin.

``SCHEMA_VERSION`` is folded into every cache key (see
:meth:`repro.runner.spec.RunSpec.key`); bumping it therefore invalidates
all previously cached results instead of misreading them.  Loads also
verify the version embedded in the file and raise
:class:`SchemaMismatchError` on disagreement (e.g. a cache directory
shared between checkouts).
"""

from __future__ import annotations

import io
import json
from typing import Optional

import numpy as np

from repro.device.writebuffer import WriteBufferStats
from repro.metrics.counters import GCCounters, IOCounters
from repro.metrics.latency import LatencySummary
from repro.ftl.wear import WearStats

#: Bump on any incompatible change to the stored result layout.
#: v2: GCCounters gained per-phase busy-time fields (gc_read_us, ...).
#: v3: array results (kind="array": per-device results + SLO histograms).
#: v4: optional metrics snapshot (final values + columnar time series).
#: v5: per-device kernel GC stats on array results.
#: v6: independent-array metrics count the lanes' kernel fallbacks.
#: v7: TRIMs ride kernel runs (no "trim" fallback reason; fewer batches).
#: v8: kernel GC stats move from array results onto every run result.
#: v9: channel-parallel runs carry a metrics snapshot too.
#: v10: bulk-scheme kernel GC stats drop their negative-fingerprint key.
#: v11: plain-copy kernel GC stats drop their shared-or-canonical key.
SCHEMA_VERSION = 11


class SchemaMismatchError(RuntimeError):
    """A stored result was written under a different schema version."""


def _run_result_meta(result) -> dict:
    return {
        "scheme": result.scheme,
        "trace": result.trace,
        "latency": result.latency.as_dict(),
        "gc": vars(result.gc).copy(),
        "io": vars(result.io).copy(),
        "wear": {
            "total_erases": result.wear.total_erases,
            "max_erase": result.wear.max_erase,
            "mean_erase": result.wear.mean_erase,
            "std_erase": result.wear.std_erase,
        },
        "simulated_us": result.simulated_us,
        "buffer": vars(result.buffer).copy() if result.buffer is not None else None,
        "kernel_gc": dict(result.kernel_gc),
    }


def _run_result_from(meta: dict, samples: np.ndarray):
    from repro.device.ssd import RunResult  # circular at import time

    buffer: Optional[WriteBufferStats] = None
    if meta["buffer"] is not None:
        buffer = WriteBufferStats(**meta["buffer"])
    return RunResult(
        scheme=meta["scheme"],
        trace=meta["trace"],
        latency=LatencySummary(**meta["latency"]),
        response_times_us=samples,
        gc=GCCounters(**meta["gc"]),
        io=IOCounters(**meta["io"]),
        wear=WearStats(**meta["wear"]),
        simulated_us=meta["simulated_us"],
        buffer=buffer,
        kernel_gc=meta["kernel_gc"],
    )


def _metrics_meta(snapshot) -> Optional[dict]:
    """JSON side of a metrics snapshot (floats round-trip exactly);
    the series columns are named here and stored as npz arrays —
    ``metrics_col_{i}`` — because sample ids carry characters (braces,
    quotes) that do not belong in zip member names."""
    if snapshot is None:
        return None
    return {
        "values": snapshot.values,
        "interval_us": snapshot.interval_us,
        "columns": list(snapshot.series),
    }


def _metrics_arrays(snapshot) -> dict:
    if snapshot is None:
        return {}
    arrays = {"metrics_times_us": np.ascontiguousarray(snapshot.times_us)}
    for i, name in enumerate(snapshot.series):
        arrays[f"metrics_col_{i}"] = np.ascontiguousarray(snapshot.series[name])
    return arrays


def _metrics_from_archive(meta: Optional[dict], archive):
    if meta is None:
        return None
    from repro.obs.metrics import MetricsSnapshot

    return MetricsSnapshot(
        values=meta["values"],
        times_us=archive["metrics_times_us"].copy(),
        series={
            name: archive[f"metrics_col_{i}"].copy()
            for i, name in enumerate(meta["columns"])
        },
        interval_us=meta["interval_us"],
    )


def result_to_bytes(result) -> bytes:
    """Serialize a ``RunResult`` or ``ArrayResult`` to ``.npz`` bytes."""
    from repro.array.device import ArrayResult

    if isinstance(result, ArrayResult):
        return _array_result_to_bytes(result)
    meta = {"schema": SCHEMA_VERSION, "kind": "run", **_run_result_meta(result)}
    meta["metrics"] = _metrics_meta(result.metrics)
    buf = io.BytesIO()
    np.savez_compressed(
        buf,
        response_times_us=np.ascontiguousarray(result.response_times_us),
        meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
        **_metrics_arrays(result.metrics),
    )
    return buf.getvalue()


def _array_result_to_bytes(result) -> bytes:
    meta = {
        "schema": SCHEMA_VERSION,
        "kind": "array",
        "coordination": result.coordination,
        "trace": result.trace,
        "tenants": result.tenants,
        "simulated_us": result.simulated_us,
        "ncq_depth": result.ncq_depth,
        "ncq_peaks": list(result.ncq_peaks),
        "ncq_held": list(result.ncq_held),
        "coord_stats": result.coord_stats,
        "kernel_fallback_reason": result.kernel_fallback_reason,
        "devices": [_run_result_meta(r) for r in result.devices],
        "metrics": _metrics_meta(result.metrics),
    }
    arrays = {
        f"device_{i}_response_times_us": np.ascontiguousarray(
            r.response_times_us
        )
        for i, r in enumerate(result.devices)
    }
    arrays.update(_metrics_arrays(result.metrics))
    for family, packed in result.telemetry.to_arrays().items():
        for field, values in packed.items():
            arrays[f"tele_{family}_{field}"] = np.ascontiguousarray(values)
    buf = io.BytesIO()
    np.savez_compressed(
        buf,
        meta=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
        **arrays,
    )
    return buf.getvalue()


def result_from_bytes(payload: bytes):
    """Reconstruct a result from :func:`result_to_bytes` output."""
    with np.load(io.BytesIO(payload)) as archive:
        meta = json.loads(archive["meta"].tobytes().decode("utf-8"))
        if meta.get("schema") != SCHEMA_VERSION:
            raise SchemaMismatchError(
                f"stored schema {meta.get('schema')!r} != current {SCHEMA_VERSION}"
            )
        if meta.get("kind", "run") == "array":
            return _array_result_from_archive(meta, archive)
        samples = archive["response_times_us"].copy()
        metrics = _metrics_from_archive(meta.get("metrics"), archive)
    result = _run_result_from(meta, samples)
    if metrics is not None:
        import dataclasses as dc

        result = dc.replace(result, metrics=metrics)
    return result


def _array_result_from_archive(meta: dict, archive):
    from repro.array.device import ArrayResult
    from repro.array.telemetry import ArrayTelemetry

    devices = tuple(
        _run_result_from(
            device_meta, archive[f"device_{i}_response_times_us"].copy()
        )
        for i, device_meta in enumerate(meta["devices"])
    )
    telemetry = ArrayTelemetry.from_arrays(
        {
            family: {
                field: archive[f"tele_{family}_{field}"]
                for field in ("counts", "total", "sum_us", "max_us")
            }
            for family in ("global", "device", "tenant")
        }
    )
    return ArrayResult(
        coordination=meta["coordination"],
        trace=meta["trace"],
        devices=devices,
        tenants=meta["tenants"],
        telemetry=telemetry,
        simulated_us=meta["simulated_us"],
        ncq_depth=meta["ncq_depth"],
        ncq_peaks=tuple(meta["ncq_peaks"]),
        ncq_held=tuple(meta["ncq_held"]),
        coord_stats=meta["coord_stats"],
        kernel_fallback_reason=meta["kernel_fallback_reason"],
        metrics=_metrics_from_archive(meta.get("metrics"), archive),
    )
