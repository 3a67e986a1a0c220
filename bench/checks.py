"""Output checks: every failed check counts the round it ran in as failed.

* Every round's simulated digest (:func:`result_digest`) must equal the
  first round's (``run.py`` compares them across its children).
  Children run with a random ``PYTHONHASHSEED``, so this also checks
  that results do not depend on the hash seed.
* Requests completed must equal the trace length (:func:`completed`);
  on an array the per-tenant counts must partition the global count
  (:func:`tenant_partition`).
* ``figures`` must render every report (:func:`reports_nonempty`).
* After the traced round the kernel contract is cross-checked: the
  vectorized kernels must replay bit-identically to the reference loop
  (:func:`kernels_agree`, :func:`digests_agree`).

Each check returns a list of failure messages, empty when it passes.
"""

from __future__ import annotations

import hashlib
from typing import List, Sequence


def device_runs(result) -> Sequence:
    """The per-device runs of a ``RunResult`` (itself) or an ``ArrayResult``."""
    devices = getattr(result, "devices", None)
    return (result,) if devices is None else devices


def result_digest(results: Sequence) -> str:
    """sha256 over every run's counters and response-time trajectory
    (or its latency summary when samples were not kept)."""
    h = hashlib.sha256()
    for result in results:
        for run in device_runs(result):
            h.update(repr((run.gc, run.io, run.wear, run.simulated_us)).encode())
            samples = run.response_times_us
            h.update(samples.tobytes() if len(samples) else repr(run.latency).encode())
        if hasattr(result, "ncq_peaks"):
            stats = sorted(result.coord_stats.items())
            h.update(repr((result.ncq_peaks, result.ncq_held, stats)).encode())
    return h.hexdigest()


def completed(label: str, done: int, expected: int) -> List[str]:
    if done == expected:
        return []
    return [f"{label}: {done} requests completed, trace has {expected}"]


def tenant_partition(label: str, result, tenant_lengths: Sequence[int]) -> List[str]:
    """Per-tenant and per-device counts must both partition the total."""
    tenants = [hist.total for hist in result.telemetry.tenant_hists]
    devices = [run.latency.count for run in result.devices]
    failures = completed(label, result.requests_completed, sum(tenant_lengths))
    if tenants != list(tenant_lengths):
        failures.append(
            f"{label}: tenant counts {tenants} != tenant traces {list(tenant_lengths)}"
        )
    if sum(devices) != result.requests_completed:
        failures.append(
            f"{label}: device counts {devices} do not sum to "
            f"{result.requests_completed}"
        )
    return failures


def reports_nonempty(ids: Sequence[str], reports: Sequence[str]) -> List[str]:
    failures = [
        f"report {eid} is empty" for eid, text in zip(ids, reports) if not text.strip()
    ]
    if len(reports) != len(ids):
        failures.append(f"{len(reports)} reports for {len(ids)} experiments")
    return failures


def kernels_agree(
    label: str, trace, scheme: str, config, metrics: bool = False
) -> List[str]:
    """``repro.oracle.diff_kernels``: reference vs vectorized replay
    (with ``metrics``, each carrying the runner's metrics bundle)."""
    # Imported here so the oracle stays out of every child's setup_s.
    from repro.oracle import diff_kernels

    divergence = diff_kernels(trace, scheme=scheme, config=config, metrics=metrics)
    return [] if divergence is None else [f"{label}: kernels diverge: {divergence}"]


def digests_agree(label: str, reference: str, vectorized: str) -> List[str]:
    if reference == vectorized:
        return []
    return [
        f"{label}: reference digest {reference[:12]} != vectorized {vectorized[:12]}"
    ]
