"""Array tail latency vs. GC-coordination policy.

The serving-tier question behind the array tier: on a multi-tenant
SSD array where every device garbage-collects under the same pressure,
how much array-wide tail latency comes purely from GC being
*unsynchronized*?  With independent per-device GC a tenant's request
stream keeps landing on whichever device happens to be mid-collection,
so the p999 inflates even though every single device behaves exactly
like its solo run.  Staggering collection windows round-robin across
devices (or serializing bulk GC behind a global token) bounds how many
devices stall at once and pulls the tail back in.

One run per coordination policy, same workload, same seeds, same
per-device GC stress (the runner scales per-tenant traces so each
device sees the pressure of a single-device run).  Reported per policy:
array-wide p99/p999, the worst per-tenant p999, and the tail inflation
relative to the best coordinated policy.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.common import ExperimentReport, Runs, get_scale, results_by
from repro.runner import RunSpec

COORDINATIONS = ("independent", "staggered", "global-token")

#: The committed scenario: 4 tenants on 4 devices, moderate NCQ window.
DEVICES = 4
TENANTS = 4
NCQ_DEPTH = 16


def array_tail_specs(scale: str = "bench") -> Sequence[RunSpec]:
    """The spec fan-out: one array run per coordination policy."""
    get_scale(scale)  # fail fast on unknown scale
    return tuple(
        RunSpec(
            workload="mail",
            scheme="cagc",
            scale=scale,
            array_devices=DEVICES,
            tenants=TENANTS,
            gc_coord=coordination,
            ncq_depth=NCQ_DEPTH,
        )
        for coordination in COORDINATIONS
    )


def report(runs: Runs, scale: str) -> ExperimentReport:
    results = results_by(runs, "gc_coord")
    coordinated_p999 = min(
        results[c].percentile(99.9) for c in COORDINATIONS if c != "independent"
    )
    rows = []
    data: dict = {"p99": {}, "p999": {}, "worst_tenant_p999": {}, "inflation": {}}
    for coordination in COORDINATIONS:
        result = results[coordination]
        p99 = result.percentile(99.0)
        p999 = result.percentile(99.9)
        worst_tenant = max(
            values[-1] for _, values in result.telemetry.tenant_percentiles()
        )
        inflation = p999 / coordinated_p999 if coordinated_p999 > 0 else 1.0
        rows.append(
            (
                coordination,
                f"{p99:.0f}us",
                f"{p999:.0f}us",
                f"{worst_tenant:.0f}us",
                f"{inflation:.2f}x",
            )
        )
        data["p99"][coordination] = p99
        data["p999"][coordination] = p999
        data["worst_tenant_p999"][coordination] = worst_tenant
        data["inflation"][coordination] = inflation
    return ExperimentReport(
        experiment_id="array-tail",
        title=(
            f"Array-wide tail latency vs GC coordination "
            f"({DEVICES} devices, {TENANTS} tenants, mail/cagc)"
        ),
        headers=(
            "Coordination",
            "p99",
            "p999",
            "Worst tenant p999",
            "Tail vs coordinated",
        ),
        rows=rows,
        paper_claim=(
            "Unsynchronized per-device GC inflates array-wide p999; "
            "staggered windows or a global GC token bound concurrent "
            "stalls and restore the tail"
        ),
        data=data,
    )
