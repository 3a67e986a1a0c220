"""Fig 2 — inline dedup degrades ULL SSD response time.

The paper's motivation experiment: on a Samsung Z-NAND device (light
utilization, GC quiet — a preliminary microbenchmark, not the GC-churn
setup of Figs 9-12), adding inline dedup raises response latency by up
to 71.9 % (average 43.1 %) because every write pays hash + lookup
serially before the (very fast) flash program.

We reproduce it by replaying short traces on a mostly-empty device so
GC never triggers: the measured overhead is then purely the
deduplication critical-path cost.  The GC-quiet regime is expressed as
``trace_overrides`` on the shared :class:`~repro.runner.RunSpec`, so
the runs participate in the persistent cache and ``--jobs`` prewarm.
"""

from __future__ import annotations

from typing import List

from repro.experiments.common import ExperimentReport, Runs, grouped
from repro.runner import RunSpec, freeze_overrides

#: Fig 2 uses Homes, Webmail and Mail.
FIG2_WORKLOADS = ("homes", "webmail", "mail")

#: normalized Inline-Dedupe response times eyeballed from the paper's
#: Fig 2 bars (Baseline = 1.0).
PAPER_NORMALIZED = {"homes": 1.7, "webmail": 1.5, "mail": 1.3}

#: Light-utilization regime: short trace (half-fill), small LPN
#: footprint -> the device never reaches the GC watermark.
GC_QUIET = freeze_overrides(fill_factor=0.5, lpn_utilization=0.5)


def fig2_specs(scale: str) -> List[RunSpec]:
    return [
        RunSpec(workload=workload, scheme=scheme, scale=scale,
                trace_overrides=GC_QUIET)
        for workload in FIG2_WORKLOADS
        for scheme in ("baseline", "inline-dedupe")
    ]


def report(runs: Runs, scale: str) -> ExperimentReport:
    rows = []
    data = {}
    for workload, (baseline, inline_dedupe) in zip(FIG2_WORKLOADS, grouped(runs, 2)):
        base = baseline.latency.mean_us
        inline = inline_dedupe.latency.mean_us
        normalized = inline / base if base else 0.0
        rows.append(
            (
                workload,
                1.0,
                round(normalized, 3),
                round(PAPER_NORMALIZED[workload], 2),
                f"{base:.1f}us",
                f"{inline:.1f}us",
            )
        )
        data[workload] = {
            "baseline_mean_us": base,
            "inline_mean_us": inline,
            "normalized": normalized,
            "gc_bursts_baseline": baseline.gc.gc_invocations,
        }
    increases = [d["normalized"] - 1.0 for d in data.values()]
    data["max_increase_pct"] = 100.0 * max(increases)
    data["avg_increase_pct"] = 100.0 * sum(increases) / len(increases)
    return ExperimentReport(
        experiment_id="fig2",
        title="Normalized response time with inline dedup (GC-quiet device)",
        headers=(
            "Workload",
            "Baseline",
            "Inline (ours)",
            "Inline (paper)",
            "Base mean",
            "Inline mean",
        ),
        rows=rows,
        paper_claim="inline dedup raises latency up to 71.9%, 43.1% on average",
        notes=(
            f"measured: max +{data['max_increase_pct']:.1f}%, "
            f"avg +{data['avg_increase_pct']:.1f}%"
        ),
        data=data,
    )
