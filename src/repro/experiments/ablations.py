"""Ablations beyond the paper — the design knobs DESIGN.md calls out.

* **A1 threshold** — sweep the cold-region reference-count threshold.
* **A2 placement** — CAGC with hot/cold placement disabled (dedup-only)
  versus full CAGC: how much of the win is placement vs GC-time dedup?
* **A3 hash latency** — sweep the hash engine's latency and find where
  inline dedup stops hurting a ULL device (the paper's motivation says
  never, for realistic SHA latencies).
* **A4 OP space** — over-provisioning sensitivity of the CAGC win.

Every ablation is a ``*_specs`` fan-out of
:class:`~repro.runner.RunSpec` work units plus a ``*_report`` builder
that reads their results in declaration order (:data:`EXPERIMENTS`
pairs them), so results land in the shared persistent cache; sweep
points that coincide with the config defaults reuse the plain specs
behind Figs 9-13.
"""

from __future__ import annotations

from typing import Dict, List

from repro.experiments.common import (
    Experiment,
    ExperimentReport,
    Runs,
    grouped,
    reduction_vs_baseline,
)
from repro.experiments.fig2_inline_overhead import GC_QUIET
from repro.runner import RunSpec, freeze_overrides

#: Ablations run on the workload where each knob matters most.
ABLATION_WORKLOAD = "mail"

#: A1 sweep points (2 is the config default: any shared page is cold).
THRESHOLDS = (2, 3, 4, 8)
#: A3 sweep points (14 us is the paper's firmware SHA).
HASH_LATENCIES_US = (0.0, 2.0, 7.0, 14.0, 28.0)
#: A4 sweep points (0.07 is the config default).
OP_RATIOS = (0.07, 0.15, 0.25)
#: A7 sweep points (0 = no buffer, the default).
BUFFER_PAGES = (0, 256, 1024, 4096)
#: A9 sweep points (the scales default to 4 channels).
CHANNEL_COUNTS = (1, 2, 4, 8)


def threshold_specs(scale: str) -> List[RunSpec]:
    return [RunSpec(workload=ABLATION_WORKLOAD, scheme="baseline", scale=scale)] + [
        RunSpec(
            workload=ABLATION_WORKLOAD, scheme="cagc", scale=scale,
            config_overrides=freeze_overrides(cold_threshold=t) if t != 2 else (),
        )
        for t in THRESHOLDS
    ]


def threshold_report(runs: Runs, scale: str) -> ExperimentReport:
    """A1: cold threshold sweep (refcount >= t goes cold)."""
    base, *swept = runs.values()
    rows = []
    data = {}
    for threshold, result in zip(THRESHOLDS, swept):
        r_erased = reduction_vs_baseline(base.blocks_erased, result.blocks_erased)
        r_migr = reduction_vs_baseline(base.pages_migrated, result.pages_migrated)
        rows.append((threshold, result.blocks_erased, f"{r_erased:.1f}%", f"{r_migr:.1f}%"))
        data[threshold] = {
            "blocks_erased": result.blocks_erased,
            "erase_reduction_pct": r_erased,
            "migration_reduction_pct": r_migr,
        }
    return ExperimentReport(
        experiment_id="ablation-threshold",
        title=f"Cold-region refcount threshold sweep ({ABLATION_WORKLOAD})",
        headers=("Threshold", "Blocks erased", "Erase cut", "Migration cut"),
        rows=rows,
        notes="paper uses 'e.g., 1' (our threshold=2: any shared page is cold)",
        data=data,
    )


_NO_PLACEMENT = freeze_overrides(placement="never-cold")


def placement_specs(scale: str) -> List[RunSpec]:
    return [
        RunSpec(workload=workload, scheme=scheme, scale=scale, scheme_options=options)
        for workload in ("homes", "mail")
        for scheme, options in (("baseline", ()), ("cagc", ()), ("cagc", _NO_PLACEMENT))
    ]


def placement_report(runs: Runs, scale: str) -> ExperimentReport:
    """A2: full CAGC vs dedup-only CAGC (no hot/cold separation)."""
    rows = []
    data = {}
    for workload, (base, full, dedup_only) in zip(("homes", "mail"), grouped(runs, 3)):
        r_full = reduction_vs_baseline(base.pages_migrated, full.pages_migrated)
        r_dedup = reduction_vs_baseline(base.pages_migrated, dedup_only.pages_migrated)
        e_full = reduction_vs_baseline(base.blocks_erased, full.blocks_erased)
        e_dedup = reduction_vs_baseline(base.blocks_erased, dedup_only.blocks_erased)
        rows.append(
            (workload, f"{r_dedup:.1f}%", f"{r_full:.1f}%", f"{e_dedup:.1f}%", f"{e_full:.1f}%")
        )
        data[workload] = {
            "dedup_only_migration_cut_pct": r_dedup,
            "full_migration_cut_pct": r_full,
            "dedup_only_erase_cut_pct": e_dedup,
            "full_erase_cut_pct": e_full,
        }
    return ExperimentReport(
        experiment_id="ablation-placement",
        title="Dedup-only CAGC vs full CAGC (with refcount placement)",
        headers=("Workload", "Migr cut (dedup)", "Migr (full)", "Erase (dedup)", "Erase (full)"),
        rows=rows,
        notes=(
            "in this trace model the placement delta is small — GC-time "
            "dedup itself provides nearly all of CAGC's win, because the "
            "deduplicated cold set is compact; see EXPERIMENTS.md"
        ),
        data=data,
    )


def hash_latency_specs(scale: str) -> List[RunSpec]:
    return [
        RunSpec(
            workload="homes", scheme=scheme, scale=scale,
            config_overrides=freeze_overrides({"timing.hash_us": hash_us}),
            trace_overrides=GC_QUIET,
        )
        for hash_us in HASH_LATENCIES_US
        for scheme in ("baseline", "inline-dedupe")
    ]


def hash_latency_report(runs: Runs, scale: str) -> ExperimentReport:
    """A3: where does inline dedup stop hurting? (GC-quiet regime)"""
    rows = []
    data = {}
    for hash_us, (base, inline) in zip(HASH_LATENCIES_US, grouped(runs, 2)):
        normalized = (
            inline.latency.mean_us / base.latency.mean_us
            if base.latency.mean_us
            else 0.0
        )
        rows.append((f"{hash_us:g}us", f"{normalized:.3f}"))
        data[hash_us] = normalized
    return ExperimentReport(
        experiment_id="ablation-hash-latency",
        title="Inline-Dedupe normalized response vs hash latency (homes, GC-quiet)",
        headers=("Hash latency", "Inline/Baseline"),
        rows=rows,
        notes=(
            "at 0 us the schemes tie (a hash coprocessor would close the "
            "gap); at SHA-class latencies inline dedup hurts a ULL device"
        ),
        data=data,
    )


def channels_specs(scale: str) -> List[RunSpec]:
    return [
        RunSpec(
            workload="homes", scheme="cagc", scale=scale,
            config_overrides=freeze_overrides({"geometry.channels": channels}),
            device="parallel",
        )
        for channels in CHANNEL_COUNTS
    ]


def channels_report(runs: Runs, scale: str) -> ExperimentReport:
    """A9: channel-level parallelism (related work: parallel GC, SC'16).

    Replays homes on the channel-parallel controller with 1/2/4/8
    channels: queueing delay falls with channel count and GC bursts
    stall only their own channel.
    """
    rows = []
    data = {}
    for channels, result in zip(CHANNEL_COUNTS, runs.values()):
        rows.append(
            (
                channels,
                f"{result.latency.mean_us:.0f}us",
                f"{result.latency.p99_us:.0f}us",
                result.blocks_erased,
            )
        )
        data[channels] = {
            "mean_us": result.latency.mean_us,
            "p99_us": result.latency.p99_us,
            "blocks_erased": result.blocks_erased,
        }
    return ExperimentReport(
        experiment_id="ablation-channels",
        title="Channel-parallel controller: channel-count sweep (homes, CAGC)",
        headers=("Channels", "Mean resp", "p99", "Erases"),
        rows=rows,
        notes="GC stalls one channel; the rest keep serving (parallel-GC effect)",
        data=data,
    )


_HOT_FIRST = freeze_overrides(prefer_hot_victims=True)


def hot_victims_specs(scale: str) -> List[RunSpec]:
    return [
        RunSpec(workload=ABLATION_WORKLOAD, scheme="cagc", policy=policy, scale=scale,
                scheme_options=options)
        for policy in ("greedy", "cost-benefit")
        for options in ((), _HOT_FIRST)
    ]


def hot_victims_report(runs: Runs, scale: str) -> ExperimentReport:
    """A8: hot-first victim preference (section III-C's 'desirable
    candidates') on top of each base victim policy."""
    rows = []
    data = {}
    for policy_name, (plain, hot_first) in zip(
        ("greedy", "cost-benefit"), grouped(runs, 2)
    ):
        rows.append(
            (
                policy_name,
                plain.pages_migrated,
                hot_first.pages_migrated,
                plain.blocks_erased,
                hot_first.blocks_erased,
            )
        )
        data[policy_name] = {
            "plain_migrated": plain.pages_migrated,
            "hot_first_migrated": hot_first.pages_migrated,
            "plain_erased": plain.blocks_erased,
            "hot_first_erased": hot_first.blocks_erased,
        }
    return ExperimentReport(
        experiment_id="ablation-hot-victims",
        title="CAGC with hot-first victim preference (mail)",
        headers=("Base policy", "Migr plain", "Migr hot-first", "Erase plain", "Erase hot-first"),
        rows=rows,
        notes=(
            "usually a no-op here, which is itself the III-C claim: cold "
            "blocks accumulate no invalid pages, so they never qualify as "
            "victims even without the explicit preference — the wrapper is "
            "a safety net for workloads that do invalidate shared content"
        ),
        data=data,
    )


def write_buffer_specs(scale: str) -> List[RunSpec]:
    return [
        RunSpec(
            workload="homes", scheme="cagc", scale=scale,
            config_overrides=(
                freeze_overrides(write_buffer_pages=pages) if pages else ()
            ),
        )
        for pages in BUFFER_PAGES
    ]


def write_buffer_report(runs: Runs, scale: str) -> ExperimentReport:
    """A7: DRAM write buffer in front of CAGC (related work [32, 36]).

    Buffering and GC-time dedup attack the same quantity — flash write
    traffic — from different ends; this sweep shows how they compose.
    """
    rows = []
    data = {}
    for buffer_pages, result in zip(BUFFER_PAGES, runs.values()):
        absorbed = (
            f"{result.buffer.absorption_ratio:.1%}" if result.buffer else "-"
        )
        rows.append(
            (
                buffer_pages,
                result.io.user_pages_programmed,
                result.blocks_erased,
                f"{result.latency.mean_us:.0f}us",
                absorbed,
            )
        )
        data[buffer_pages] = {
            "pages_programmed": result.io.user_pages_programmed,
            "blocks_erased": result.blocks_erased,
            "mean_us": result.latency.mean_us,
            "absorption": result.buffer.absorption_ratio if result.buffer else 0.0,
        }
    return ExperimentReport(
        experiment_id="ablation-write-buffer",
        title="DRAM write-buffer sweep in front of CAGC (homes)",
        headers=("Buffer pages", "Pages programmed", "Erases", "Mean resp", "Absorbed"),
        rows=rows,
        notes="buffering absorbs overwrites before flash; composes with GC dedup",
        data=data,
    )


def separation_specs(scale: str) -> List[RunSpec]:
    return [
        RunSpec(workload=workload, scheme=scheme, scale=scale)
        for workload in ("homes", "mail")
        for scheme in ("baseline", "lba-hotcold", "cagc")
    ]


def separation_report(runs: Runs, scale: str) -> ExperimentReport:
    """A6: spatial (LBA) vs content (refcount) hot/cold separation.

    The paper's related-work argument: prior GC work separates hot/cold
    by logical address; CAGC separates by content reference count.  This
    ablation pits the two signals against each other (both relative to
    the plain Baseline).
    """
    rows = []
    data = {}
    for workload, (base, lba, cagc) in zip(("homes", "mail"), grouped(runs, 3)):
        r_lba = reduction_vs_baseline(base.pages_migrated, lba.pages_migrated)
        r_cagc = reduction_vs_baseline(base.pages_migrated, cagc.pages_migrated)
        e_lba = reduction_vs_baseline(base.blocks_erased, lba.blocks_erased)
        e_cagc = reduction_vs_baseline(base.blocks_erased, cagc.blocks_erased)
        rows.append(
            (workload, f"{r_lba:.1f}%", f"{r_cagc:.1f}%", f"{e_lba:.1f}%", f"{e_cagc:.1f}%")
        )
        data[workload] = {
            "lba_migration_cut_pct": r_lba,
            "cagc_migration_cut_pct": r_cagc,
            "lba_erase_cut_pct": e_lba,
            "cagc_erase_cut_pct": e_cagc,
        }
    return ExperimentReport(
        experiment_id="ablation-separation",
        title="Hot/cold separation signal: LBA write-frequency vs refcount+dedup",
        headers=("Workload", "Migr LBA", "Migr CAGC", "Erase LBA", "Erase CAGC"),
        rows=rows,
        notes=(
            "LBA separation helps without dedup; CAGC's content signal "
            "scales with the workload's redundancy (paper section V)"
        ),
        data=data,
    )


def gc_mode_specs(scale: str) -> List[RunSpec]:
    return [
        RunSpec(
            workload=workload, scheme="cagc", scale=scale,
            config_overrides=(
                freeze_overrides(gc_mode=mode) if mode != "blocking" else ()
            ),
        )
        for workload in ("homes", "mail")
        for mode in ("blocking", "preemptive")
    ]


def gc_mode_report(runs: Runs, scale: str) -> ExperimentReport:
    """A5: blocking vs semi-preemptive GC (related work, Lee ISPASS'11).

    Preemption changes *when* GC runs, not how much: erases stay equal
    while the foreground tail shrinks because requests wait at most one
    block-collection instead of a whole burst.
    """
    rows = []
    data = {}
    for workload, (blocking, preemptive) in zip(("homes", "mail"), grouped(runs, 2)):
        p99_cut = reduction_vs_baseline(
            blocking.latency.p99_us, preemptive.latency.p99_us
        )
        rows.append(
            (
                workload,
                f"{blocking.latency.p99_us:.0f}us",
                f"{preemptive.latency.p99_us:.0f}us",
                f"{p99_cut:.1f}%",
                blocking.blocks_erased,
                preemptive.blocks_erased,
            )
        )
        data[workload] = {
            "blocking_p99_us": blocking.latency.p99_us,
            "preemptive_p99_us": preemptive.latency.p99_us,
            "p99_cut_pct": p99_cut,
            "blocking_erases": blocking.blocks_erased,
            "preemptive_erases": preemptive.blocks_erased,
        }
    return ExperimentReport(
        experiment_id="ablation-gc-mode",
        title="CAGC under blocking vs semi-preemptive GC",
        headers=(
            "Workload",
            "p99 blocking",
            "p99 preemptive",
            "p99 cut",
            "Erases blk",
            "Erases pre",
        ),
        rows=rows,
        notes="preemption moves GC into idle gaps; reclamation volume is unchanged",
        data=data,
    )


def op_space_specs(scale: str) -> List[RunSpec]:
    return [
        RunSpec(
            workload=ABLATION_WORKLOAD, scheme=scheme, scale=scale,
            config_overrides=(
                freeze_overrides(op_ratio=op_ratio) if op_ratio != 0.07 else ()
            ),
        )
        for op_ratio in OP_RATIOS
        for scheme in ("baseline", "cagc")
    ]


def op_space_report(runs: Runs, scale: str) -> ExperimentReport:
    """A4: over-provisioning sensitivity of CAGC's erase reduction."""
    rows = []
    data = {}
    for op_ratio, (base, cagc) in zip(OP_RATIOS, grouped(runs, 2)):
        r_erased = reduction_vs_baseline(base.blocks_erased, cagc.blocks_erased)
        rows.append(
            (f"{op_ratio:.0%}", base.blocks_erased, cagc.blocks_erased, f"{r_erased:.1f}%")
        )
        data[op_ratio] = {
            "baseline": base.blocks_erased,
            "cagc": cagc.blocks_erased,
            "erase_reduction_pct": r_erased,
        }
    return ExperimentReport(
        experiment_id="ablation-op-space",
        title=f"Erase reduction vs over-provisioning ({ABLATION_WORKLOAD})",
        headers=("OP space", "Baseline erases", "CAGC erases", "Reduction"),
        rows=rows,
        notes="more OP relaxes GC pressure for both schemes; the CAGC win persists",
        data=data,
    )


#: Every ablation's declaration, by experiment id (in registry order).
EXPERIMENTS: Dict[str, Experiment] = {
    "ablation-threshold": Experiment(threshold_report, threshold_specs),
    "ablation-placement": Experiment(placement_report, placement_specs),
    "ablation-hash-latency": Experiment(hash_latency_report, hash_latency_specs),
    "ablation-op-space": Experiment(op_space_report, op_space_specs),
    "ablation-gc-mode": Experiment(gc_mode_report, gc_mode_specs),
    "ablation-separation": Experiment(separation_report, separation_specs),
    "ablation-write-buffer": Experiment(write_buffer_report, write_buffer_specs),
    "ablation-hot-victims": Experiment(hot_victims_report, hot_victims_specs),
    "ablation-channels": Experiment(channels_report, channels_specs),
}
