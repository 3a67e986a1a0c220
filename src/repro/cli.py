"""Command-line entry point.

Examples::

    cagc-repro list
    cagc-repro run fig9
    cagc-repro run all --scale full --jobs 4
    cagc-repro sweep --schemes baseline cagc --seeds 0 1 2 --jobs 4
    cagc-repro trace-gen --preset mail --requests 20000 --out mail.csv
    cagc-repro trace-info mail.csv
    cagc-repro simulate --scheme cagc --preset mail --blocks 256
    cagc-repro simulate --scheme baseline --replay mail.csv --policy cost-benefit
    cagc-repro simulate --scheme cagc --trace run.json --trace-format chrome
    cagc-repro report --workload mail --scheme cagc
    cagc-repro report --compare mail/baseline mail/cagc --threshold 0.1
    cagc-repro metrics --workload mail --scheme cagc --format prom
    cagc-repro metrics --workload mail --format jsonl --slo
    cagc-repro bench-history

Experiment runs are cached persistently (``results/cache`` or
``$CAGC_CACHE_DIR``), so repeated invocations are nearly instant;
``--no-cache`` forces fresh simulations and ``--jobs N`` fans
cache-misses out over N worker processes.  ``simulate`` and ``compare``
build bench-scale ``RunSpec`` objects from their flags and run them
uncached; ``simulate`` prints the same rows as ``report``, kernel rows
included, read from the run's metrics snapshot.

Observability: ``--trace FILE`` records a span trace of any ``simulate``
or ``run`` invocation (``--trace-format chrome`` opens in Perfetto /
``chrome://tracing``), ``--heartbeat SECS`` prints wall-clock progress to
stderr, ``report`` renders the full telemetry view of a cached run, and
every subcommand takes ``-q`` / ``-v`` to gate status chatter.  Every
cached run also carries a metrics snapshot (final values + simulated-time
series): ``metrics`` exports it as a Prometheus text snapshot or a
JSONL/CSV time-series dump and ``--slo`` evaluates burn rates against
declarative latency/WAF objectives, ``report --compare RUN_A RUN_B``
diffs two runs metric-by-metric with threshold flagging, and
``bench-history`` tabulates the per-case µs/op trajectory recorded in
``BENCH_history.jsonl`` across commits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.config import GeometryConfig, SSDConfig
from repro.experiments import EXPERIMENTS, run_experiment
from repro.experiments.common import SCALES, reset_result_caches
from repro.experiments.registry import warm_experiments
from repro.ftl.gc import POLICIES
from repro.metrics.report import format_table
from repro.obs import log
from repro.runner import RunCache, RunSpec, cache_enabled, freeze_overrides
from repro.runner import run_specs, sweep_specs
from repro.runner.cache import ENV_NO_CACHE
from repro.workloads.analysis import profile_trace, refcount_histogram
from repro.workloads.fiu import FIU_PRESETS, build_fiu_trace
from repro.workloads.fiu_format import dump_fiu_trace
from repro.workloads.stream import open_trace
from repro.workloads.trace import DEFAULT_CHUNK_SIZE

SCHEME_NAMES = ("baseline", "inline-dedupe", "cagc", "lba-hotcold")


def _add_parallel_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for cache-miss simulations "
        "(0 = one per CPU; default: 1, serial)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not write the persistent result cache",
    )


def _add_array_args(parser: argparse.ArgumentParser) -> None:
    """``--array-devices`` / ``--tenants`` / ``--gc-coord`` / ``--ncq-depth``."""
    parser.add_argument(
        "--array-devices",
        type=int,
        default=0,
        metavar="N",
        help="replay on an N-device SSD array instead of one device "
        "(default: 0, single device)",
    )
    parser.add_argument(
        "--tenants",
        type=int,
        default=1,
        metavar="T",
        help="tenant streams multiplexed across the array (with "
        "--array-devices; default: 1)",
    )
    parser.add_argument(
        "--gc-coord",
        default="independent",
        choices=("independent", "staggered", "global-token"),
        help="array GC coordination policy (default: independent)",
    )
    parser.add_argument(
        "--ncq-depth",
        type=int,
        default=32,
        metavar="D",
        help="per-device NCQ admission window (default: 32)",
    )


def _add_run_selector_args(parser: argparse.ArgumentParser) -> None:
    """The cached-run coordinates shared by ``report`` and ``metrics``."""
    parser.add_argument("--workload", default="mail", choices=sorted(FIU_PRESETS))
    parser.add_argument("--scheme", default="cagc", choices=SCHEME_NAMES)
    parser.add_argument("--policy", default="greedy", choices=sorted(POLICIES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--scale",
        default="bench",
        choices=sorted(SCALES),
        help="device/trace sizing (default: bench)",
    )
    parser.add_argument(
        "--device",
        default="single",
        choices=("single", "parallel"),
        help="controller model (default: single)",
    )


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    """``--trace`` / ``--trace-format`` / ``--heartbeat`` (repro.obs)."""
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write a span trace of the run (foreground I/O, GC phases, "
        "hash lanes) to FILE",
    )
    parser.add_argument(
        "--trace-format",
        default="chrome",
        choices=("chrome", "jsonl"),
        help="trace file format: 'chrome' loads in Perfetto / "
        "chrome://tracing (default), 'jsonl' is one event per line",
    )
    parser.add_argument(
        "--heartbeat",
        type=float,
        default=None,
        metavar="SECS",
        help="print wall-clock progress to stderr every SECS seconds",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cagc-repro",
        description="Reproduce the CAGC paper's tables and figures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiment ids")

    run_p = sub.add_parser(
        "run",
        help="run one experiment (or 'all'); --jobs N parallelizes the "
        "underlying simulations",
    )
    run_p.add_argument("experiment", help="experiment id (see 'list') or 'all'")
    run_p.add_argument(
        "--scale",
        default="bench",
        choices=("quick", "bench", "full"),
        help="device/trace sizing (default: bench)",
    )
    _add_parallel_args(run_p)
    _add_obs_args(run_p)

    sweep_p = sub.add_parser(
        "sweep",
        help="fan a (workload x scheme x policy x seed) grid out over "
        "worker processes and tabulate every run",
    )
    sweep_p.add_argument(
        "--workloads",
        nargs="+",
        default=["homes", "web-vm", "mail"],
        choices=sorted(FIU_PRESETS),
        help="FIU presets to sweep (default: the Table II trio)",
    )
    sweep_p.add_argument(
        "--schemes",
        nargs="+",
        default=["baseline", "cagc"],
        choices=SCHEME_NAMES,
        help="FTL schemes to sweep (default: baseline cagc)",
    )
    sweep_p.add_argument(
        "--policies",
        nargs="+",
        default=["greedy"],
        choices=sorted(POLICIES),
        help="victim policies to sweep (default: greedy)",
    )
    sweep_p.add_argument(
        "--seeds",
        nargs="+",
        type=int,
        default=[0],
        help="trace seeds to sweep (default: 0)",
    )
    sweep_p.add_argument(
        "--scale",
        default="bench",
        choices=sorted(SCALES),
        help="device/trace sizing (default: bench)",
    )
    sweep_p.add_argument(
        "--out", default=None, metavar="FILE", help="also write results as JSON"
    )
    _add_parallel_args(sweep_p)

    gen_p = sub.add_parser("trace-gen", help="generate a synthetic FIU-like trace")
    gen_p.add_argument("--preset", default="mail", choices=sorted(FIU_PRESETS))
    gen_p.add_argument("--requests", type=int, default=20_000)
    gen_p.add_argument("--blocks", type=int, default=256, help="device blocks the trace is sized to")
    gen_p.add_argument("--pages-per-block", type=int, default=64)
    gen_p.add_argument("--seed", type=int, default=None)
    gen_p.add_argument("--out", required=True, help="output path")
    gen_p.add_argument(
        "--format",
        default="csv",
        choices=("csv", "fiu", "npz"),
        help="output format (npz: uncompressed columns, memory-mappable)",
    )

    info_p = sub.add_parser("trace-info", help="analyze a trace file")
    info_p.add_argument(
        "trace", help="trace path (.csv/.npz from trace-gen, or FIU format)"
    )
    info_p.add_argument(
        "--format",
        default=None,
        choices=(None, "csv", "fiu", "npz"),
        help="force input format",
    )

    sim_p = sub.add_parser("simulate", help="replay a workload under one scheme")
    sim_p.add_argument("--scheme", default="cagc", choices=SCHEME_NAMES)
    sim_p.add_argument("--preset", default="mail", choices=sorted(FIU_PRESETS))
    sim_p.add_argument(
        "--replay", default=None, metavar="FILE",
        help="replay a trace file instead of a preset",
    )
    sim_p.add_argument(
        "--stream",
        action="store_true",
        help="stream the --replay trace in chunks (constant memory: "
        "lazy parsing for text formats, memory-mapped columns for npz, "
        "histogram latency capture instead of per-request samples)",
    )
    sim_p.add_argument(
        "--chunk-size",
        type=int,
        default=DEFAULT_CHUNK_SIZE,
        metavar="REQUESTS",
        help="requests per streamed chunk (with --stream; default %(default)s)",
    )
    sim_p.add_argument("--policy", default="greedy", choices=sorted(POLICIES))
    sim_p.add_argument("--blocks", type=int, default=256)
    sim_p.add_argument("--pages-per-block", type=int, default=64)
    sim_p.add_argument("--channels", type=int, default=4)
    sim_p.add_argument("--fill-factor", type=float, default=3.0)
    sim_p.add_argument("--gc-mode", default="blocking", choices=("blocking", "preemptive"))
    sim_p.add_argument(
        "--kernel",
        default=None,
        choices=("reference", "vectorized"),
        help="replay kernel (default: REPRO_KERNEL env var or 'vectorized'); "
        "vectorized batches request runs through repro.kernel, reference "
        "is the per-request event loop (the spec kernel)",
    )
    sim_p.add_argument("--wear-aware", action="store_true")
    sim_p.add_argument(
        "--device",
        default="serial",
        choices=("serial", "parallel"),
        help="serial: single-queue FlashSim model; parallel: per-channel queues",
    )
    sim_p.add_argument(
        "--write-buffer", type=int, default=0, metavar="PAGES",
        help="DRAM write-back buffer size in pages",
    )
    _add_array_args(sim_p)
    _add_obs_args(sim_p)

    cmp_p = sub.add_parser(
        "compare", help="run every scheme on one workload and tabulate"
    )
    cmp_p.add_argument("--preset", default="mail", choices=sorted(FIU_PRESETS))
    cmp_p.add_argument("--policy", default="greedy", choices=sorted(POLICIES))
    cmp_p.add_argument("--blocks", type=int, default=256)
    cmp_p.add_argument("--pages-per-block", type=int, default=64)
    cmp_p.add_argument("--fill-factor", type=float, default=3.0)

    rep_p = sub.add_parser(
        "report",
        help="full telemetry view of one run (latency percentiles, WAF, "
        "dedup ratios, GC phase breakdown) from the result cache; "
        "--compare diffs the metrics of two cached runs instead",
    )
    _add_run_selector_args(rep_p)
    rep_p.add_argument(
        "--out", default=None, metavar="FILE", help="also write the report as JSON"
    )
    rep_p.add_argument(
        "--compare",
        nargs=2,
        default=None,
        metavar=("RUN_A", "RUN_B"),
        help="diff two runs' metrics instead of reporting one; runs are "
        "named as report labels them: workload[/scheme[/policy]]"
        "[@scale][#seed] (array shape/device flags apply to both)",
    )
    rep_p.add_argument(
        "--threshold",
        type=float,
        default=None,
        metavar="FRAC",
        help="relative-delta flagging threshold for --compare "
        "(default: 0.05)",
    )
    rep_p.add_argument(
        "--fail-on-diff",
        action="store_true",
        help="with --compare: exit 1 when any metric is flagged",
    )
    _add_array_args(rep_p)
    _add_parallel_args(rep_p)

    met_p = sub.add_parser(
        "metrics",
        help="export the metrics snapshot of a cached run (Prometheus "
        "text, or the simulated-time series as JSONL/CSV) and "
        "optionally evaluate SLO burn rates",
    )
    _add_run_selector_args(met_p)
    met_p.add_argument(
        "--format",
        default="prom",
        choices=("prom", "jsonl", "csv"),
        help="prom: OpenMetrics-style final-values snapshot (default); "
        "jsonl/csv: the time series, one simulated-time sample per row",
    )
    met_p.add_argument(
        "--out", default=None, metavar="FILE", help="write here instead of stdout"
    )
    met_p.add_argument(
        "--slo",
        action="store_true",
        help="also print the SLO burn-rate table and GC-spike annotations",
    )
    met_p.add_argument(
        "--slo-p99-us",
        type=float,
        default=500.0,
        metavar="US",
        help="windowed p99 latency objective (default: 500)",
    )
    met_p.add_argument(
        "--slo-p999-us",
        type=float,
        default=2_000.0,
        metavar="US",
        help="windowed p999 latency objective (default: 2000)",
    )
    met_p.add_argument(
        "--slo-waf",
        type=float,
        default=4.0,
        metavar="X",
        help="end-of-run write-amplification objective (default: 4.0)",
    )
    _add_array_args(met_p)
    _add_parallel_args(met_p)

    hist_p = sub.add_parser(
        "bench-history",
        help="per-case µs/op trajectory across commits from "
        "BENCH_history.jsonl, with regression annotations",
    )
    hist_p.add_argument(
        "--file",
        default="BENCH_history.jsonl",
        metavar="PATH",
        help="history file (default: BENCH_history.jsonl)",
    )
    hist_p.add_argument(
        "--threshold",
        type=float,
        default=None,
        metavar="FRAC",
        help="fractional slowdown before a step is annotated "
        "(default: 0.25, the bench guard's)",
    )
    hist_p.add_argument(
        "--cases",
        nargs="+",
        default=None,
        metavar="CASE",
        help="restrict the table to these bench cases",
    )

    for sub_parser in sub.choices.values():
        log.add_verbosity_args(sub_parser)
    return parser


def _disable_cache() -> None:
    """Honour ``--no-cache`` for this process (and any workers)."""
    os.environ[ENV_NO_CACHE] = "1"
    reset_result_caches()


def _make_observers(args):
    """Build (tracer, heartbeat) from the obs flags."""
    from repro.obs import Heartbeat, Tracer

    tracer = Tracer() if args.trace else None
    heartbeat = Heartbeat(args.heartbeat) if args.heartbeat is not None else None
    return tracer, heartbeat


#: ``timeline`` counter-track name -> metrics snapshot series column.
_TRACE_COUNTERS = {
    "free_fraction": "cagc_free_fraction",
    "blocks_erased": "cagc_gc_blocks_erased_total",
    "pages_migrated": "cagc_gc_pages_migrated_total",
    "gc_busy_us": "cagc_gc_busy_us_total",
}


def _write_trace(tracer, snapshot, args) -> None:
    """Fold the metrics series into the trace and write it out."""
    if snapshot is not None:
        times = snapshot.times_us.tolist()
        tracer.add_counters_from(
            {
                name: {"times_us": times, "values": snapshot.series[column].tolist()}
                for name, column in _TRACE_COUNTERS.items()
            }
        )
    tracer.write(args.trace, args.trace_format)
    log.info(
        "wrote %d trace events (%s) to %s",
        len(tracer),
        args.trace_format,
        args.trace,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    if args.no_cache:
        _disable_cache()
    ids = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        log.error(
            "error: unknown experiment %r; choose from %s",
            unknown[0],
            sorted(EXPERIMENTS),
        )
        return 2
    # Prewarm the shared result cache: every (workload, scheme, policy,
    # seed) replay behind the selected experiments runs once, fanned out
    # over the worker pool; the report builders below then only read.
    start = time.time()
    warmed = warm_experiments(ids, scale=args.scale, jobs=args.jobs)
    if warmed and args.jobs != 1:
        log.info("(warmed %d runs in %.1fs)", warmed, time.time() - start)
    if args.trace:
        _trace_one_experiment_run(ids, args)
    for experiment_id in ids:
        start = time.time()
        try:
            report = run_experiment(experiment_id, scale=args.scale)
        except ValueError as exc:
            log.error("error: %s", exc)
            return 2
        print(report)
        log.info("(%.1fs)", time.time() - start)
    return 0


def _trace_one_experiment_run(args_ids, args) -> None:
    """``run --trace``: re-execute one representative spec, traced.

    Cached results carry no event stream, so tracing requires a replay;
    the first spec behind the selected experiments is re-run with the
    observers attached (the cache itself is untouched — observers never
    change the simulated outcome).
    """
    from repro.experiments.registry import specs_for_experiments

    specs = specs_for_experiments(args_ids, scale=args.scale)
    if not specs:
        log.warning("--trace: no underlying runs for %s", args_ids)
        return
    spec = specs[0]
    tracer, heartbeat = _make_observers(args)
    log.info("tracing %s ...", spec.label())
    spec.execute(tracer=tracer, heartbeat=heartbeat)
    _write_trace(tracer, None, args)


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.no_cache:
        _disable_cache()
    specs = sweep_specs(
        tuple(args.workloads),
        tuple(args.schemes),
        policies=tuple(args.policies),
        seeds=tuple(args.seeds),
        scale=args.scale,
    )
    cache = RunCache.from_env() if cache_enabled() else None
    start = time.time()
    results = run_specs(specs, jobs=args.jobs, cache=cache)
    wall = time.time() - start
    rows = []
    records = []
    for spec, result in zip(specs, results):
        rows.append(
            (
                spec.workload,
                spec.scheme,
                spec.policy,
                spec.seed,
                result.blocks_erased,
                result.pages_migrated,
                f"{result.latency.mean_us:.0f}us",
                f"{result.latency.p99_us:.0f}us",
                f"{result.write_amplification():.2f}",
            )
        )
        records.append(
            {
                "workload": spec.workload,
                "scheme": spec.scheme,
                "policy": spec.policy,
                "seed": spec.seed,
                "scale": spec.scale,
                "blocks_erased": result.blocks_erased,
                "pages_migrated": result.pages_migrated,
                "mean_response_us": result.latency.mean_us,
                "p99_response_us": result.latency.p99_us,
                "write_amplification": result.write_amplification(),
            }
        )
    print(
        format_table(
            ("Workload", "Scheme", "Policy", "Seed", "Erases", "Migrated", "Mean", "p99", "WAF"),
            rows,
            title=f"sweep: {len(specs)} runs @ {args.scale}",
        )
    )
    hits = cache.hits if cache is not None else 0
    log.info("(%.1fs, %d/%d from cache, jobs=%d)", wall, hits, len(specs), args.jobs)
    if args.out:
        Path(args.out).write_text(json.dumps(records, indent=2) + "\n")
        log.info("wrote %s", args.out)
    return 0


def _cmd_trace_gen(args: argparse.Namespace) -> int:
    geometry = GeometryConfig(
        blocks=args.blocks, pages_per_block=args.pages_per_block
    )
    config = SSDConfig(geometry=geometry)
    trace = build_fiu_trace(
        args.preset, config, n_requests=args.requests, seed=args.seed
    )
    if args.format == "csv":
        trace.save_csv(args.out)
    elif args.format == "npz":
        trace.save_npz(args.out)
    else:
        dump_fiu_trace(trace, args.out)
    stats = trace.stats()
    log.info(
        "wrote %s requests (%s written pages, dedup %.1f%%) to %s",
        f"{stats.requests:,}",
        f"{stats.written_pages:,}",
        stats.dedup_ratio * 100,
        args.out,
    )
    return 0


def _cmd_trace_info(args: argparse.Namespace) -> int:
    if not Path(args.trace).exists():
        log.error("error: no such file: %s", args.trace)
        return 2
    trace = open_trace(args.trace, fmt=args.format)
    stats = trace.stats()
    profile = profile_trace(trace)
    rows = [
        ("requests", stats.requests),
        ("write ratio", f"{stats.write_ratio:.1%}"),
        ("dedup ratio", f"{stats.dedup_ratio:.1%}"),
        ("mean request size", f"{stats.avg_req_kb:.1f}KB"),
        ("written pages", stats.written_pages),
        ("working set (pages)", profile.working_set_pages),
        ("mean overwrites/LPN", f"{profile.mean_overwrites:.2f}"),
        ("unique contents", profile.unique_contents),
        ("top-1% content share", f"{profile.top1pct_content_share:.1%}"),
        ("mean final refcount", f"{profile.mean_final_refcount:.2f}"),
    ]
    print(format_table(("Metric", "Value"), rows, title=f"trace: {trace.name}"))
    print(
        format_table(
            ("Refcount", "Live contents"),
            [(label, f"{frac:.1%}") for label, frac in refcount_histogram(trace)],
            title="final refcount distribution",
        )
    )
    return 0


def _array_report_rows(result) -> List[tuple]:
    """``(metric, value)`` rows for an :class:`ArrayResult` table: the
    array-wide view first, then the per-tenant SLO rows the serving
    tier is judged on."""
    telemetry = result.telemetry
    erased = sum(r.blocks_erased for r in result.devices)
    migrated = sum(r.pages_migrated for r in result.devices)
    rows = [
        ("devices x tenants", f"{len(result)} x {result.tenants}"),
        ("gc coordination", result.coordination),
        ("requests", telemetry.hist.total),
        ("mean response", f"{telemetry.hist.mean_us:.1f}us"),
        (
            "ncq depth (peak/held)",
            f"{result.ncq_depth} "
            f"({max(result.ncq_peaks)}/{sum(result.ncq_held)})",
        ),
        ("blocks erased", erased),
        ("pages migrated", migrated),
        ("simulated time", f"{result.simulated_us / 1e6:.2f}s"),
    ]
    for key in ("gc_deferrals", "idle_bursts", "token_grants", "windows_fired"):
        if key in result.coord_stats:
            rows.append((key.replace("_", " "), result.coord_stats[key]))
    rows.extend(telemetry.slo_rows())
    for device, hist in enumerate(telemetry.device_hists):
        if hist.total:
            rows.append(
                (
                    f"device {device} p99 / p999",
                    f"{hist.percentile(99.0):.0f} / "
                    f"{hist.percentile(99.9):.0f}us",
                )
            )
    # Per-device GC collect outcomes (fast path or fallback reason),
    # empty when the reference loop replayed the array.
    for device, stats in enumerate(result.kernel_gc):
        if any(stats.values()):
            rows.append(
                (
                    f"device {device} kernel GC",
                    ", ".join(
                        f"{key}={count}" for key, count in stats.items() if count
                    ),
                )
            )
    return rows


def _flag_spec(args, scheme: str, config=None, **fields) -> RunSpec:
    """A bench-scale :class:`RunSpec` resized by the ``simulate`` /
    ``compare`` geometry and trace flags; ``config`` adds SSDConfig
    overrides, ``fields`` other spec fields."""
    overrides = {
        "geometry.blocks": args.blocks,
        "geometry.pages_per_block": args.pages_per_block,
        **(config or {}),
    }
    return RunSpec(
        workload=args.preset,
        scheme=scheme,
        policy=args.policy,
        scale="bench",
        config_overrides=freeze_overrides(overrides),
        trace_overrides=freeze_overrides(fill_factor=args.fill_factor),
        **fields,
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    """Replay one spec built from the flags (or a ``--replay`` trace file
    on that spec's device) and print ``report``'s rows for it."""
    from repro.metrics.report import summary_rows

    config = {
        "geometry.channels": args.channels,
        "gc_mode": args.gc_mode,
        "wear_aware_allocation": args.wear_aware,
        "write_buffer_pages": args.write_buffer,
    }
    if args.kernel is not None:
        config["kernel"] = args.kernel
    tracer, heartbeat = _make_observers(args)
    observers = dict(tracer=tracer, heartbeat=heartbeat, keep_samples=not args.stream)
    start = time.time()
    try:
        spec = _flag_spec(
            args,
            args.scheme,
            config,
            device="parallel" if args.device == "parallel" else "single",
            array_devices=args.array_devices,
            tenants=args.tenants,
            gc_coord=args.gc_coord,
            ncq_depth=args.ncq_depth,
        )
        if args.replay is None:
            result = spec.execute(**observers)
        else:
            trace = open_trace(
                args.replay, stream=args.stream, chunk_size=args.chunk_size
            )
            result = spec.replay(trace, **observers)
    except ValueError as exc:
        log.error("error: %s", exc)
        return 2
    wall = time.time() - start
    if args.array_devices:
        # Arrays fold no timeline series into the trace.
        snapshot = None
        rows = _array_report_rows(result)
        title = f"array {args.scheme} / {result.trace} / {args.gc_coord}"
    else:
        snapshot = result.metrics
        rows = summary_rows(result)
        title = f"{args.scheme} / {result.trace} / {args.policy} / {args.gc_mode}"
    if tracer is not None:
        _write_trace(tracer, snapshot, args)
    rows += _kernel_rows(_kernel_doc(result))
    rows.append(("wall time", f"{wall:.2f}s"))
    print(format_table(("Metric", "Value"), rows, title=title))
    return 0


def _spec_from_args(args: argparse.Namespace) -> RunSpec:
    """Build the cached-run spec from the shared selector flags."""
    return RunSpec(
        workload=args.workload,
        scheme=args.scheme,
        policy=args.policy,
        seed=args.seed,
        scale=args.scale,
        device=args.device,
        array_devices=args.array_devices,
        tenants=args.tenants,
        gc_coord=args.gc_coord,
        ncq_depth=args.ncq_depth,
    )


def _fallback_reason(sample: str) -> str:
    """``cagc_..._total{reason="x"}`` -> ``x``."""
    return sample.split('reason="', 1)[1].rstrip('"}')


def _kernel_doc(result) -> Optional[dict]:
    """Kernel attribution from the metrics snapshot, the array's
    fallback reason and a single device's kernel GC collects."""
    doc: dict = {}
    snapshot = result.metrics
    if snapshot is not None:
        family = "cagc_kernel_fallback_requests_total"
        doc["batches"] = snapshot.values.get("cagc_kernel_batches_total", 0.0)
        doc["batched_requests"] = snapshot.values.get(
            "cagc_kernel_batched_requests_total", 0.0
        )
        doc["fallback_requests"] = {
            _fallback_reason(sample): value
            for sample, value in snapshot.values.items()
            if sample.startswith(family + "{")
        }
    fallback_reason = getattr(result, "kernel_fallback_reason", None)
    if fallback_reason is not None:
        doc["fallback_reason"] = fallback_reason
    # Arrays list their collects per device (_array_report_rows).
    if not hasattr(result, "devices"):
        collects = {key: count for key, count in result.kernel_gc.items() if count}
        if collects:
            doc["gc_collects"] = collects
    return doc or None


def _kernel_rows(kernel: Optional[dict]) -> List[tuple]:
    """``(metric, value)`` table rows mirroring :func:`_kernel_doc`."""
    if not kernel:
        return []
    rows = []
    if kernel.get("batches"):
        rows.append(
            (
                "kernel batches",
                f"{kernel['batches']:.0f} "
                f"({kernel['batched_requests']:.0f} reqs)",
            )
        )
    fallbacks = kernel.get("fallback_requests", {})
    served = kernel.get("batched_requests", 0.0) + sum(fallbacks.values())
    if served:
        rows.append(
            ("kernel fallback rate", f"{sum(fallbacks.values()) / served:.2%}")
        )
    for reason in sorted(fallbacks):
        rows.append((f"kernel fallback[{reason}]", f"{fallbacks[reason]:.0f}"))
    if kernel.get("fallback_reason"):
        rows.append(("kernel fallback reason", kernel["fallback_reason"]))
    if kernel.get("gc_collects"):
        rows.append(
            (
                "kernel GC collects",
                ", ".join(
                    f"{key}={count}" for key, count in kernel["gc_collects"].items()
                ),
            )
        )
    return rows


def _slo_doc(result, array: bool) -> List[dict]:
    """Structured SLO rows: per-tenant percentiles for arrays, the
    declarative burn-rate evaluation for single devices."""
    if array:
        telemetry = result.telemetry
        doc = [
            {
                "scope": "array",
                "p99_us": telemetry.hist.percentile(99.0),
                "p999_us": telemetry.hist.percentile(99.9),
                "requests": telemetry.hist.total,
            }
        ]
        for tenant, (p99, p999) in telemetry.tenant_percentiles():
            doc.append(
                {
                    "scope": f"tenant-{tenant}",
                    "p99_us": p99,
                    "p999_us": p999,
                    "requests": telemetry.tenant_hists[tenant].total,
                }
            )
        return doc
    from repro.obs import evaluate_slos

    return evaluate_slos(result.metrics)


def _cmd_report(args: argparse.Namespace) -> int:
    """Render the unified telemetry view of one (possibly cached) run."""
    from repro.metrics.report import summary_rows

    if args.no_cache:
        _disable_cache()
    if args.compare is not None:
        return _cmd_report_compare(args)
    cache = RunCache.from_env() if cache_enabled() else None
    start = time.time()
    try:
        spec = _spec_from_args(args)
        result = run_specs([spec], jobs=args.jobs, cache=cache)[0]
    except ValueError as exc:
        log.error("error: %s", exc)
        return 2
    wall = time.time() - start
    kernel = _kernel_doc(result)
    if args.array_devices:
        rows = _array_report_rows(result)
    else:
        rows = summary_rows(result)
    rows = list(rows) + _kernel_rows(kernel)
    print(format_table(("Metric", "Value"), rows, title=spec.label()))
    hits = cache.hits if cache is not None else 0
    log.info("(%.1fs, %s)", wall, "cached" if hits else "fresh run")
    if args.out:
        doc = {
            "run": spec.label(),
            "metrics": {k: v for k, v in rows},
            "kernel": kernel,
            "slo": _slo_doc(result, array=bool(args.array_devices)),
        }
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
        log.info("wrote %s", args.out)
    return 0


def _fmt_delta_cell(value) -> str:
    from repro.obs import export

    if value is None:
        return "-"
    return export.format_value(float(value))


def _cmd_report_compare(args: argparse.Namespace) -> int:
    """``report --compare RUN_A RUN_B``: cross-run metric diffing."""
    from repro.obs.compare import DEFAULT_THRESHOLD, compare_snapshots, flagged, summarize

    extras = dict(
        device=args.device,
        array_devices=args.array_devices,
        tenants=args.tenants,
        gc_coord=args.gc_coord,
        ncq_depth=args.ncq_depth,
    )
    try:
        spec_a = RunSpec.parse(args.compare[0], **extras)
        spec_b = RunSpec.parse(args.compare[1], **extras)
    except ValueError as exc:
        log.error("error: %s", exc)
        return 2
    threshold = args.threshold if args.threshold is not None else DEFAULT_THRESHOLD
    cache = RunCache.from_env() if cache_enabled() else None
    results = run_specs([spec_a, spec_b], jobs=args.jobs, cache=cache)
    rows = compare_snapshots(
        results[0].metrics, results[1].metrics, threshold=threshold
    )
    hot = flagged(rows)
    summary = summarize(rows, threshold)
    if hot:
        table = [
            (
                row["metric"],
                _fmt_delta_cell(row["a"]),
                _fmt_delta_cell(row["b"]),
                _fmt_delta_cell(row["delta"]),
                "-" if row["rel"] is None else f"{row['rel']:+.1%}",
            )
            for row in hot
        ]
        print(
            format_table(
                ("Metric", "A", "B", "Delta", "Rel"),
                table,
                title=f"{spec_a.label()}  vs  {spec_b.label()}",
            )
        )
    print(
        f"compare: {summary['metrics']} metrics, {summary['flagged']} "
        f"flagged above {threshold:.0%}"
        + ("" if hot else " (runs are metric-identical at this threshold)")
    )
    if args.out:
        doc = {
            "run_a": spec_a.label(),
            "run_b": spec_b.label(),
            "threshold": threshold,
            "summary": summary,
            "rows": rows,
        }
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
        log.info("wrote %s", args.out)
    return 1 if (args.fail_on_diff and hot) else 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    """Export a cached run's metrics snapshot; optionally judge SLOs."""
    from repro.obs import prometheus_text, series_csv, series_jsonl
    from repro.obs.slo import default_objectives, evaluate_slos, gc_spike_annotations

    if args.no_cache:
        _disable_cache()
    cache = RunCache.from_env() if cache_enabled() else None
    try:
        spec = _spec_from_args(args)
        result = run_specs([spec], jobs=args.jobs, cache=cache)[0]
    except ValueError as exc:
        log.error("error: %s", exc)
        return 2
    snapshot = result.metrics
    render = {"prom": prometheus_text, "jsonl": series_jsonl, "csv": series_csv}
    text = render[args.format](snapshot)
    if args.out:
        Path(args.out).write_text(text)
        log.info(
            "wrote %s (%s, %d samples)", args.out, args.format, snapshot.samples
        )
    else:
        sys.stdout.write(text)
    if args.slo:
        objectives = default_objectives(
            p99_us=args.slo_p99_us, p999_us=args.slo_p999_us, waf=args.slo_waf
        )
        rows = [
            (
                r["objective"],
                r["target"],
                f"{r['limit']:g}",
                f"{r['worst']:.1f}",
                f"{r['violations']}/{r['windows']}",
                f"{r['burn_rate']:.2f}",
                r["status"],
            )
            for r in evaluate_slos(snapshot, objectives)
        ]
        print(
            format_table(
                ("Objective", "Target", "Limit", "Worst", "Viol", "Burn", "Status"),
                rows,
                title=f"SLO burn rates: {spec.label()}",
            )
        )
        spikes = gc_spike_annotations(snapshot, limit=args.slo_p99_us)
        correlated = sum(1 for s in spikes if s["correlated"])
        print(
            f"gc spikes: {len(spikes)} windows above p99 objective, "
            f"{correlated} correlated with collect activity"
        )
        for spike in spikes[:10]:
            print(
                f"  t={spike['t_us'] / 1e6:.3f}s  "
                f"p99={spike['value']:.0f}us  gc+{spike['gc_delta']:.0f}"
            )
    return 0


def _cmd_bench_history(args: argparse.Namespace) -> int:
    """Tabulate BENCH_history.jsonl with regression annotations."""
    from repro.metrics.history import DEFAULT_THRESHOLD, history_rows, load_history

    path = Path(args.file)
    if not path.exists():
        log.error("error: no such file: %s", path)
        return 2
    threshold = args.threshold if args.threshold is not None else DEFAULT_THRESHOLD
    entries = load_history(path)
    if not entries:
        print(f"bench-history: no comparable entries in {path}")
        return 0
    header, rows, regressions = history_rows(
        entries, threshold=threshold, cases=args.cases
    )
    print(
        format_table(
            header,
            rows,
            title=f"bench history: {len(entries)} snapshots "
            f"(! = >{threshold:.0%} slowdown vs last recording)",
        )
    )
    for record in regressions:
        print(
            f"regression: {record['case']} at {record['git_sha']} "
            f"({record['taken_at']}): {record['prev_us_per_op']:.2f} -> "
            f"{record['us_per_op']:.2f} us/op (x{record['ratio']:.2f})"
        )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    """Replay one trace under every scheme's spec and tabulate."""
    try:
        specs = [_flag_spec(args, name) for name in SCHEME_NAMES]
        trace = specs[0].build_trace()
    except ValueError as exc:
        log.error("error: %s", exc)
        return 2
    stats = trace.stats()
    print(
        f"workload {args.preset}: {stats.requests:,} requests, "
        f"dedup {stats.dedup_ratio:.1%}, write ratio {stats.write_ratio:.1%}\n"
    )
    rows = []
    for spec in specs:
        result = spec.replay(trace, metrics=None)
        rows.append(
            (
                spec.scheme,
                result.blocks_erased,
                result.pages_migrated,
                f"{result.latency.mean_us:.0f}us",
                f"{result.latency.p99_us:.0f}us",
                f"{result.write_amplification():.2f}",
            )
        )
    print(
        format_table(
            ("Scheme", "Erases", "Migrated", "Mean", "p99", "WAF"),
            rows,
            title=f"all schemes, {args.policy} victim policy",
        )
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    log.setup_from_args(args)
    if args.command == "list":
        for experiment_id in EXPERIMENTS:
            print(experiment_id)
        return 0
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "trace-gen":
        return _cmd_trace_gen(args)
    if args.command == "trace-info":
        return _cmd_trace_info(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "metrics":
        return _cmd_metrics(args)
    if args.command == "bench-history":
        return _cmd_bench_history(args)
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
