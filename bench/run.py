"""End-to-end benchmark of the CAGC reproduction.

    python3 bench/run.py [--workload W[,W...]] [--seed N] [--seconds S]
                         [--trace 0|1] [--out FILE]

Every round runs in a fresh child process (``child.py``) with one
simulation thread and a scrubbed environment.  Rounds go round-robin
across the chosen workloads (default: all four) until each workload
has spent ``--seconds`` on rounds, and at least two rounds; more
set-up-only children follow until each has five ``setup_s`` samples.
Unless ``--trace 0``, one traced round per workload follows, with the
workload's kernel cross-check.  The output checks run on every round.

It prints every metric by name with its unit, and last one JSON line
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``, both when ``--trace`` is left out.  With several
workloads each metric name is prefixed ``<workload>/``.  ``--out``
also writes the full record (per-round values, provenance) that
``compare.py`` reads.  Exit status: 0 when every round and check
passed, 1 otherwise, 2 when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

WORKLOADS = ("figures", "paper-full", "array-tail", "stream-trim")
DEFAULT_SECONDS = 24
MIN_ROUNDS = 2
MIN_SETUPS = 5
CHILD_TIMEOUT_S = 150

#: Removed from every child's environment, so a user's shell cannot
#: change what is measured (kernel choice, chunking, the result cache,
#: the hash seed, which stays random per child).
SCRUBBED_ENV = (
    "REPRO_KERNEL",
    "REPRO_KERNEL_CHUNK",
    "CAGC_CACHE_DIR",
    "CAGC_NO_CACHE",
    "PYTHONHASHSEED",
)
#: Pinned to 1: the simulator is single-threaded, and so is every round.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "host_wall_s": "s",
    "host_req_per_s": "1/s",
    "host_peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its naming convention."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_frac") or name == "sim_waf":
        return "ratio"
    if name.endswith("_us"):
        return "us"
    if name == "paper_gap_pp":
        return "pp"
    if name == "kernel.batch_mean_requests":
        return "requests"
    return "count"


@dataclass
class WorkloadRun:
    """Every child one workload ran, and what came back."""

    name: str
    #: untraced round results (including failed ones).
    rounds: List[dict] = field(default_factory=list)
    #: elapsed seconds of each untraced round child, setup included.
    elapsed: List[float] = field(default_factory=list)
    setup_only: List[dict] = field(default_factory=list)
    traced: Optional[dict] = None

    def wants_round(self, seconds: float) -> bool:
        if len(self.rounds) < MIN_ROUNDS:
            return True
        if any(not r["ok"] for r in self.rounds):
            return False
        return sum(self.elapsed) + statistics.median(self.elapsed) <= seconds

    def children(self) -> List[Tuple[str, dict]]:
        """Every child's result, labelled."""
        return (
            [(f"round {i + 1}", r) for i, r in enumerate(self.rounds)]
            + [(f"setup {i + 1}", r) for i, r in enumerate(self.setup_only)]
            + ([("traced round", self.traced)] if self.traced else [])
        )


class Launcher:
    """Starts child processes and collects their JSON results."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.started = 0
        env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
        env.update({k: "1" for k in THREAD_ENV})
        env["PYTHONPATH"] = str(ROOT / "src")
        tmp = workdir / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        env["TMPDIR"] = str(tmp)
        self.env = env

    def spawn(self, workload: str, trace_out: Optional[Path] = None, setup_only=False):
        """Run one child; returns ``(result, elapsed seconds)``."""
        self.started += 1
        workdir = self.workdir / f"{workload}-{self.started}"
        workdir.mkdir(parents=True)
        result_path = workdir / "result.json"
        cmd = [
            sys.executable, str(BENCH / "child.py"),
            "--workload", workload,
            "--seed", str(self.seed),
            "--round", str(self.started),
            "--workdir", str(workdir),
            "--result", str(result_path),
        ]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        if setup_only:
            cmd.append("--setup-only")
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            result = {"ok": False, "error": f"timed out after {CHILD_TIMEOUT_S} s"}
        else:
            try:
                result = json.loads(result_path.read_text())
            except (OSError, ValueError):
                error = f"exit {proc.returncode}, no result: {proc.stderr[-2000:]}"
                result = {"ok": False, "error": error}
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        elapsed = time.monotonic() - t_spawn
        if "t_ready" in result:
            result["setup_s"] = result["t_ready"] - t_spawn
        return result, elapsed


def measure(launcher: Launcher, runs: List[WorkloadRun], seconds: float, traced: bool):
    """Untraced rounds round-robin, extra set-ups, then traced rounds."""
    pending = list(runs)
    while pending:
        for run in list(pending):
            if not run.wants_round(seconds):
                pending.remove(run)
                continue
            result, elapsed = launcher.spawn(run.name)
            run.rounds.append(result)
            run.elapsed.append(elapsed)
    for run in runs:
        while sum("setup_s" in c for _, c in run.children()) < MIN_SETUPS:
            result, _ = launcher.spawn(run.name, setup_only=True)
            run.setup_only.append(result)
            if not result["ok"]:
                break
    if traced:
        OUT.mkdir(exist_ok=True)
        for run in runs:
            trace_out = OUT / f"{run.name}.trace.json"
            run.traced, _ = launcher.spawn(run.name, trace_out=trace_out)


def failures(run: WorkloadRun) -> List[str]:
    """One message per failed child: it raised, failed an output check,
    or its simulated digest differs from the first round's."""
    messages = []
    first = next((c["digest"] for _, c in run.children() if "digest" in c), None)
    for label, child in run.children():
        if not child["ok"]:
            messages.append(f"{label}: {child['error'].strip().splitlines()[-1]}")
        elif child.get("failures"):
            messages.append(f"{label}: {'; '.join(child['failures'])}")
        elif "digest" in child and child["digest"] != first:
            digest = child["digest"]
            messages.append(f"{label}: digest {digest[:12]} != round 1's {first[:12]}")
    return messages


def end_to_end(run: WorkloadRun) -> Dict[str, float]:
    rounds = [r for r in run.rounds if r["ok"]]
    if not rounds:
        return {}
    wall = statistics.median(r["wall_s"] for r in rounds)
    setups = [c["setup_s"] for _, c in run.children() if "setup_s" in c]
    return {
        "setup_s": statistics.median(setups),
        "host_wall_s": wall,
        "host_req_per_s": rounds[0]["requests"] / wall,
        "host_peak_rss_mb": max(r["rss_kb"] for r in rounds) / 1024.0,
    }


def per_layer(run: WorkloadRun, untraced_wall: Optional[float]) -> Dict[str, float]:
    traced = run.traced
    if not traced or not traced["ok"]:
        return {}
    out = {**traced["layers"], **traced["simulated"]}
    out["bench.trace_overhead_frac"] = (
        traced["wall_s"] / untraced_wall - 1.0 if untraced_wall else 0.0
    )
    return out


def provenance(args, runs: List[WorkloadRun]) -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
        sha = proc.stdout.strip() or sha
    child = next((c for run in runs for c in run.rounds if "numpy" in c), {})
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": child.get("numpy"),
        "numba": child.get("numba"),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the CAGC reproduction."
    )
    parser.add_argument(
        "--workload", "--workloads", default=",".join(WORKLOADS),
        help="comma-separated workloads (default: all four)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    args.workloads = args.workload.split(",")
    unknown = sorted(set(args.workloads) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {list(WORKLOADS)}")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runs = [WorkloadRun(name) for name in args.workloads]
    workdir = OUT / f"work-{os.getpid()}"
    try:
        measure(Launcher(args.seed, workdir), runs, args.seconds, args.trace != 0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {"provenance": provenance(args, runs), "workloads": {}}
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    prefix = len(runs) > 1
    for run in runs:
        e2e = end_to_end(run)
        layers = per_layer(run, e2e.get("host_wall_s"))
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in e2e.items()
        }
        metrics.update(
            {
                name: {"value": value, "unit": layer_unit(name)}
                for name, value in layers.items()
            }
        )
        messages = failures(run)
        attempted = len(run.children())
        ok_rounds = [r for r in run.rounds if r["ok"]]
        print(f"== {run.name}: {len(ok_rounds)} rounds, {attempted} children")
        for name, metric in metrics.items():
            print(f"  {name:36s} {metric['value']:14.6g} {metric['unit']}")
        for message in messages:
            print(f"  FAILED {message}")
        record["workloads"][run.name] = {
            "correct": not messages,
            "attempted": attempted,
            "failed": len(messages),
            "metrics": metrics,
            "round_walls_s": [r["wall_s"] for r in ok_rounds],
            "setup_samples_s": [
                c["setup_s"] for _, c in run.children() if "setup_s" in c
            ],
            "failures": messages,
            "missing_sites": (run.traced or {}).get("missing_sites", []),
        }
        wanted = set()
        if args.trace != 1:
            wanted |= set(e2e)
        if args.trace != 0:
            wanted |= set(layers)
        for name in sorted(wanted):
            summary["metrics"][f"{run.name}/{name}" if prefix else name] = metrics[name]
        summary["attempted"] += attempted
        summary["failed"] += len(messages)
    summary["correct"] = summary["failed"] == 0
    if args.out is not None:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
