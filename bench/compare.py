"""Compare two sets of benchmark records.

    python3 bench/compare.py A.json [B.json ...] -- C.json [D.json ...]

Each file is a record written by ``run.py --out``; the files before
``--`` are the first side (the parent commit), the rest the second
(the change).  For every workload and end-to-end metric it prints each
side's median and quartiles over its files and the change of the
median, signed so that positive is worse.  Against the metric's bound
in ``BENCHMARK.json`` the verdict is

* ``WORSE`` — the second side's median is worse by more than the bound;
* ``unresolved`` — either side's spread (quartile distance over the
  median) exceeds the bound, unless every run of the second side reads
  better than every run of the first (``better``);
* ``ok`` otherwise.

The simulated results in traced records (``sim_*``, ``paper_gap_pp``,
``gc.*``, ``io.*``) must be identical on both sides: a speed-only
change leaves them bit-identical.  Exit status 1 when any metric is
``WORSE`` or any simulated result differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SIMULATED_PREFIXES = ("sim_", "paper_gap_pp", "gc.", "io.")


def load(paths: Sequence[str]) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> one value per record file."""
    values: Dict[Tuple[str, str], List[float]] = {}
    for path in paths:
        record = json.loads(Path(path).read_text())
        for workload, result in record["workloads"].items():
            for name, metric in result["metrics"].items():
                values.setdefault((workload, name), []).append(metric["value"])
    return values


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), as the contract computes them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(first: Sequence[float], second: Sequence[float], better: str, bound: float):
    """``(worse_by, verdict)`` for one metric; ``worse_by`` is the
    relative change of the median, positive when the second side is worse."""
    sign = 1.0 if better == "lower" else -1.0
    a1, am, a3 = quartiles(first)
    b1, bm, b3 = quartiles(second)
    worse_by = sign * (bm - am) / am
    spread = max((a3 - a1) / am, (b3 - b1) / bm)
    if spread > bound:
        if all(sign * (b - a) < 0 for a in first for b in second):
            return worse_by, "better"
        return worse_by, "unresolved"
    return worse_by, "WORSE" if worse_by > bound else "ok"


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    first, second = load(argv[:split]), load(argv[split + 1 :])
    spec = json.loads(BENCHMARK.read_text())
    failed = False
    workloads = sorted({w for w, _ in first} & {w for w, _ in second})
    for workload in workloads:
        print(f"== {workload}")
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in first or key not in second:
                continue
            worse_by, outcome = verdict(
                first[key], second[key], metric["better"], metric["bound"]
            )
            failed |= outcome == "WORSE"
            a1, am, a3 = quartiles(first[key])
            b1, bm, b3 = quartiles(second[key])
            print(
                f"  {metric['name']:18s} {am:11.5g} [{a1:.5g}, {a3:.5g}]"
                f"  ->  {bm:11.5g} [{b1:.5g}, {b3:.5g}] {metric['unit']:5s}"
                f"  worse by {worse_by:+6.1%} (bound {metric['bound']:.0%})  {outcome}"
            )
        simulated = sorted(
            name
            for w, name in set(first) & set(second)
            if w == workload and name.startswith(SIMULATED_PREFIXES)
        )
        differs = [
            n for n in simulated if set(first[workload, n]) != set(second[workload, n])
        ]
        failed |= bool(differs)
        if simulated:
            same = len(simulated) - len(differs)
            print(f"  simulated results: {same}/{len(simulated)} identical")
        for name in differs:
            before, after = first[workload, name], second[workload, name]
            print(f"    {name} differs: {before} -> {after}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
