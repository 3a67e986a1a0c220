#!/usr/bin/env python
"""Differential oracle sweep: every scheme x policy over many fuzz seeds.

Replays seeded adversarial traces (``repro.oracle.fuzz``) through the
real FTL stack and the reference oracle simultaneously and fails the
moment any combination diverges — on logical state, counters, the
program/erase conservation laws, or a structural invariant.  This is
the refactor safety net: run it before and after any change to the
mapping/GC/dedup layers.

Exit status: 0 = all combinations agree on all seeds, 1 = at least one
divergence (each is printed with scheme/policy/seed context), 2 = a
flag combination the sweep does not run (``--array --profiles``,
``--metrics`` without ``--kernel-equivalence``).

Usage::

    PYTHONPATH=src python scripts/check_oracle.py                 # 100 seeds
    PYTHONPATH=src python scripts/check_oracle.py --seeds 20
    PYTHONPATH=src python scripts/check_oracle.py --schemes cagc --shrink
    PYTHONPATH=src python scripts/check_oracle.py --kernel-equivalence \
        --profiles trim-churn mixed --seeds 25   # every seed per profile

Also wired into pytest as the opt-in ``oracle`` marker::

    PYTHONPATH=src python -m pytest -q -m oracle
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.array import COORDINATIONS  # noqa: E402
from repro.oracle import (  # noqa: E402
    ALL_POLICIES,
    ALL_SCHEMES,
    ARRAY_DEVICE_COUNTS,
    diff_array,
    diff_array_kernels,
    diff_kernels,
    diff_trace,
    fuzz_config,
    fuzz_trace,
    shrink_trace,
)
from repro.obs import log  # noqa: E402
from repro.oracle.fuzz import PROFILES, profile_for_seed  # noqa: E402
from repro.oracle.shrink import save_regression  # noqa: E402


def _check(trace, diff, where: str, shrink_name, regress_dir) -> int:
    """Run one differential case; returns 1 on divergence, else 0.

    With ``shrink_name`` a diverging trace is delta-debugged under the
    very ``diff`` call that reported it (same harness, same arguments)
    and saved under ``regress_dir``.
    """
    divergence = diff(trace)
    if divergence is None:
        return 0
    log.error("%s: %s", where, divergence)
    if shrink_name is not None:
        minimal = shrink_trace(
            trace, lambda tr: diff(tr) is not None, name=shrink_name
        )
        path = save_regression(minimal, regress_dir, shrink_name)
        log.error("  shrunk %d -> %d requests: %s", len(trace), len(minimal), path)
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    log.add_verbosity_args(parser)
    parser.add_argument("--seeds", type=int, default=100, help="fuzz seeds per combo")
    parser.add_argument("--requests", type=int, default=220, help="requests per trace")
    parser.add_argument(
        "--check-every",
        type=int,
        default=2,
        help="full-state snapshot compare cadence (1 = every request)",
    )
    parser.add_argument(
        "--profiles",
        nargs="+",
        choices=PROFILES,
        help="fuzz profiles to replay every seed under (default: rotate "
        "one profile per seed; single-device sweeps only)",
    )
    parser.add_argument(
        "--schemes", nargs="+", default=list(ALL_SCHEMES), choices=ALL_SCHEMES
    )
    parser.add_argument(
        "--policies", nargs="+", default=list(ALL_POLICIES), choices=ALL_POLICIES
    )
    parser.add_argument(
        "--kernel-equivalence",
        action="store_true",
        help="diff kernel=vectorized against kernel=reference directly "
        "(bit-identity sweep) instead of against the naive oracle model",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="attach a DeviceMetrics (or ArrayMetrics, with --array) bundle "
        "to both replay paths and diff the request counter and latency "
        "histogram aggregates too (requires --kernel-equivalence)",
    )
    parser.add_argument(
        "--array",
        action="store_true",
        help="sweep the N-device array against per-device oracles instead: "
        "multi-tenant 'array'-profile traces, device count rotating over "
        f"{ARRAY_DEVICE_COUNTS}, every GC coordination policy",
    )
    parser.add_argument(
        "--shrink",
        action="store_true",
        help="delta-debug each diverging trace and save it under tests/regress/",
    )
    parser.add_argument("--regress-dir", default="tests/regress")
    args = parser.parse_args(argv)
    if args.array and args.profiles:
        parser.error("--profiles: the array sweep always uses the 'array' profile")
    if args.metrics and not args.kernel_equivalence:
        parser.error("--metrics: requires --kernel-equivalence")
    log.setup_from_args(args)

    config = fuzz_config()
    start = time.time()
    runs = 0
    failures = 0
    for seed in range(args.seeds):
        if args.array:
            trace = fuzz_trace(
                seed, config, n_requests=args.requests, profile="array"
            )
            devices = ARRAY_DEVICE_COUNTS[seed % len(ARRAY_DEVICE_COUNTS)]
            log.debug(
                "seed %d (array, %d devices): %d requests",
                seed,
                devices,
                len(trace),
            )
            # With --kernel-equivalence the array sweep diffs the epoch
            # kernel against the reference array loop instead of the
            # naive oracle; rotate the NCQ depth so both the analytic
            # occupancy counters and the scalar admission-gate replay
            # get exercised.
            ncq_depth = (2, 4, 8, 32)[seed % 4]
            for scheme in args.schemes:
                for policy in args.policies:
                    for coordination in COORDINATIONS:
                        runs += 1
                        case = dict(
                            devices=devices,
                            scheme=scheme,
                            policy=policy,
                            config=config,
                            coordination=coordination,
                        )
                        if args.kernel_equivalence:
                            diff = functools.partial(
                                diff_array_kernels,
                                ncq_depth=ncq_depth,
                                metrics=args.metrics,
                                **case,
                            )
                        else:
                            diff = functools.partial(diff_array, **case)
                        name = (
                            f"array-s{seed}-d{devices}-{scheme}-"
                            f"{policy}-{coordination}"
                        )
                        failures += _check(
                            trace, diff, f"seed {seed} (array, {devices} devices)",
                            name if args.shrink else None, args.regress_dir,
                        )
            continue
        for profile in args.profiles or [profile_for_seed(seed)]:
            trace = fuzz_trace(
                seed, config, n_requests=args.requests, profile=profile
            )
            log.debug("seed %d (%s): %d requests", seed, profile, len(trace))
            for scheme in args.schemes:
                for policy in args.policies:
                    runs += 1
                    case = dict(scheme=scheme, policy=policy, config=config)
                    if args.kernel_equivalence:
                        diff = functools.partial(
                            diff_kernels, metrics=args.metrics, **case
                        )
                    else:
                        diff = functools.partial(
                            diff_trace, check_every=args.check_every, **case
                        )
                    name = f"fuzz-s{seed}-{profile}-{scheme}-{policy}"
                    failures += _check(
                        trace, diff, f"seed {seed} ({profile})",
                        name if args.shrink else None, args.regress_dir,
                    )
    wall = time.time() - start
    combos = len(args.schemes) * len(args.policies)
    if args.array:
        combos *= len(COORDINATIONS)
    elif args.profiles:
        combos *= len(args.profiles)
    log.info(
        "oracle sweep: %d seeds x %d scheme/policy combos = "
        "%d differential runs, %d divergences (%.1fs)",
        args.seeds,
        combos,
        runs,
        failures,
        wall,
    )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
