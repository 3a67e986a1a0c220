#!/usr/bin/env python
"""Differential oracle sweep: every scheme x policy over many fuzz seeds.

Replays seeded adversarial traces (``repro.oracle.fuzz``) through the
real FTL stack and the reference oracle simultaneously and fails the
moment any combination diverges — on logical state, counters, the
program/erase conservation laws, or a structural invariant.  This is
the refactor safety net: run it before and after any change to the
mapping/GC/dedup layers.

Exit status: 0 = all combinations agree on all seeds, 1 = at least one
divergence (each is printed with scheme/policy/seed context).

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
    make_array_divergence_predicate,
    make_divergence_predicate,
    shrink_trace,
)
from repro.obs import log  # noqa: E402
from repro.oracle.fuzz import PROFILES, profile_for_seed  # noqa: E402
from repro.oracle.shrink import save_regression  # noqa: E402


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
        "histogram aggregates too (kernel-equivalence mode only)",
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
                        if args.kernel_equivalence:
                            divergence = diff_array_kernels(
                                trace,
                                devices=devices,
                                scheme=scheme,
                                policy=policy,
                                config=config,
                                coordination=coordination,
                                ncq_depth=ncq_depth,
                                metrics=args.metrics,
                            )
                        else:
                            divergence = diff_array(
                                trace,
                                devices=devices,
                                scheme=scheme,
                                policy=policy,
                                config=config,
                                coordination=coordination,
                            )
                        if divergence is None:
                            continue
                        failures += 1
                        log.error(
                            "seed %d (array, %d devices): %s",
                            seed,
                            devices,
                            divergence,
                        )
                        if args.shrink:
                            predicate = make_array_divergence_predicate(
                                devices=devices,
                                scheme=scheme,
                                policy=policy,
                                config=config,
                                coordination=coordination,
                            )
                            name = (
                                f"array-s{seed}-d{devices}-{scheme}-"
                                f"{policy}-{coordination}"
                            )
                            minimal = shrink_trace(trace, predicate, name=name)
                            path = save_regression(
                                minimal, args.regress_dir, name
                            )
                            log.error(
                                "  shrunk %d -> %d requests: %s",
                                len(trace),
                                len(minimal),
                                path,
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
                    if args.kernel_equivalence:
                        divergence = diff_kernels(
                            trace,
                            scheme=scheme,
                            policy=policy,
                            config=config,
                            metrics=args.metrics,
                        )
                    else:
                        divergence = diff_trace(
                            trace,
                            scheme=scheme,
                            policy=policy,
                            config=config,
                            check_every=args.check_every,
                        )
                    if divergence is None:
                        continue
                    failures += 1
                    log.error("seed %d (%s): %s", seed, profile, divergence)
                    if args.shrink:
                        if args.kernel_equivalence:
                            predicate = (
                                lambda tr, s=scheme, p=policy: diff_kernels(
                                    tr,
                                    scheme=s,
                                    policy=p,
                                    config=config,
                                    metrics=args.metrics,
                                )
                                is not None
                            )
                        else:
                            predicate = make_divergence_predicate(
                                scheme, policy, config
                            )
                        name = f"fuzz-s{seed}-{profile}-{scheme}-{policy}"
                        minimal = shrink_trace(trace, predicate, name=name)
                        path = save_regression(minimal, args.regress_dir, name)
                        log.error(
                            "  shrunk %d -> %d requests: %s",
                            len(trace),
                            len(minimal),
                            path,
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
