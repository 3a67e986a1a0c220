"""One benchmark round in a fresh process; started by ``run.py``.

Runs setup, the timed round and the untimed summary of one workload
and writes the JSON result of :func:`run_round` to ``--result``.
``setup_s`` is measured by the parent from just before it starts this
process to the ``t_ready`` reported here, both on the system-wide
monotonic clock.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from typing import Optional

import tracing


def run_round(
    name: str,
    seed: int,
    workdir: Path,
    size: Optional[float] = None,
    trace_out: Optional[Path] = None,
    setup_only: bool = False,
    round_id: int = 0,
) -> dict:
    """Set up and run one round of workload ``name``; returns its result.

    ``size`` defaults to the workload's benchmark size.  With
    ``trace_out`` the setup and round run under
    :class:`tracing.Instrumentation`, the span sample is written there
    as a Chrome trace, the result carries the per-layer metrics, and
    the workload's kernel cross-check runs last.  ``setup_only`` stops
    once the workload is ready (an extra ``setup_s`` sample).
    """
    recorder = None
    instrumentation = contextlib.nullcontext()
    if trace_out is not None:
        recorder = tracing.SpanRecorder()
        recorder.round_id = round_id
        instrumentation = tracing.Instrumentation(recorder)

    def span(span_name):
        return recorder.span(span_name) if recorder else contextlib.nullcontext()

    with instrumentation:
        with span(tracing.SETUP_SPAN):
            import workloads

            workload = workloads.WORKLOADS[name]
            if size is None:
                size = workloads.DEFAULT_SIZES[name]
            state = workload.setup(seed, size, Path(workdir))
        out = {"ok": True, "t_ready": time.monotonic()}
        if setup_only:
            return out
        t0 = time.perf_counter()
        with span(tracing.ROUND_SPAN):
            output = workload.run(state)
        out["wall_s"] = time.perf_counter() - t0
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    summary = workload.summarize(state, output)
    failures = list(summary.failures)
    if recorder is not None:
        if workload.cross_check is not None:
            failures += workload.cross_check(state, output)
        recorder.write_chrome(trace_out, f"bench.{name}")
        out["layers"] = tracing.layer_metrics(recorder)
        out["missing_sites"] = instrumentation.missing
    import numpy
    from repro.kernel._njit import HAVE_NUMBA

    out.update(
        requests=summary.requests,
        digest=summary.digest,
        simulated=summary.simulated,
        failures=failures,
        numpy=numpy.__version__,
        numba=HAVE_NUMBA,
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    try:
        result = run_round(
            args.workload, args.seed, args.workdir, trace_out=args.trace_out,
            setup_only=args.setup_only, round_id=args.round,
        )
    except Exception:
        result = {"ok": False, "error": traceback.format_exc()}
    args.result.write_text(json.dumps(result))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
