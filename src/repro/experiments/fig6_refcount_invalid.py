"""Fig 6 — which reference counts do invalid pages come from?

The paper's empirical justification for refcount placement: across the
FIU traces, more than 80 % of page invalidations hit pages whose
reference count (number of sharers) was 1, while pages that ever
reached a count above 3 account for under 1 % — high-refcount pages are
effectively immortal.

This analysis needs only dedup semantics, not the full SSD: we replay
each workload's write stream through a content-resolution model (LPN ->
content; content -> referrer count) and bucket every content-death
event by the content's lifetime peak refcount.
"""

from __future__ import annotations

from typing import Dict

from repro.dedup.refcount import InvalidationHistogram, RefcountTracker
from repro.experiments.common import WORKLOADS, ExperimentReport, Runs, get_scale
from repro.workloads.request import OpKind
from repro.workloads.trace import Trace


def refcount_invalidation_histogram(trace: Trace) -> InvalidationHistogram:
    """Replay ``trace``'s writes under dedup semantics; histogram
    content-death events by lifetime peak refcount."""
    tracker = RefcountTracker()
    lpn_content: Dict[int, int] = {}
    refcount: Dict[int, int] = {}
    write = int(OpKind.WRITE)
    trim = int(OpKind.TRIM)

    def drop_ref(fp: int) -> None:
        refcount[fp] -= 1
        if refcount[fp] == 0:
            del refcount[fp]
            tracker.invalidated(fp)

    for _, op, lpn, npages, fps in trace.iter_rows():
        if op == write:
            for offset in range(npages):
                fp = int(fps[offset])
                cur = lpn + offset
                old = lpn_content.get(cur)
                lpn_content[cur] = fp
                refcount[fp] = refcount.get(fp, 0) + 1
                tracker.observe(fp, refcount[fp])
                if old is not None:
                    drop_ref(old)
        elif op == trim:
            for offset in range(npages):
                old = lpn_content.pop(lpn + offset, None)
                if old is not None:
                    drop_ref(old)
    return tracker.histogram


def report(runs: Runs, scale: str) -> ExperimentReport:
    sc = get_scale(scale)
    config = sc.config()
    rows = []
    data = {}
    fractions_sum = [0.0, 0.0, 0.0, 0.0]
    for workload in WORKLOADS:
        trace = sc.trace(workload, config)
        hist = refcount_invalidation_histogram(trace)
        f1, f2, f3, fg = hist.fractions()
        rows.append((workload, f"{f1:.1%}", f"{f2:.1%}", f"{f3:.1%}", f"{fg:.1%}"))
        data[workload] = {"1": f1, "2": f2, "3": f3, ">3": fg, "total": hist.total}
        for i, f in enumerate((f1, f2, f3, fg)):
            fractions_sum[i] += f
    avg = [f / len(WORKLOADS) for f in fractions_sum]
    rows.append(("average", f"{avg[0]:.1%}", f"{avg[1]:.1%}", f"{avg[2]:.1%}", f"{avg[3]:.1%}"))
    data["average"] = {"1": avg[0], "2": avg[1], "3": avg[2], ">3": avg[3]}
    return ExperimentReport(
        experiment_id="fig6",
        title="Invalid pages by lifetime reference count",
        headers=("Workload", "ref=1", "ref=2", "ref=3", "ref>3"),
        rows=rows,
        paper_claim=">80% of invalid pages come from refcount-1 pages; <1% from refcount>3",
        data=data,
    )
