"""Batch-vectorized replay kernels over the columnar FTL stores.

The kernel/orchestrator split behind ``config.kernel = "vectorized"``:

* :mod:`repro.kernel.orchestrator` — the run step's parts: per-chunk
  columns, the run planner (GC-trigger or reserve boundaries, adaptive
  window), the completion recurrence, the run and scalar-boundary
  commits; everything between boundaries goes through the batched
  kernels, the boundary write through the reference write path;
* :mod:`repro.kernel.arrayepoch` — the one replay runner: lanes (a bare
  SSD is one, each array device another) stepping through that run
  step, uncoordinated lanes to the end with no engine event,
  coordinated lanes in epochs on the shared event heap, plus the
  array-only barriers, deferral counts and NCQ counters;
* :mod:`repro.kernel.write` — the write-service kernel: one run of
  bulk-scheme writes as column scatters;
* :mod:`repro.kernel.inline` — the inline-dedupe foreground kernel:
  plan/apply split over a window of hashed writes (bulk index probe,
  integer-handle resolution loop, net-final state scatters and bulk
  index updates);
* :mod:`repro.kernel.gcmig` — the GC-migration kernel for plain-copy
  victim collection (baseline and inline-dedupe metadata moves);
* :mod:`repro.kernel.cagcmig` — the lean CAGC victim collection (the
  reference dedup/promotion walk with the no-op work stripped);
* :mod:`repro.kernel.views` — cached zero-copy NumPy views over the
  columnar FTL/dedup stores the kernels scatter into.

Every path is bit-identical to ``kernel = "reference"`` — the
differential oracle diffs the two continuously (the
``kernel-equivalence`` fuzz profile).  :func:`device_eligible` says
whether a device takes the batched path; the replay reads the trace
source's ``iter_chunks()``, so the source owns the chunk size.
"""

from repro.kernel.orchestrator import device_eligible, replay_vectorized

__all__ = ["device_eligible", "replay_vectorized"]
