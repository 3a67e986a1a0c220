"""Batch-vectorized replay kernels over the columnar FTL stores.

The kernel/orchestrator split behind ``config.kernel = "vectorized"``:

* :mod:`repro.kernel.orchestrator` — chunked replay driver and the run
  step it shares with the coordinated array lanes: per-chunk columns,
  the run planner (GC-trigger or reserve boundaries, adaptive window),
  the run and scalar-boundary commits; everything between boundaries
  goes through the batched kernels, everything else through the
  reference per-request path;
* :mod:`repro.kernel.arrayepoch` — the epoch-batched array replay: a
  thin loop around the same run step per lane, plus the array-only
  barriers, deferral counts and NCQ counters;
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
  columnar FTL/dedup stores the kernels scatter into;
* :mod:`repro.kernel._njit` — optional numba tier for the irreducibly
  sequential completion recurrence.

Every path is bit-identical to ``kernel = "reference"`` — the
differential oracle diffs the two continuously (the
``kernel-equivalence`` fuzz profile).  :func:`device_eligible` says
whether a device takes the batched path; the replay reads the trace
source's ``iter_chunks()``, so the source owns the chunk size.
"""

from repro.kernel.orchestrator import device_eligible, replay_vectorized

__all__ = ["device_eligible", "replay_vectorized"]
