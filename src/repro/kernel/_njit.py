"""Optional numba tier for the hottest scalar kernels.

The vectorized replay path is NumPy end to end except for a few
irreducibly sequential recurrences:

* the FIFO completion recurrence ``t_i = max(a_i, t_{i-1}) + d_i``
  (float addition is not associative, so a cumsum reformulation would
  not be bit-identical to the event engine);
* the hash-lane pipeline recurrence of the Fig 5 GC pipeline (and the
  inline-dedupe foreground hash stage): each page's hash stage starts
  on the first-free lane, so lane occupancy is a sequential min/max
  chain over the per-page read-done times.

When numba is importable they compile with ``@njit(cache=True)``;
otherwise the module degrades silently to pure-Python / NumPy versions
that produce identical results (same IEEE-754 double ops, same integer
arithmetic).  The container this repo targets does not ship numba, so
the fallback path is itself kept fast: the recurrence runs over
``tolist()`` floats (no per-element ndarray boxing).
"""

from __future__ import annotations

import numpy as np

try:  # pragma: no cover - exercised only where numba is installed
    from numba import njit

    HAVE_NUMBA = True
except Exception:  # ImportError, or a broken install
    njit = None
    HAVE_NUMBA = False


def _completion_recurrence_py(arrivals, durations, t_prev):
    """Reference implementation: plain Python floats.

    Returns ``(completions, t_final)``; ``completions[i]`` is the
    completion time of request ``i`` under FIFO single-server service —
    exactly what the event engine computes one event at a time.
    """
    n = len(arrivals)
    out = np.empty(n, dtype=np.float64)
    a = arrivals.tolist()
    d = durations.tolist()
    comp = [0.0] * n
    t = t_prev
    for i in range(n):
        ai = a[i]
        start = ai if ai > t else t
        t = start + d[i]
        comp[i] = t
    out[:] = comp
    return out, t


def _hash_lane_recurrence_py(read_done, hash_us, lookup_us, lanes):
    """Hash-stage completion per page under ``lanes`` parallel engines.

    Reference model (:class:`repro.core.pipeline.GCPipeline`): page
    ``i`` hashes on the first-index least-busy lane, starting when both
    its read and that lane are done; the stage costs ``hash_us`` then
    ``lookup_us`` — two separate float additions, exactly like the
    reference (addition is not associative).  Returns the per-page
    hash-done times; the caller takes ``max`` for the lane makespan.
    """
    n = len(read_done)
    out = np.empty(n, dtype=np.float64)
    rd = read_done.tolist()
    comp = [0.0] * n
    if lanes == 1:
        t = 0.0
        for i in range(n):
            r = rd[i]
            start = r if r > t else t
            t = start + hash_us + lookup_us
            comp[i] = t
        out[:] = comp
        return out
    free = [0.0] * lanes
    for i in range(n):
        lane = 0
        lane_free = free[0]
        for j in range(1, lanes):
            if free[j] < lane_free:
                lane = j
                lane_free = free[j]
        r = rd[i]
        start = r if r > lane_free else lane_free
        done = start + hash_us + lookup_us
        free[lane] = done
        comp[i] = done
    out[:] = comp
    return out


if HAVE_NUMBA:  # pragma: no cover - exercised only where numba is installed

    @njit(cache=True)
    def _completion_recurrence_nb(arrivals, durations, t_prev):
        n = arrivals.shape[0]
        out = np.empty(n, dtype=np.float64)
        t = t_prev
        for i in range(n):
            ai = arrivals[i]
            start = ai if ai > t else t
            t = start + durations[i]
            out[i] = t
        return out, t

    @njit(cache=True)
    def _hash_lane_recurrence_nb(read_done, hash_us, lookup_us, lanes):
        n = read_done.shape[0]
        out = np.empty(n, dtype=np.float64)
        if lanes == 1:
            t = 0.0
            for i in range(n):
                r = read_done[i]
                start = r if r > t else t
                t = start + hash_us + lookup_us
                out[i] = t
            return out
        free = np.zeros(lanes, dtype=np.float64)
        for i in range(n):
            lane = 0
            lane_free = free[0]
            for j in range(1, lanes):
                if free[j] < lane_free:
                    lane = j
                    lane_free = free[j]
            r = read_done[i]
            start = r if r > lane_free else lane_free
            done = start + hash_us + lookup_us
            free[lane] = done
            out[i] = done
        return out

    completion_recurrence = _completion_recurrence_nb
    hash_lane_recurrence = _hash_lane_recurrence_nb
else:
    completion_recurrence = _completion_recurrence_py
    hash_lane_recurrence = _hash_lane_recurrence_py
