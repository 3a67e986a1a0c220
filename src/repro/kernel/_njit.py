"""Optional numba tier for the one irreducibly sequential recurrence.

The vectorized replay path is NumPy end to end except for the FIFO
completion recurrence ``t_i = max(a_i, t_{i-1}) + d_i`` (float
addition is not associative, so a cumsum reformulation would not be
bit-identical to the event engine).

When numba is importable it compiles with ``@njit(cache=True)``;
otherwise the module degrades silently to a pure-Python version that
produces identical results (same IEEE-754 double ops).  numba is an
optional dependency, so the fallback is itself kept fast: the
recurrence runs over ``tolist()`` floats (no per-element ndarray
boxing).
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

    completion_recurrence = _completion_recurrence_nb
else:
    completion_recurrence = _completion_recurrence_py
