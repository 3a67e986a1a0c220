"""Kept only so bench/child.py's provenance import resolves; drop with
it at the next benchmark change.  There is no numba tier: the one
sequential recurrence is plain Python
(:func:`repro.kernel.orchestrator.completion_recurrence`)."""

HAVE_NUMBA = False
