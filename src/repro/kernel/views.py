"""Long-lived NumPy views over the fixed-size FTL columns.

The batched kernels read and scatter into the columnar stores through
``np.frombuffer`` views.  Re-deriving those views on every run/victim
is pure overhead: every column is sized once from the device geometry
(``_fwd`` to the logical page count; ``_ref``/``_solo``, the
fingerprint and peak columns and the index's reverse column to the
physical page count) and only ever mutated in place.  One
:class:`ColumnViews` per replay caches them all.  A live view pins its
buffer, so any attempt to resize a column while the views exist fails
with ``BufferError``.
"""

from __future__ import annotations

import numpy as np

from repro.schemes.base import FTLScheme


class ColumnViews:
    """Cached views over the scheme's fixed-size columns."""

    __slots__ = ("fwd", "ref", "solo", "fp", "peak", "rev")

    def __init__(self, scheme: FTLScheme) -> None:
        mapping = scheme.mapping
        self.fwd = np.frombuffer(mapping._fwd, dtype=np.int64)
        self.ref = np.frombuffer(mapping._ref, dtype=np.int32)
        self.solo = np.frombuffer(mapping._solo, dtype=np.int64)
        self.fp = np.frombuffer(scheme.page_fp._col, dtype=np.int64)
        self.peak = np.frombuffer(scheme.tracker.peaks._col, dtype=np.int32)
        self.rev = np.frombuffer(scheme.index._ppn_fp, dtype=np.int64)
