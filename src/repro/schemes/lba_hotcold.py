"""LBA-based hot/cold separation (the related-work comparator).

The paper's related work (section V) notes that prior GC optimizations
identify hot and cold data from *spatial* locality — logical block
addresses — whereas CAGC uses *content* locality via reference counts.
This scheme implements the spatial alternative so the two signals can
be compared head-to-head: no deduplication anywhere; during GC
migration, pages whose LPN has historically been rewritten at least
``hot_write_threshold`` times go to the hot region, all others to the
cold region.

The comparison (``ablation-separation``) shows where each signal wins:
LBA separation helps every workload a little, while refcount separation
plus GC-dedup helps in proportion to the workload's content redundancy.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional

from repro.config import SSDConfig
from repro.ftl.allocator import Region
from repro.ftl.gc.policy import VictimPolicy
from repro.schemes.base import FTLScheme, WriteOutcome

_ONE_PROGRAM = WriteOutcome(programs=1, hashed_pages=0, dedup_hits=0)


class LBAHotColdScheme(FTLScheme):
    """Baseline + spatial (write-frequency) hot/cold separation."""

    name = "lba-hotcold"
    #: Foreground writes always program hot (heat only matters at GC
    #: migration time), so the bulk fast path applies; the per-LPN write
    #: counting lives in the :meth:`_note_user_writes` /
    #: :meth:`_note_user_trim` hooks, which the batched kernel calls too.
    bulk_user_writes = True

    def __init__(
        self,
        config: SSDConfig,
        policy: Optional[VictimPolicy] = None,
        hot_write_threshold: int = 2,
    ) -> None:
        super().__init__(config, policy=policy)
        if hot_write_threshold < 1:
            raise ValueError("hot_write_threshold must be >= 1")
        self.hot_write_threshold = hot_write_threshold
        #: lifetime write count per LPN — the spatial heat signal.
        self.lpn_writes: Dict[int, int] = defaultdict(int)
        self._max_cold_blocks = int(config.geometry.blocks * config.cold_region_ratio)

    def write_page(self, lpn: int, fp: int, now_us: float) -> WriteOutcome:
        self.lpn_writes[lpn] += 1
        self._program_new(lpn, fp, Region.HOT, now_us)
        return _ONE_PROGRAM

    def _note_user_writes(self, lpn: int, npages: int) -> None:
        lpn_writes = self.lpn_writes
        for offset in range(npages):
            lpn_writes[lpn + offset] += 1

    def _note_user_trim(self, lpn: int, npages: int) -> None:
        lpn_writes = self.lpn_writes
        for offset in range(npages):
            lpn_writes.pop(lpn + offset, None)

    #: The base implementation, bound on this class too so per-class
    #: instrumentation (``bench/tracing.py``) still resolves it here.
    trim_request = FTLScheme.trim_request

    def _is_hot_lpn(self, lpn: int) -> bool:
        return self.lpn_writes.get(lpn, 0) >= self.hot_write_threshold

    def _migration_region(self, ppn: int) -> int:
        """Spatial placement decision at GC migration time.

        A physical page maps to exactly one LPN here (no dedup), so the
        page's heat is its LPN's write frequency.  Cold placement is
        capped like CAGC's to keep the comparison fair.
        """
        lpns = self.mapping.lpns_of(ppn)
        hot = any(self._is_hot_lpn(lpn) for lpn in lpns)
        if hot:
            return Region.HOT
        if self.allocator.region_blocks[Region.COLD] >= self._max_cold_blocks:
            return Region.HOT
        return Region.COLD
