"""Region composition statistics.

Section III-C predicts that under CAGC the cold region's blocks hold
almost exclusively valid (highly-shared) pages while hot-region blocks
fill with invalid pages quickly.  These helpers measure exactly that,
per region: block counts, page-state densities, and the mean reference
count of resident pages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.flash.chip import PageState
from repro.ftl.allocator import Region


@dataclass(frozen=True)
class RegionStats:
    """Page-state composition of one region's blocks."""

    region: int
    blocks: int
    valid_pages: int
    invalid_pages: int
    free_pages: int
    mean_refcount: float

    @property
    def name(self) -> str:
        return Region.NAMES.get(self.region, str(self.region))

    @property
    def invalid_density(self) -> float:
        """Invalid fraction of the region's written pages."""
        written = self.valid_pages + self.invalid_pages
        return self.invalid_pages / written if written else 0.0


def region_stats(scheme) -> Dict[str, RegionStats]:
    """Compute :class:`RegionStats` for every region of a scheme's FTL."""
    flash = scheme.flash
    allocator = scheme.allocator
    mapping = scheme.mapping
    out: Dict[str, RegionStats] = {}
    ppb = flash.pages_per_block
    for region in (Region.HOT, Region.COLD):
        blocks = np.nonzero(allocator.block_region == region)[0]
        valid = int(flash.valid_count[blocks].sum())
        invalid = int(flash.invalid_count[blocks].sum())
        free = int(len(blocks) * ppb - flash.write_ptr[blocks].sum())
        refcounts = []
        for block in blocks:
            base = int(block) * ppb
            for offset in range(int(flash.write_ptr[block])):
                ppn = base + offset
                if flash.page_state[ppn] == PageState.VALID:
                    refcounts.append(mapping.refcount(ppn))
        stats = RegionStats(
            region=region,
            blocks=int(len(blocks)),
            valid_pages=valid,
            invalid_pages=invalid,
            free_pages=free,
            mean_refcount=float(np.mean(refcounts)) if refcounts else 0.0,
        )
        out[stats.name] = stats
    return out
