"""SSD-array multi-tenant serving tier.

``SSDArray`` replays a (usually multiplexed, multi-tenant) trace over
N independent :class:`~repro.device.ssd.SSD` lanes behind a
deterministic LPN-range router on one shared simulated clock, with
NCQ-bounded admission and a pluggable array-level GC-coordination
policy (``independent`` / ``staggered`` / ``global-token``).
"""

from repro.array.coord import (
    COORDINATIONS,
    GCCoordinator,
    StaggeredCoordinator,
    TokenCoordinator,
    make_coordinator,
)
from repro.array.device import ArrayResult, SSDArray
from repro.array.router import RangeRouter, RoutingError
from repro.array.telemetry import ArrayTelemetry, fold_histograms

__all__ = [
    "ArrayResult",
    "ArrayTelemetry",
    "COORDINATIONS",
    "GCCoordinator",
    "RangeRouter",
    "RoutingError",
    "SSDArray",
    "StaggeredCoordinator",
    "TokenCoordinator",
    "fold_histograms",
    "make_coordinator",
]
