"""Configuration objects for the simulated ultra-low latency SSD.

The defaults reproduce Table I of the CAGC paper:

======================  =========
Page size               4 KB
Block size              256 KB (64 pages)
Over-provisioning       7 %
Capacity                80 GB (scaled down by default for tractable runs)
Read latency            12 us
Write latency           16 us
Erase latency           1.5 ms
Hash latency            14 us
GC watermark            20 %
======================  =========

All latencies are stored in **microseconds** as floats; the simulator
clock is a float microsecond counter throughout the code base.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Optional

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

#: Microseconds per millisecond, used for readability in timing math.
MS = 1000.0


@dataclass(frozen=True)
class TimingConfig:
    """Latency parameters of the flash device and the hash engine.

    All values are microseconds for a single 4 KB page operation (or a
    single block for :attr:`erase_us`).  Defaults follow Table I of the
    paper (Samsung Z-NAND class device).
    """

    read_us: float = 12.0
    write_us: float = 16.0
    erase_us: float = 1.5 * MS
    hash_us: float = 14.0
    #: Parallel hash-engine lanes.  1 models firmware SHA (the paper's
    #: setting); >1 models the on-chip hash coprocessors of CA-SSD /
    #: Kim et al. that the related work discusses.
    hash_lanes: int = 1
    #: Fingerprint-index lookup cost (paper: "microsecond-level
    #: calculation and search overhead"); charged once per looked-up page.
    lookup_us: float = 1.0
    #: Per-request firmware + host-interface overhead added to every user
    #: I/O.  Not in Table I; calibrated so a 4 KB access completes in the
    #: low tens of microseconds — between Z-NAND's 3 us flash read and
    #: the ~50 us the paper quotes for a conventional NVMe SSD (§II-A).
    overhead_us: float = 20.0

    def validate(self) -> None:
        for name in ("read_us", "write_us", "erase_us", "hash_us", "lookup_us"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
        if self.overhead_us < 0:
            raise ValueError("overhead_us must be non-negative")
        if self.hash_lanes < 1:
            raise ValueError("hash_lanes must be >= 1")


@dataclass(frozen=True)
class GeometryConfig:
    """Physical layout of the simulated flash array.

    The paper's device is 80 GB with 4 KB pages and 256 KB blocks.  The
    default here is a scaled-down device so tests and benchmarks replay
    enough traffic to force thousands of GC cycles in seconds; the paper
    geometry is available via :func:`paper_geometry`.
    """

    channels: int = 4
    page_size: int = 4 * KB
    pages_per_block: int = 64
    blocks: int = 2048  # total physical blocks across all channels

    @property
    def block_size(self) -> int:
        return self.page_size * self.pages_per_block

    @property
    def total_pages(self) -> int:
        return self.blocks * self.pages_per_block

    @property
    def physical_bytes(self) -> int:
        return self.total_pages * self.page_size

    def validate(self) -> None:
        if self.channels <= 0:
            raise ValueError("channels must be positive")
        if self.page_size <= 0:
            raise ValueError("page_size must be positive")
        if self.pages_per_block <= 0:
            raise ValueError("pages_per_block must be positive")
        if self.blocks <= 0:
            raise ValueError("blocks must be positive")
        if self.blocks % self.channels != 0:
            raise ValueError(
                "blocks must divide evenly across channels "
                f"(blocks={self.blocks}, channels={self.channels})"
            )


@dataclass(frozen=True)
class SSDConfig:
    """Complete configuration of one simulated SSD.

    ``op_ratio`` is the over-provisioning fraction: the logical capacity
    exported to the host is ``physical * (1 - op_ratio)``.  ``gc_watermark``
    is the free-block fraction below which garbage collection triggers
    (Table I: 20 %), and ``gc_stop_watermark`` is the fraction at which a
    GC burst stops reclaiming.
    """

    geometry: GeometryConfig = field(default_factory=GeometryConfig)
    timing: TimingConfig = field(default_factory=TimingConfig)
    op_ratio: float = 0.07
    gc_watermark: float = 0.20
    gc_stop_watermark: float = 0.22
    #: Maximum victim blocks reclaimed per GC burst.  Bounds the
    #: foreground pause one burst can inflict (real FTLs do incremental
    #: GC for the same reason); the next write below the watermark
    #: triggers another burst.
    gc_burst_blocks: int = 4
    #: Foreground GC mode.  ``blocking``: a triggering write stalls for a
    #: whole burst (classic FlashSim).  ``preemptive``: the write stalls
    #: only until a small free-block reserve is restored and the rest of
    #: the reclamation happens in device idle time, one block per chunk,
    #: so queued requests wait at most one block-collection — the
    #: semi-preemptive GC of Lee et al. (ISPASS'11) the paper cites.
    gc_mode: str = "blocking"
    #: Reference-count threshold for cold-region placement (section III-C;
    #: a page whose refcount reaches this value migrates to the cold
    #: region).  The paper's example threshold is "e.g., 1", meaning
    #: refcount > 1 is cold; we store the smallest *cold* refcount.
    cold_threshold: int = 2
    #: Fraction of physical blocks reserved for the cold region under
    #: CAGC's two-region layout.
    cold_region_ratio: float = 0.25
    #: Draw fresh active blocks least-worn-first (dynamic wear leveling)
    #: instead of FIFO.
    wear_aware_allocation: bool = False
    #: DRAM write-back buffer in front of the FTL (0 = disabled).  The
    #: related-work mitigation family: absorb overwrites before flash.
    write_buffer_pages: int = 0
    #: DRAM access latency charged per buffered page.
    write_buffer_dram_us: float = 1.0
    #: Replay kernel implementation.  ``vectorized`` (the default)
    #: batches whole request runs through ``repro.kernel`` and must
    #: produce trajectories bit-identical to ``reference``, the
    #: per-request Python event loop that serves as the spec/oracle
    #: kernel; the vectorized path falls back to it for features the
    #: batched kernels do not model (preemptive GC, write buffers,
    #: per-request telemetry).  The ``REPRO_KERNEL`` environment
    #: variable overrides the default for configs that do not set it
    #: explicitly — CI uses ``REPRO_KERNEL=reference`` to run the whole
    #: tier-1 suite on the reference path as well.
    kernel: str = field(
        default_factory=lambda: os.environ.get("REPRO_KERNEL", "vectorized")
    )

    @property
    def logical_pages(self) -> int:
        """Number of LPNs exported to the host after over-provisioning."""
        return int(self.geometry.total_pages * (1.0 - self.op_ratio))

    @property
    def logical_bytes(self) -> int:
        return self.logical_pages * self.geometry.page_size

    def validate(self) -> None:
        self.geometry.validate()
        self.timing.validate()
        if not 0.0 <= self.op_ratio < 1.0:
            raise ValueError("op_ratio must be in [0, 1)")
        if not 0.0 < self.gc_watermark < 1.0:
            raise ValueError("gc_watermark must be in (0, 1)")
        if not self.gc_watermark <= self.gc_stop_watermark < 1.0:
            raise ValueError("gc_stop_watermark must be in [gc_watermark, 1)")
        if self.gc_burst_blocks < 1:
            raise ValueError("gc_burst_blocks must be >= 1")
        if self.gc_mode not in ("blocking", "preemptive"):
            raise ValueError("gc_mode must be 'blocking' or 'preemptive'")
        if self.kernel not in ("reference", "vectorized"):
            raise ValueError("kernel must be 'reference' or 'vectorized'")
        if self.write_buffer_pages < 0:
            raise ValueError("write_buffer_pages must be >= 0")
        if self.write_buffer_dram_us < 0:
            raise ValueError("write_buffer_dram_us must be >= 0")
        if self.cold_threshold < 1:
            raise ValueError("cold_threshold must be >= 1")
        if not 0.0 <= self.cold_region_ratio < 1.0:
            raise ValueError("cold_region_ratio must be in [0, 1)")
        if self.logical_pages <= 0:
            raise ValueError("configuration leaves no logical capacity")

    def scaled(self, blocks: int, channels: Optional[int] = None) -> "SSDConfig":
        """Return a copy with a different physical block count.

        Scaling the device while keeping Table I latencies is how the
        experiment harness trades run time for statistical fidelity.
        """
        geometry = replace(
            self.geometry,
            blocks=blocks,
            channels=channels if channels is not None else self.geometry.channels,
        )
        cfg = replace(self, geometry=geometry)
        cfg.validate()
        return cfg


def paper_config() -> SSDConfig:
    """The exact Table I device: 80 GB, 4 KB pages, 256 KB blocks."""
    geometry = GeometryConfig(
        channels=8,
        page_size=4 * KB,
        pages_per_block=64,
        blocks=(80 * GB) // (256 * KB),
    )
    return SSDConfig(geometry=geometry)


def paper_geometry() -> GeometryConfig:
    """Geometry of the paper's 80 GB device (327,680 blocks)."""
    return paper_config().geometry


def small_config(
    blocks: int = 256,
    channels: int = 4,
    pages_per_block: int = 32,
    **overrides: object,
) -> SSDConfig:
    """A tiny device for unit tests: fast to fill, fast to GC."""
    geometry = GeometryConfig(
        channels=channels,
        page_size=4 * KB,
        pages_per_block=pages_per_block,
        blocks=blocks,
    )
    cfg = SSDConfig(geometry=geometry, **overrides)  # type: ignore[arg-type]
    cfg.validate()
    return cfg
