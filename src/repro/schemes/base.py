"""Common FTL machinery shared by all three schemes.

An :class:`FTLScheme` owns the full FTL state — flash array, block
allocator, mapping table, fingerprint index, refcount tracker — and
implements the state transitions for user I/O and garbage collection.
Subclasses specialize three points:

* :meth:`write_page` — what happens on one logical page write
  (Baseline: always program; Inline-Dedupe: hash-then-maybe-program;
  CAGC: program, dedup deferred to GC);
* :meth:`collect_block` — how a victim block's valid pages migrate
  (Baseline/Inline: plain copy; CAGC: dedup + refcount placement with
  the overlapped hash pipeline);
* service-time composition hooks used by the device layer.

The scheme mutates state and reports *structural* outcomes (pages
programmed, pages hashed, GC durations); the device layer turns those
into response times.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import SSDConfig
from repro.dedup.fingerprint import PageFingerprints
from repro.dedup.index import FingerprintIndex
from repro.dedup.refcount import PeakStore, RefcountTracker
from repro.flash.chip import FlashArray, PageState
from repro.flash.timing import FlashTiming
from repro.ftl.allocator import BlockAllocator, Region, WearAwareAllocator
from repro.ftl.gc import make_policy
from repro.ftl.gc.index import VictimIndex
from repro.ftl.gc.policy import VictimPolicy
from repro.ftl.mapping import MappingTable
from repro.ftl.wear import WearStats, wear_stats
from repro.metrics.counters import GCCounters, IOCounters


@dataclass(frozen=True)
class WriteOutcome:
    """Structural result of one user write request."""

    #: physical page programs performed (drives flash write time).
    programs: int
    #: pages hashed on the critical path (inline dedup only).
    hashed_pages: int
    #: pages satisfied by inline dedup hits.
    dedup_hits: int


@dataclass(frozen=True)
class StateSnapshot:
    """Scheme-independent view of the FTL state for differential
    comparison against :class:`repro.oracle.model.OracleSSD`.

    Everything here is derived from the live structures at call time
    (O(live pages)); nothing is cached, so a snapshot is always honest.
    """

    #: LPN -> content fingerprint for every live logical page.
    content: Dict[int, int]
    #: content fingerprint -> total LPN referrers across all physical
    #: copies of that content.
    content_referrers: Dict[int, int]
    #: live (mapped) physical pages.
    live_pages: int
    write_requests: int
    read_requests: int
    trim_requests: int
    logical_pages_written: int
    pages_read: int
    user_pages_programmed: int
    inline_dedup_hits: int
    total_programs: int
    total_erases: int
    blocks_erased: int
    pages_migrated: int
    free_blocks: int


@dataclass(frozen=True)
class GCBlockOutcome:
    """Structural + timing result of collecting one victim block."""

    victim: int
    duration_us: float
    pages_examined: int
    pages_migrated: int
    dedup_skipped: int
    promotions: int
    #: per-resource busy-time attribution (µs) for this block — how long
    #: the read path / hash lanes / write path / erase were occupied.
    #: Computed analytically from the page counts, so it costs nothing
    #: on the hot path; folds into ``GCCounters.gc_*_us``.
    read_us: float = 0.0
    hash_us: float = 0.0
    write_us: float = 0.0
    erase_us: float = 0.0


def _watermark_blocks(watermark: float, blocks: int) -> int:
    """Smallest free-block count at/above ``watermark``.

    Returns ``t`` such that ``free < t  <=>  free / blocks < watermark``
    for every integer ``free`` — the exact integer form of the float
    fraction comparison, so the hot path can test a plain ``int`` per
    write instead of dividing.
    """
    t = int(watermark * blocks)
    while t > 0 and (t - 1) / blocks >= watermark:
        t -= 1
    while t < blocks and t / blocks < watermark:
        t += 1
    return t


class FTLScheme(abc.ABC):
    """Base FTL: state, bookkeeping, and the GC driver loop."""

    name: str = "abstract"

    #: Schemes whose foreground write path is "always program into the
    #: hot region" (no per-page hashing) set this to take the bulk
    #: write_request fast path: contiguous pages program in block-sized
    #: runs with one mapping-bind sweep instead of a per-page call chain.
    bulk_user_writes: bool = False

    def __init__(
        self,
        config: SSDConfig,
        policy: Optional[VictimPolicy] = None,
    ) -> None:
        config.validate()
        self.config = config
        self.timing = FlashTiming(config.timing)
        self.flash = FlashArray(config.geometry)
        allocator_cls = (
            WearAwareAllocator if config.wear_aware_allocation else BlockAllocator
        )
        self.allocator = allocator_cls(self.flash)
        # Columnar state, sized once from the device geometry: the
        # LPN/PPN columns never grow (a key past one raises), and the
        # footprint is the geometry-proportional figure a real FTL
        # would budget.
        n_pages = config.geometry.total_pages
        self.mapping = MappingTable(
            logical_pages=config.logical_pages, physical_pages=n_pages
        )
        self.index = FingerprintIndex(physical_pages=n_pages)
        self.tracker = RefcountTracker(peaks=PeakStore(n_pages))
        #: content fingerprint of every live physical page.
        self.page_fp = PageFingerprints(n_pages)
        self.policy = policy if policy is not None else make_policy("greedy")
        #: Optional :class:`repro.obs.Tracer`.  The device layer sets
        #: this when the run is traced; every instrumentation site below
        #: is predicated on ``tracer is not None`` so an untraced run
        #: pays one attribute test per site.
        self.tracer = None
        #: Incremental GC candidate index; kept in sync by the flash
        #: array's mutation hooks from here on.
        self.victim_index = VictimIndex(self.flash)
        self.flash.victim_index = self.victim_index
        self.gc_counters = GCCounters()
        self.io_counters = IOCounters()
        # Integer free-block thresholds equivalent to the configured
        # watermark fractions (checked on every write; see needs_gc).
        blocks = self.flash.blocks
        self._gc_trigger_blocks = _watermark_blocks(config.gc_watermark, blocks)
        self._gc_stop_blocks = _watermark_blocks(config.gc_stop_watermark, blocks)

    # ------------------------------------------------------------------ user I/O

    def write_request(self, lpn: int, fps: Sequence[int], now_us: float) -> WriteOutcome:
        """Apply an n-page write; returns the aggregate outcome."""
        # One bulk ndarray -> list conversion instead of one int() boxing
        # per page (fps is a view into the trace's flat fingerprint array).
        values = fps.tolist() if hasattr(fps, "tolist") else list(fps)
        if self.bulk_user_writes:
            programs = self._bulk_program_hot(lpn, values, now_us)
            hashed = 0
            hits = 0
        else:
            programs = 0
            hashed = 0
            hits = 0
            write_page = self.write_page
            for offset, fp in enumerate(values):
                out = write_page(lpn + offset, fp, now_us)
                programs += out.programs
                hashed += out.hashed_pages
                hits += out.dedup_hits
        io = self.io_counters
        io.write_requests += 1
        io.logical_pages_written += len(values)
        io.user_pages_programmed += programs
        io.inline_dedup_hits += hits
        return WriteOutcome(programs=programs, hashed_pages=hashed, dedup_hits=hits)

    def _bulk_program_hot(self, lpn: int, values: Sequence[int], now_us: float) -> int:
        """Program ``values`` into the hot region in block-sized runs.

        The fast path for schemes without foreground hashing: the flash
        programs land as one :meth:`BlockAllocator.allocate_run` sweep
        per active-block stretch, then a single loop binds mappings,
        records fingerprints and releases overwritten pages — the same
        state transitions as per-page :meth:`write_page` calls, minus
        the per-page call chain and NumPy scalar traffic.
        """
        n = len(values)
        self._note_user_writes(lpn, n)
        allocator = self.allocator
        bind = self.mapping.bind
        # Raw columns: allocated PPNs are in range by construction and
        # trace fingerprints are non-negative, so the flat stores can be
        # indexed directly instead of through their dict-protocol shims.
        fp_col = self.page_fp.column()
        peak_col = self.tracker.peaks.column()
        release_if_dead = self._release_if_dead
        done = 0
        while done < n:
            base, count = allocator.allocate_run(Region.HOT, n - done, now_us)
            for i in range(count):
                ppn = base + i
                old = bind(lpn + done + i, ppn)
                fp_col[ppn] = values[done + i]
                if peak_col[ppn] < 1:  # tracker.observe(ppn, 1), inlined
                    peak_col[ppn] = 1
                if old is not None and old != ppn:
                    release_if_dead(old)
            done += count
        return n

    def _note_user_writes(self, lpn: int, npages: int) -> None:
        """Hook for per-LPN bookkeeping on the bulk write path (the
        spatial hot/cold scheme counts write frequency here)."""

    def _note_user_trim(self, lpn: int, npages: int) -> None:
        """Hook for per-LPN bookkeeping on trims (the spatial hot/cold
        scheme forgets the extent's write counts here)."""

    def destage(self, pages: Sequence[Tuple[int, int]], now_us: float) -> WriteOutcome:
        """Apply write-buffer destages: ``(lpn, fp)`` pairs, possibly
        discontiguous.  Accounted like user page writes (they are the
        flash-visible write traffic)."""
        programs = 0
        hashed = 0
        hits = 0
        for lpn, fp in pages:
            out = self.write_page(lpn, fp, now_us)
            programs += out.programs
            hashed += out.hashed_pages
            hits += out.dedup_hits
        self.io_counters.logical_pages_written += len(pages)
        self.io_counters.user_pages_programmed += programs
        self.io_counters.inline_dedup_hits += hits
        return WriteOutcome(programs=programs, hashed_pages=hashed, dedup_hits=hits)

    def read_request(self, lpn: int, npages: int) -> int:
        """Apply an n-page read; returns pages that are actually mapped."""
        self.io_counters.read_requests += 1
        self.io_counters.pages_read += npages
        return self.mapping.mapped_count(lpn, npages)

    def trim_request(self, lpn: int, npages: int, now_us: float) -> int:
        """Drop mappings for an extent (file delete); returns pages trimmed."""
        self._note_user_trim(lpn, npages)
        self.io_counters.trim_requests += 1
        trimmed = 0
        for offset in range(npages):
            old = self.mapping.unbind(lpn + offset)
            if old is not None:
                self._release_if_dead(old)
                trimmed += 1
        return trimmed

    @abc.abstractmethod
    def write_page(self, lpn: int, fp: int, now_us: float) -> WriteOutcome:
        """Apply a single logical page write."""

    # ------------------------------------------------------------------ GC driver

    def needs_gc(self) -> bool:
        return self.allocator.free_blocks < self._gc_trigger_blocks

    def needs_background_gc(self) -> bool:
        """Idle-time GC runs until the stop watermark (preemptive mode)."""
        return self.allocator.free_blocks < self._gc_stop_blocks

    def run_gc(self, now_us: float) -> float:
        """Run a GC burst until the stop watermark; returns busy time."""
        if not self.needs_gc():
            return 0.0
        self.gc_counters.gc_invocations += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.begin("gc", "gc-burst", now_us, free_blocks=self.allocator.free_blocks)
        duration = 0.0
        stop = self._gc_stop_blocks
        burst = 0
        while (
            self.allocator.free_blocks < stop
            and burst < self.config.gc_burst_blocks
        ):
            burst += 1
            victim = self.policy.select_indexed(
                self.flash, self.victim_index, now_us + duration
            )
            if victim is None:
                break
            if tracer is not None:
                tracer.instant("gc", "victim-select", now_us + duration, victim=victim)
            outcome = self.collect_block(victim, now_us + duration)
            duration += outcome.duration_us
        if tracer is not None:
            tracer.end(
                "gc", now_us + duration,
                blocks=burst, free_blocks=self.allocator.free_blocks,
            )
        return duration

    def collect_next(self, now_us: float) -> float:
        """Collect exactly one victim block; returns its duration.

        The incremental unit of preemptive/idle GC (see :meth:`reclaim`).
        Returns 0.0 when no victim is eligible.
        """
        victim = self.policy.select_indexed(self.flash, self.victim_index, now_us)
        if victim is None:
            return 0.0
        tracer = self.tracer
        if tracer is not None:
            tracer.instant("gc", "victim-select", now_us, victim=victim, idle=True)
        return self.collect_block(victim, now_us).duration_us

    def reclaim(
        self,
        now_us: float,
        floor_blocks: Optional[int] = None,
        max_victims: Optional[int] = None,
    ) -> float:
        """Collect victims one at a time until ``floor_blocks`` blocks
        are free; returns the busy time.

        The one loop behind every GC that is not a blocking burst: the
        preemptive device and a coordinated array lane restore
        :meth:`reserve_blocks` before a write; idle-time GC reclaims
        toward the stop watermark (the default floor), at most
        ``max_victims`` blocks per call.  A victim-less or zero-duration
        collect ends the loop.
        """
        if floor_blocks is None:
            floor_blocks = self._gc_stop_blocks
        allocator = self.allocator
        duration = 0.0
        victims = 0
        while allocator.free_blocks < floor_blocks and (
            max_victims is None or victims < max_victims
        ):
            chunk = self.collect_next(now_us + duration)
            if chunk <= 0.0:
                break
            duration += chunk
            victims += 1
        return duration

    def reserve_blocks(self) -> int:
        """Free-block floor preemptive GC restores before a write."""
        return max(4, self.flash.blocks // 100)

    def collect_block(self, victim: int, now_us: float) -> GCBlockOutcome:
        """Migrate valid pages out of ``victim`` and erase it.

        Base implementation is the traditional GC of Fig 3: copy every
        valid page (read + write), then erase.  No content awareness.
        """
        valid = self.flash.valid_ppns_in(victim)
        for ppn in valid:
            self._migrate_page(ppn, self._migration_region(ppn), now_us)
        self._erase_victim(victim)
        return self._plain_copy_done(victim, len(valid), now_us)

    def _plain_copy_done(self, victim: int, n: int, now_us: float) -> GCBlockOutcome:
        """Outcome, trace spans and counters of a plain copy of ``n``
        valid pages out of the already-erased ``victim``."""
        timing = self.timing
        outcome = GCBlockOutcome(
            victim=victim,
            duration_us=timing.gc_migrate_us(n),
            pages_examined=n,
            pages_migrated=n,
            dedup_skipped=0,
            promotions=0,
            read_us=n * timing.read_us,
            hash_us=0.0,
            write_us=n * timing.write_us,
            erase_us=timing.erase_us,
        )
        tracer = self.tracer
        if tracer is not None:
            # Traditional serial GC (Fig 3): each page is read then
            # rewritten back-to-back, so one copy span plus the erase
            # tells the whole per-block story.
            copy_us = n * (timing.read_us + timing.write_us)
            tracer.span("gc", "copy-valid", now_us, copy_us, victim=victim, pages=n)
            tracer.span("gc", "erase", now_us + copy_us, timing.erase_us, victim=victim)
        self._account_gc(outcome)
        return outcome

    # ------------------------------------------------------------------ helpers

    def _account_gc(self, outcome: GCBlockOutcome) -> None:
        """Fold one collected block into the run's GC counters."""
        self.gc_counters.merge_block(
            pages_examined=outcome.pages_examined,
            pages_migrated=outcome.pages_migrated,
            dedup_skipped=outcome.dedup_skipped,
            promotions=outcome.promotions,
            duration_us=outcome.duration_us,
            read_us=outcome.read_us,
            hash_us=outcome.hash_us,
            write_us=outcome.write_us,
            erase_us=outcome.erase_us,
        )

    def _migration_region(self, ppn: int) -> int:
        """Region a migrated page is rewritten into (default: keep)."""
        region = self.allocator.region_of(self.flash.geometry.ppn_to_block(ppn))
        return region if region in (Region.HOT, Region.COLD) else Region.HOT

    def _migrate_page(self, ppn: int, region: int, now_us: float) -> int:
        """Copy one valid page to ``region``; all metadata follows it."""
        new_ppn = self.allocator.allocate_page(region, now_us)
        self.mapping.remap_ppn(ppn, new_ppn)
        if self.index.contains_ppn(ppn):
            self.index.move(ppn, new_ppn)
        fp = self.page_fp.pop(ppn, None)
        if fp is not None:
            self.page_fp[new_ppn] = fp
        self.tracker.rekey(ppn, new_ppn)
        self.flash.invalidate(ppn)
        return new_ppn

    def _erase_victim(self, victim: int) -> None:
        self.flash.erase(victim)
        self.allocator.release_block(victim)

    def _program_new(self, lpn: int, fp: int, region: int, now_us: float) -> int:
        """Program a fresh page for ``lpn`` and bind it; handles the old
        page's reference bookkeeping."""
        ppn = self.allocator.allocate_page(region, now_us)
        old = self.mapping.bind(lpn, ppn)
        self.page_fp[ppn] = fp
        self.tracker.observe(ppn, 1)
        if old is not None and old != ppn:
            self._release_if_dead(old)
        return ppn

    def _release_if_dead(self, ppn: int) -> None:
        """Invalidate a physical page once its last referrer is gone."""
        if self.mapping.refcount(ppn) == 0:
            self.flash.invalidate(ppn)
            self.index.remove_ppn(ppn)
            self.tracker.invalidated(ppn)
            self.page_fp.pop(ppn, None)

    # ------------------------------------------------------------------ inspection

    def live_logical_pages(self) -> int:
        return len(self.mapping)

    def wear(self) -> WearStats:
        return wear_stats(self.flash)

    def logical_content(self) -> Dict[int, int]:
        """LPN -> content fingerprint for every mapped page.

        The read-back oracle for correctness tests: whatever the scheme,
        GC activity and dedup must never change this map (other than by
        user writes/trims themselves).
        """
        return {
            lpn: self.page_fp[ppn]
            for ppn in self.mapping.mapped_ppns()
            for lpn in self.mapping.lpns_of(ppn)
        }

    def state_snapshot(self) -> StateSnapshot:
        """Capture the comparable state for the differential oracle."""
        mapping = self.mapping
        page_fp = self.page_fp
        referrers: Dict[int, int] = {}
        live = 0
        for ppn in mapping.mapped_ppns():
            live += 1
            fp = page_fp[ppn]
            referrers[fp] = referrers.get(fp, 0) + mapping.refcount(ppn)
        io = self.io_counters
        gc = self.gc_counters
        return StateSnapshot(
            content=self.logical_content(),
            content_referrers=referrers,
            live_pages=live,
            write_requests=io.write_requests,
            read_requests=io.read_requests,
            trim_requests=io.trim_requests,
            logical_pages_written=io.logical_pages_written,
            pages_read=io.pages_read,
            user_pages_programmed=io.user_pages_programmed,
            inline_dedup_hits=io.inline_dedup_hits,
            total_programs=self.flash.total_programs,
            total_erases=self.flash.total_erases,
            blocks_erased=gc.blocks_erased,
            pages_migrated=gc.pages_migrated,
            free_blocks=self.allocator.free_blocks,
        )

    def check_invariants(self) -> None:
        """Full cross-structure consistency check (tests only: O(pages))."""
        self.flash.check_invariants()
        self.allocator.check_invariants()
        self.mapping.check_invariants()
        self.index.check_invariants()
        self.victim_index.check_consistency(self.allocator)
        for ppn in self.mapping.mapped_ppns():
            if self.flash.state_of(ppn) != PageState.VALID:
                raise AssertionError(f"mapped ppn {ppn} not VALID in flash")
            if ppn not in self.page_fp:
                raise AssertionError(f"mapped ppn {ppn} has no fingerprint")
        for ppn in self.page_fp:
            if self.mapping.refcount(ppn) == 0:
                raise AssertionError(f"page_fp holds dead ppn {ppn}")
