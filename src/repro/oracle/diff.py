"""Differential harness: real FTL vs. reference oracle.

:func:`diff_trace` replays one trace through the real FTL stack and
through :class:`repro.oracle.model.OracleSSD` simultaneously and
reports the **first** request at which they disagree — on the logical
content map, per-content referrer counts, live-page bounds, read
results, request counters, the program/erase conservation laws, or any
structural invariant (:func:`repro.oracle.invariants.check_all` runs
after every GC burst and at end of trace).

Two drive modes:

* **step** (default) — requests are applied one at a time through the
  scheme-level API with blocking-GC semantics, exactly the state
  transitions ``device.ssd.SSD`` performs in FIFO service order.  This
  is what gives request-granular divergence localization, which the
  shrinker relies on.
* **device replay** — the trace runs through a real event-driven
  :class:`repro.device.ssd.SSD` (``gc_hook`` wired to the invariant
  checker) and only end states are compared.  Configurations whose
  state transitions are not a pure function of request order
  (``gc_mode="preemptive"``, a DRAM write buffer) are forced onto this
  mode automatically; with a write buffer the request counters are no
  longer content-predictable, so only state is compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config import SSDConfig
from repro.ftl.gc import make_policy
from repro.ftl.gc.region_aware import RegionAwarePolicy
from repro.oracle.invariants import check_all
from repro.oracle.model import OracleSSD, OracleSnapshot
from repro.schemes import make_scheme
from repro.schemes.base import FTLScheme, StateSnapshot
from repro.workloads.request import OpKind
from repro.workloads.trace import Trace

ALL_SCHEMES = ("baseline", "inline-dedupe", "cagc", "lba-hotcold")
#: The four victim-selection behaviours the paper's sensitivity study
#: spans: three base policies plus the hot-first region-aware wrapper.
ALL_POLICIES = ("greedy", "cost-benefit", "random", "region-aware")


@dataclass(frozen=True)
class Divergence:
    """First point at which the real device and the oracle disagreed."""

    #: index of the request being (or just) applied; -1 when the
    #: failure could not be localized (device-replay mode).
    request_index: int
    #: ``state`` (snapshot mismatch), ``invariant`` (check_all failure),
    #: ``exception`` (the real stack crashed), ``metrics`` (attached
    #: metrics aggregates differ between kernels) or ``telemetry`` (the
    #: array's latency histograms differ between kernels).
    kind: str
    message: str
    scheme: str
    policy: str

    def __str__(self) -> str:
        where = (
            f"request {self.request_index}"
            if self.request_index >= 0
            else "end of replay"
        )
        return (
            f"[{self.scheme}/{self.policy}] {self.kind} divergence at "
            f"{where}: {self.message}"
        )


def build_scheme(scheme: str, policy: str, config: SSDConfig) -> FTLScheme:
    """Instantiate ``scheme`` with ``policy`` (including the
    ``region-aware`` wrapper over greedy)."""
    if policy == "region-aware":
        built = make_scheme(scheme, config)  # default greedy base
        built.policy = RegionAwarePolicy(built.policy, built.allocator)
        return built
    return make_scheme(scheme, config, policy=make_policy(policy))


def _first_dict_diff(name: str, real: dict, oracle: dict) -> Optional[str]:
    if real == oracle:
        return None
    for key in sorted(set(real) | set(oracle)):
        rv, ov = real.get(key), oracle.get(key)
        if rv != ov:
            return (
                f"{name} mismatch at key {key}: real={rv} oracle={ov} "
                f"(sizes {len(real)}/{len(oracle)})"
            )
    return f"{name} mismatch"  # pragma: no cover - unreachable


def compare_snapshots(real: StateSnapshot, oracle: OracleSnapshot) -> Optional[str]:
    """First discrepancy between the two views, or ``None``."""
    msg = _first_dict_diff("logical content", real.content, oracle.content)
    if msg:
        return msg
    msg = _first_dict_diff(
        "content referrers", real.content_referrers, oracle.content_referrers
    )
    if msg:
        return msg
    if not oracle.live_pages_min <= real.live_pages <= oracle.live_pages_max:
        return (
            f"live pages {real.live_pages} outside oracle bounds "
            f"[{oracle.live_pages_min}, {oracle.live_pages_max}]"
        )
    if oracle.counters_exact:
        for field in (
            "write_requests",
            "read_requests",
            "trim_requests",
            "logical_pages_written",
            "pages_read",
            "user_pages_programmed",
            "inline_dedup_hits",
        ):
            rv = getattr(real, field)
            ov = getattr(oracle, field)
            if rv != ov:
                return f"counter {field}: real={rv} oracle={ov}"
    if real.total_programs != real.user_pages_programmed + real.pages_migrated:
        return (
            f"program conservation: flash={real.total_programs} != user "
            f"{real.user_pages_programmed} + migrated {real.pages_migrated}"
        )
    if real.total_erases != real.blocks_erased:
        return (
            f"erase conservation: flash={real.total_erases} != GC "
            f"{real.blocks_erased}"
        )
    return None


def _check_invariants(scheme: FTLScheme, accounting: bool = True) -> Optional[str]:
    try:
        check_all(scheme, accounting=accounting)
    except AssertionError as exc:
        return str(exc)
    return None


def diff_trace(
    trace: Trace,
    scheme: str = "baseline",
    policy: str = "greedy",
    config: Optional[SSDConfig] = None,
    check_every: int = 1,
    device_replay: bool = False,
) -> Optional[Divergence]:
    """Replay ``trace`` through the real FTL and the oracle; return the
    first :class:`Divergence`, or ``None`` when they agree throughout.
    """
    if config is None:
        from repro.oracle.fuzz import fuzz_config

        config = fuzz_config()
    if config.gc_mode != "blocking" or config.write_buffer_pages > 0:
        # State transitions depend on idle timing / buffer eviction
        # order; only end states are meaningfully comparable.
        device_replay = True
    if device_replay:
        return _diff_device_replay(trace, scheme, policy, config)
    return _diff_stepwise(trace, scheme, policy, config, check_every)


def _diff_stepwise(
    trace: Trace,
    scheme_name: str,
    policy: str,
    config: SSDConfig,
    check_every: int,
) -> Optional[Divergence]:
    scheme = build_scheme(scheme_name, policy, config)
    oracle = OracleSSD(scheme_name)
    op_write, op_read, op_trim = int(OpKind.WRITE), int(OpKind.READ), int(OpKind.TRIM)

    def diverged(i: int, kind: str, message: str) -> Divergence:
        return Divergence(i, kind, message, scheme_name, policy)

    last = -1
    for i, (now, op, lpn, npages, fps) in enumerate(trace.iter_rows()):
        last = i
        real_mapped = None
        try:
            if op == op_write:
                # Blocking-mode device semantics: the GC watermark is
                # checked (and a burst run) before the write lands.
                if scheme.needs_gc():
                    scheme.run_gc(now)
                    msg = _check_invariants(scheme)
                    if msg:
                        return diverged(i, "invariant", f"after GC: {msg}")
                scheme.write_request(lpn, fps, now)
            elif op == op_read:
                real_mapped = scheme.read_request(lpn, npages)
            elif op == op_trim:
                scheme.trim_request(lpn, npages, now)
            else:
                raise ValueError(f"unknown opcode {op}")
        except AssertionError as exc:
            return diverged(i, "invariant", str(exc))
        except Exception as exc:  # the real stack crashed
            return diverged(i, "exception", f"{type(exc).__name__}: {exc}")
        if op == op_write:
            oracle.write(lpn, fps)
        elif op == op_read:
            oracle_mapped = oracle.read(lpn, npages)
            if real_mapped != oracle_mapped:
                return diverged(
                    i,
                    "state",
                    f"read({lpn}, {npages}) mapped {real_mapped} pages, "
                    f"oracle says {oracle_mapped}",
                )
        else:
            oracle.trim(lpn, npages)
        if (i + 1) % check_every == 0:
            msg = compare_snapshots(scheme.state_snapshot(), oracle.snapshot())
            if msg:
                return diverged(i, "state", msg)
    msg = _check_invariants(scheme)
    if msg:
        return diverged(last, "invariant", f"end of trace: {msg}")
    msg = compare_snapshots(scheme.state_snapshot(), oracle.snapshot())
    if msg:
        return diverged(last, "state", msg)
    return None


def _diff_device_replay(
    trace: Trace, scheme_name: str, policy: str, config: SSDConfig
) -> Optional[Divergence]:
    from repro.device.ssd import SSD

    scheme = build_scheme(scheme_name, policy, config)
    ssd = SSD(scheme)
    ssd.gc_hook = check_all
    counters_exact = config.write_buffer_pages == 0
    try:
        ssd.replay(trace)
        check_all(ssd)
    except AssertionError as exc:
        return Divergence(-1, "invariant", str(exc), scheme_name, policy)
    except Exception as exc:
        return Divergence(
            -1, "exception", f"{type(exc).__name__}: {exc}", scheme_name, policy
        )
    oracle = OracleSSD(scheme_name, counters_exact=counters_exact)
    for _, op, lpn, npages, fps in trace.iter_rows():
        oracle.apply(op, lpn, npages, fps)
    msg = compare_snapshots(ssd.state_snapshot(), oracle.snapshot())
    if msg:
        return Divergence(-1, "state", msg, scheme_name, policy)
    return None


def diff_kernels(
    trace: Trace,
    scheme: str = "baseline",
    policy: str = "greedy",
    config: Optional[SSDConfig] = None,
    metrics: bool = False,
) -> Optional[Divergence]:
    """Replay ``trace`` under ``kernel=reference`` and
    ``kernel=vectorized`` and return the first observable difference.

    Unlike :func:`diff_trace` this diffs the two replay *paths* against
    each other, not against the naive model.  The kernel contract is
    bit identity, so everything a replay produces must match exactly:
    the per-request response-time trajectory, the GC/IO counters, wear,
    simulated time, and the full logical state snapshot.  Structural
    invariants are checked on both devices so a divergence that keeps
    the snapshots equal but corrupts internal bookkeeping still trips.

    With ``metrics=True`` a ``DeviceMetrics`` bundle is attached to
    both replays (the vectorized path folds it per batch) and the
    kernel-independent aggregates are diffed: the request counter and
    the latency histogram's counts/total/sum/max, all bit-exact.
    Time-series sample counts and the batch counters are deliberately
    *not* compared — the two kernels clock the sampler differently
    (per completion vs per batch boundary) by design.
    """
    import numpy as np

    from dataclasses import replace as _dc_replace

    from repro.device.ssd import SSD

    if config is None:
        from repro.oracle.fuzz import fuzz_config

        config = fuzz_config()
    results = {}
    snapshots = {}
    meters = {}
    for kernel in ("reference", "vectorized"):
        cfg = _dc_replace(config, kernel=kernel)
        meter = None
        if metrics:
            from repro.obs.metrics import DeviceMetrics

            meter = DeviceMetrics()
        meters[kernel] = meter
        ssd = SSD(build_scheme(scheme, policy, cfg), metrics=meter)
        try:
            results[kernel] = ssd.replay(trace)
            check_all(ssd)
        except AssertionError as exc:
            return Divergence(-1, "invariant", f"[{kernel}] {exc}", scheme, policy)
        except Exception as exc:
            return Divergence(
                -1,
                "exception",
                f"[{kernel}] {type(exc).__name__}: {exc}",
                scheme,
                policy,
            )
        snapshots[kernel] = ssd.state_snapshot()
    ref, vec = results["reference"], results["vectorized"]
    a, b = ref.response_times_us, vec.response_times_us
    if len(a) != len(b):
        return Divergence(
            -1,
            "state",
            f"recorded {len(a)} vs {len(b)} response times",
            scheme,
            policy,
        )
    if not np.array_equal(a, b):
        first = int(np.argmax(a != b))
        return Divergence(
            first,
            "state",
            f"response time {a[first]!r} (reference) vs {b[first]!r} (vectorized)",
            scheme,
            policy,
        )
    for label, ra, rb in (
        ("simulated_us", ref.simulated_us, vec.simulated_us),
        ("gc counters", ref.gc, vec.gc),
        ("io counters", ref.io, vec.io),
        ("wear", ref.wear, vec.wear),
        ("state snapshot", snapshots["reference"], snapshots["vectorized"]),
    ):
        if ra != rb:
            return Divergence(
                -1, "state", f"{label}: {ra!r} != {rb!r}", scheme, policy
            )
    if metrics:
        rm, vm = meters["reference"], meters["vectorized"]
        rh, vh = rm.latency.hist, vm.latency.hist
        if not np.array_equal(rh.counts, vh.counts):
            return Divergence(
                -1, "metrics", "latency histogram bucket counts differ", scheme, policy
            )
        for label, ra, rb in (
            ("requests counter", rm.requests.value, vm.requests.value),
            ("hist total", rh.total, vh.total),
            ("hist sum_us", rh.sum_us, vh.sum_us),
            ("hist max_us", rh.max_us, vh.max_us),
        ):
            if ra != rb:
                return Divergence(
                    -1, "metrics", f"{label}: {ra!r} != {rb!r}", scheme, policy
                )
    return None
