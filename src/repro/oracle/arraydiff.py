"""Array-level differential harness: every device vs. the oracle.

The single-device harness (:mod:`repro.oracle.diff`) checks one FTL
against :class:`~repro.oracle.model.OracleSSD`.  The array raises a new
question the device diff cannot answer: does splitting a multi-tenant
stream across N lanes on a *shared clock* — with NCQ admission and a
GC-coordination policy reordering collection work between devices —
still leave every device in exactly the state the naive model predicts
for its share of the stream?

:func:`diff_array` answers it the same way the device-replay mode does:

1. replay the trace through a real :class:`~repro.array.SSDArray`
   (every lane's ``gc_hook`` wired to the structural invariant checker,
   so corruption trips mid-run, not just at the end);
2. re-split the trace with the pure range router — splitting is a pure
   function of LPNs, so the oracle's view of "device i's requests" is
   derived independently of the array's own routing;
3. drive one :class:`OracleSSD` per device over its sub-stream and
   compare end-state snapshots device by device.

Counters are compared exactly: coordination policies only move GC work
in *time* (deferrals, idle bursts, token hand-offs) — which pages are
live, what each LPN maps to, and every request counter stay a pure
function of the per-device request order, exactly as in the device
harness's preemptive mode.  A coordination policy that broke that —
say, dropping a deferred collection and with it a migration — shows up
here as a counter or conservation-law divergence.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.config import SSDConfig
from repro.oracle.diff import Divergence, build_scheme, compare_snapshots
from repro.oracle.fuzz import ARRAY_TENANTS, fuzz_config, lpn_span
from repro.oracle.invariants import check_all
from repro.oracle.model import OracleSSD
from repro.workloads.trace import Trace

#: device counts the array sweep exercises — each must divide the
#: ``array`` profile's tenant-quarter count so quarters map whole onto
#: devices and no fuzz extent can straddle a device boundary.
ARRAY_DEVICE_COUNTS = (1, 2, 4)


def array_pages_per_device(config: SSDConfig, devices: int) -> int:
    """Per-device LPN window covering the fuzz span's tenant quarters.

    The ``array`` fuzz profile keeps every extent inside one quarter of
    :func:`lpn_span`; exporting ``quarters/devices`` quarters per device
    makes the router split any such trace cleanly for every supported
    device count (including 1, the degenerate single-device array).
    """
    if devices not in ARRAY_DEVICE_COUNTS or ARRAY_TENANTS % devices:
        raise ValueError(
            f"devices must be one of {ARRAY_DEVICE_COUNTS}, got {devices}"
        )
    quarter = max(lpn_span(config) // ARRAY_TENANTS, 1)
    return quarter * (ARRAY_TENANTS // devices)


def diff_array(
    trace: Trace,
    devices: int = 4,
    scheme: str = "cagc",
    policy: str = "greedy",
    config: Optional[SSDConfig] = None,
    coordination: str = "independent",
    ncq_depth: int = 8,
) -> Optional[Divergence]:
    """Replay ``trace`` on a ``devices``-lane array and diff every
    device's end state against its own oracle; ``None`` when all agree.

    Divergence messages are prefixed ``device i:`` so a failing sweep
    localizes to a lane even though end-state comparison cannot
    localize to a request (the shrinker does that).
    """
    from repro.array import SSDArray

    if config is None:
        config = fuzz_config()
    if config.write_buffer_pages > 0:
        raise ValueError("the array does not model DRAM write buffers")
    pages_per_device = array_pages_per_device(config, devices)
    schemes = [build_scheme(scheme, policy, config) for _ in range(devices)]
    array = SSDArray(
        schemes,
        coordination=coordination,
        ncq_depth=ncq_depth,
        pages_per_device=pages_per_device,
    )
    for lane in array.lanes:
        lane.gc_hook = check_all
    try:
        array.replay(trace)
        for lane in array.lanes:
            check_all(lane)
    except AssertionError as exc:
        return Divergence(-1, "invariant", str(exc), scheme, policy)
    except Exception as exc:
        return Divergence(
            -1, "exception", f"{type(exc).__name__}: {exc}", scheme, policy
        )
    for device, (sub, _tenants) in enumerate(array.router.split(trace)):
        oracle = OracleSSD(scheme, counters_exact=True)
        for _, op, lpn, npages, fps in sub.iter_rows():
            oracle.apply(op, lpn, npages, fps)
        msg = compare_snapshots(
            array.lanes[device].state_snapshot(), oracle.snapshot()
        )
        if msg:
            return Divergence(
                -1,
                "state",
                f"device {device} [{coordination}]: {msg}",
                scheme,
                policy,
            )
    return None


def diff_array_kernels(
    trace: Trace,
    devices: int = 4,
    scheme: str = "cagc",
    policy: str = "greedy",
    config: Optional[SSDConfig] = None,
    coordination: str = "independent",
    ncq_depth: int = 8,
    metrics: bool = False,
) -> Optional[Divergence]:
    """Replay ``trace`` on a ``kernel=reference`` array and a
    ``kernel=vectorized`` one and return the first observable
    difference; ``None`` when the epoch kernel is bit-identical.

    The array counterpart of :func:`repro.oracle.diff.diff_kernels`:
    per-device response-time trajectories, GC/IO/wear counters,
    simulated time, state snapshots and NCQ admission counters must all
    match exactly, as must the coordinator's stats.  The always-on
    :class:`~repro.array.telemetry.ArrayTelemetry` histograms are held
    to exact bucket counts / totals / maxima; ``sum_us`` is compared to
    a relative tolerance because the epoch kernel folds each batch with
    a vectorized summation whose float addition order differs from the
    reference loop's one-at-a-time accumulation.

    With ``metrics=True`` an :class:`~repro.obs.metrics.ArrayMetrics`
    bundle is attached to both replays and the kernel-independent
    counters are diffed: the global request counter plus every
    per-device and per-tenant child.  Its latency histogram handles
    wrap the telemetry histograms compared above, so they are not
    compared twice.  Time-series sample counts and the batch/fallback
    counters are deliberately *not* compared — the two kernels clock
    the sampler differently (per completion vs per batch boundary) by
    design.
    """
    import math

    import numpy as np

    from dataclasses import replace as _dc_replace

    from repro.array import SSDArray

    if config is None:
        config = fuzz_config()
    pages_per_device = array_pages_per_device(config, devices)
    results = {}
    snapshots = {}
    meters = {}
    for kernel in ("reference", "vectorized"):
        cfg = _dc_replace(config, kernel=kernel)
        schemes = [build_scheme(scheme, policy, cfg) for _ in range(devices)]
        meter = None
        if metrics:
            from repro.obs.metrics import ArrayMetrics

            meter = ArrayMetrics()
        meters[kernel] = meter
        array = SSDArray(
            schemes,
            coordination=coordination,
            ncq_depth=ncq_depth,
            pages_per_device=pages_per_device,
            metrics=meter,
        )
        try:
            results[kernel] = array.replay(trace)
            for lane in array.lanes:
                check_all(lane)
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
        snapshots[kernel] = [lane.state_snapshot() for lane in array.lanes]
    ref, vec = results["reference"], results["vectorized"]
    for device in range(devices):
        rd, vd = ref.devices[device], vec.devices[device]
        a, b = rd.response_times_us, vd.response_times_us
        if len(a) != len(b):
            return Divergence(
                -1,
                "state",
                f"device {device} [{coordination}]: recorded "
                f"{len(a)} vs {len(b)} response times",
                scheme,
                policy,
            )
        if not np.array_equal(a, b):
            first = int(np.argmax(np.asarray(a) != np.asarray(b)))
            return Divergence(
                first,
                "state",
                f"device {device} [{coordination}]: response time "
                f"{a[first]!r} (reference) vs {b[first]!r} (vectorized)",
                scheme,
                policy,
            )
        for label, ra, rb in (
            ("simulated_us", rd.simulated_us, vd.simulated_us),
            ("gc counters", rd.gc, vd.gc),
            ("io counters", rd.io, vd.io),
            ("wear", rd.wear, vd.wear),
            ("ncq peak", ref.ncq_peaks[device], vec.ncq_peaks[device]),
            ("ncq held", ref.ncq_held[device], vec.ncq_held[device]),
            (
                "state snapshot",
                snapshots["reference"][device],
                snapshots["vectorized"][device],
            ),
        ):
            if ra != rb:
                return Divergence(
                    -1,
                    "state",
                    f"device {device} [{coordination}]: {label}: "
                    f"{ra!r} != {rb!r}",
                    scheme,
                    policy,
                )
    for label, ra, rb in (
        ("simulated_us", ref.simulated_us, vec.simulated_us),
        ("coord stats", ref.coord_stats, vec.coord_stats),
        ("tenants", ref.tenants, vec.tenants),
    ):
        if ra != rb:
            return Divergence(
                -1,
                "state",
                f"[{coordination}] {label}: {ra!r} != {rb!r}",
                scheme,
                policy,
            )
    rt, vt = ref.telemetry, vec.telemetry
    pairs = [("array", rt.hist, vt.hist)]
    pairs += [
        (f"device {i}", rh, vh)
        for i, (rh, vh) in enumerate(zip(rt.device_hists, vt.device_hists))
    ]
    pairs += [
        (f"tenant {i}", rh, vh)
        for i, (rh, vh) in enumerate(zip(rt.tenant_hists, vt.tenant_hists))
    ]
    for label, rh, vh in pairs:
        if not np.array_equal(rh.counts, vh.counts):
            return Divergence(
                -1,
                "telemetry",
                f"{label} histogram bucket counts differ",
                scheme,
                policy,
            )
        exact = (
            ("hist total", rh.total, vh.total),
            ("hist max_us", rh.max_us, vh.max_us),
        )
        for sub, ra, rb in exact:
            if ra != rb:
                return Divergence(
                    -1,
                    "telemetry",
                    f"{label} {sub}: {ra!r} != {rb!r}",
                    scheme,
                    policy,
                )
        if not math.isclose(rh.sum_us, vh.sum_us, rel_tol=1e-9, abs_tol=1e-6):
            return Divergence(
                -1,
                "telemetry",
                f"{label} hist sum_us: {rh.sum_us!r} != {vh.sum_us!r}",
                scheme,
                policy,
            )
    if metrics:
        rm, vm = meters["reference"], meters["vectorized"]
        counter_pairs = [("requests counter", rm.requests, vm.requests)]
        counter_pairs += [
            (f"device {i} requests", ra, rb)
            for i, (ra, rb) in enumerate(zip(rm._device_req, vm._device_req))
        ]
        counter_pairs += [
            (f"tenant {i} requests", ra, rb)
            for i, (ra, rb) in enumerate(zip(rm._tenant_req, vm._tenant_req))
        ]
        for label, ra, rb in counter_pairs:
            if ra.value != rb.value:
                return Divergence(
                    -1,
                    "metrics",
                    f"{label}: {ra.value!r} != {rb.value!r}",
                    scheme,
                    policy,
                )
    return None


def make_array_divergence_predicate(
    devices: int = 4,
    scheme: str = "cagc",
    policy: str = "greedy",
    config: Optional[SSDConfig] = None,
    coordination: str = "independent",
    ncq_depth: int = 8,
) -> Callable[[Trace], bool]:
    """Shrinker predicate: does ``trace`` still diverge on the array?

    The array counterpart of
    :func:`repro.oracle.shrink.make_divergence_predicate` — hand it to
    :func:`repro.oracle.shrink.shrink_trace`.  Shrinking drops whole
    requests, which can only shed extents from tenant quarters, so
    every shrunken candidate still routes cleanly.
    """
    if config is None:
        config = fuzz_config()

    def predicate(trace: Trace) -> bool:
        return (
            diff_array(
                trace,
                devices=devices,
                scheme=scheme,
                policy=policy,
                config=config,
                coordination=coordination,
                ncq_depth=ncq_depth,
            )
            is not None
        )

    return predicate


__all__ = [
    "ARRAY_DEVICE_COUNTS",
    "array_pages_per_device",
    "diff_array",
    "diff_array_kernels",
    "make_array_divergence_predicate",
]
