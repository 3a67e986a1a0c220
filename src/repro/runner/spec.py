"""Work-unit abstraction for the experiment runner.

A :class:`RunSpec` is a frozen, hashable description of exactly one
simulation: which Table II workload preset to replay, under which FTL
scheme, victim policy, trace seed and experiment scale — plus optional
config/trace overrides, scheme options and device choice so that the
ablation sweeps (threshold, OP space, GC mode, channel counts, ...) are
expressible as specs too.  Every paper figure and ablation decomposes
into a fan-out of independent specs, so the spec is the unit of
scheduling (process-pool fan-out) and of caching (persistent result
store keyed by :meth:`RunSpec.key`).

The key is a *content hash*: a SHA-256 over the canonical JSON of the
spec fields plus the cache schema version, so it is stable across
processes and Python versions (unlike ``hash()``) and changes whenever
the serialized result format changes.

Override fields are sorted ``(key, value)`` tuples (kept canonical by
``__post_init__``) with JSON-serializable values.  Config override keys
may be dotted to reach the nested dataclasses: ``"timing.hash_us"``
builds a ``TimingConfig(hash_us=...)``, ``"geometry.channels"`` rewrites
the scale's geometry.  :func:`freeze_overrides` builds the tuples from a
mapping or kwargs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.runner.serialize import SCHEMA_VERSION

#: override tuples: sorted ((key, value), ...) with JSON values.
Overrides = Tuple[Tuple[str, Any], ...]


def freeze_overrides(
    mapping: Optional[Mapping[str, Any]] = None, **kwargs: Any
) -> Overrides:
    """Canonical override tuple from a mapping and/or kwargs.

    Use the mapping form for dotted keys (``{"timing.hash_us": 2.0}``)
    that are not valid Python identifiers.
    """
    merged: Dict[str, Any] = dict(mapping or {})
    merged.update(kwargs)
    return tuple(sorted(merged.items()))


@dataclass(frozen=True)
class RunSpec:
    """One (workload, scheme, policy, seed, scale) simulation."""

    workload: str
    scheme: str
    policy: str = "greedy"
    seed: int = 0
    scale: str = "bench"
    #: SSDConfig field overrides; dotted keys reach timing/geometry.
    config_overrides: Overrides = ()
    #: keyword overrides for the scale's trace builder (fill_factor, ...).
    trace_overrides: Overrides = ()
    #: scheme-constructor options (cagc only): ``prefer_hot_victims``,
    #: ``placement`` ("never-cold").
    scheme_options: Overrides = ()
    #: controller: "single" (FlashSim-style queue) or "parallel".
    device: str = "single"
    #: 0 = one bare device (the historical path).  N >= 1 replays the
    #: workload on an N-device :class:`repro.array.SSDArray` instead,
    #: with ``tenants`` per-tenant traces multiplexed across it.
    array_devices: int = 0
    #: tenant streams multiplexed onto the array (array runs only).
    tenants: int = 1
    #: array GC coordination: independent | staggered | global-token.
    gc_coord: str = "independent"
    #: per-device NCQ admission window (array runs only).
    ncq_depth: int = 32

    def __post_init__(self) -> None:
        # Canonicalize: same overrides in any order -> equal spec, equal
        # hash, equal cache key.
        for name in ("config_overrides", "trace_overrides", "scheme_options"):
            value = tuple(sorted(tuple(item) for item in getattr(self, name)))
            object.__setattr__(self, name, value)
        if self.array_devices < 0:
            raise ValueError(f"array_devices must be >= 0, got {self.array_devices}")
        if self.array_devices:
            for name in ("tenants", "ncq_depth"):
                if getattr(self, name) < 1:
                    raise ValueError(
                        f"{name} must be >= 1 for array runs, got {getattr(self, name)}"
                    )
            if self.device != "single":
                raise ValueError(
                    f"array runs require device='single', got {self.device!r}"
                )

    def key(self) -> str:
        """Stable content-hash key for cache file naming."""
        doc = {"v": SCHEMA_VERSION, **asdict(self)}
        for name in ("config_overrides", "trace_overrides", "scheme_options"):
            doc[name] = dict(doc[name])
        canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("ascii")).hexdigest()

    def label(self) -> str:
        """Human-readable id, e.g. ``mail/cagc/greedy@bench#0``."""
        base = f"{self.workload}/{self.scheme}/{self.policy}@{self.scale}#{self.seed}"
        extras = []
        for name, tag in (
            ("config_overrides", "cfg"),
            ("trace_overrides", "trace"),
            ("scheme_options", "opt"),
        ):
            pairs = getattr(self, name)
            if pairs:
                extras.append(f"{tag}:" + ",".join(f"{k}={v}" for k, v in pairs))
        if self.device != "single":
            extras.append(f"dev:{self.device}")
        if self.array_devices:
            extras.append(
                f"array:{self.array_devices}x{self.tenants}t/{self.gc_coord}"
            )
        return base + (f" [{'; '.join(extras)}]" if extras else "")

    @classmethod
    def parse(cls, text: str, **kwargs: Any) -> "RunSpec":
        """Inverse of the base :meth:`label` form.

        Accepts ``workload[/scheme[/policy]][@scale][#seed]`` — the part
        of the label before any ``[extras]`` — so CLI surfaces like
        ``report --compare`` can name cached runs the same way reports
        print them.  Extras (overrides, array shape) are not parseable
        from the label; pass them as ``kwargs`` / CLI flags instead.
        """
        base = text.strip()
        if "[" in base or " " in base:
            raise ValueError(
                f"run label {text!r} carries extras; pass overrides/array "
                "shape as explicit flags instead"
            )
        seed = 0
        if "#" in base:
            base, seed_text = base.rsplit("#", 1)
            seed = int(seed_text)
        scale = "bench"
        if "@" in base:
            base, scale = base.rsplit("@", 1)
        parts = base.split("/")
        if len(parts) == 2:
            workload, scheme = parts
            policy = "greedy"
        elif len(parts) == 3:
            workload, scheme, policy = parts
        else:
            raise ValueError(
                f"run label {text!r} is not workload/scheme[/policy]"
                "[@scale][#seed]"
            )
        return cls(
            workload=workload,
            scheme=scheme,
            policy=policy,
            seed=seed,
            scale=scale,
            **kwargs,
        )

    # ------------------------------------------------------------ execution

    def build_config(self):
        """The scale's :class:`~repro.config.SSDConfig` with this spec's
        ``config_overrides`` applied (validated)."""
        import dataclasses as dc

        from repro.config import TimingConfig

        # Imported lazily: repro.experiments.common itself builds on the
        # runner, so a module-level import would be circular.
        from repro.experiments.common import get_scale

        timing_kwargs: Dict[str, Any] = {}
        geometry_kwargs: Dict[str, Any] = {}
        flat: Dict[str, Any] = {}
        for key, value in self.config_overrides:
            if key.startswith("timing."):
                timing_kwargs[key[len("timing.") :]] = value
            elif key.startswith("geometry."):
                geometry_kwargs[key[len("geometry.") :]] = value
            else:
                flat[key] = value
        if timing_kwargs:
            flat["timing"] = TimingConfig(**timing_kwargs)
        config = get_scale(self.scale).config(**flat)
        if geometry_kwargs:
            config = dc.replace(
                config, geometry=dc.replace(config.geometry, **geometry_kwargs)
            )
            config.validate()
        return config

    def _build_scheme(self, config):
        from repro.ftl.gc import make_policy
        from repro.schemes import make_scheme

        policy = make_policy(self.policy, seed=self.seed)
        options = dict(self.scheme_options)
        if not options:
            return make_scheme(self.scheme, config, policy=policy)
        if self.scheme != "cagc":
            raise ValueError(
                f"scheme_options are only supported for 'cagc', not {self.scheme!r}"
            )
        from repro.core.cagc import CAGCScheme
        from repro.core.placement import NeverColdPlacement

        placement = None
        placement_name = options.pop("placement", None)
        if placement_name is not None:
            if placement_name != "never-cold":
                raise ValueError(f"unknown placement override {placement_name!r}")
            placement = NeverColdPlacement(config)
        return CAGCScheme(config, policy=policy, placement=placement, **options)

    def build_trace(self):
        """The trace this spec replays, sized to :meth:`build_config`.

        ``seed=0`` replays the preset's canonical trace, other seeds
        draw an independent trace with the same characteristics.  Array
        specs get one trace per tenant, each scaled down by the number
        of tenant slots per device so every *device* sees the same LPN
        utilization and write pressure as a single-device run of this
        spec — coordination policies are then compared under identical
        per-device GC stress — multiplexed into one tenant-tagged trace.
        """
        from repro.experiments.common import get_scale

        sc = get_scale(self.scale)
        config = self.build_config()
        if not self.array_devices:
            return sc.trace(
                self.workload,
                config,
                seed=(10_000 + self.seed) if self.seed else None,
                **dict(self.trace_overrides),
            )
        from repro.workloads.multiplex import multiplex_traces

        slots = (self.tenants + self.array_devices - 1) // self.array_devices
        overrides = dict(self.trace_overrides)
        utilization = overrides.pop("lpn_utilization", sc.lpn_utilization)
        fill_factor = overrides.pop("fill_factor", sc.fill_factor)
        tenant_traces = [
            sc.trace(
                self.workload,
                config,
                seed=10_000 + 997 * self.seed + t,
                lpn_utilization=utilization / slots,
                fill_factor=fill_factor / slots,
                **overrides,
            )
            for t in range(self.tenants)
        ]
        return multiplex_traces(
            tenant_traces,
            self.array_devices,
            config.logical_pages,
            name=f"{self.workload}x{self.tenants}",
        )

    def execute(
        self,
        tracer=None,
        heartbeat=None,
        metrics="auto",
        keep_samples=True,
    ):
        """Run the simulation described by this spec (no caching):
        :meth:`build_trace`, then :meth:`replay` it."""
        return self.replay(
            self.build_trace(),
            tracer=tracer,
            heartbeat=heartbeat,
            metrics=metrics,
            keep_samples=keep_samples,
        )

    def replay(
        self,
        trace,
        tracer=None,
        heartbeat=None,
        metrics="auto",
        keep_samples=True,
    ):
        """Replay ``trace`` on this spec's device(s): config -> scheme ->
        device -> replay.  Returns a ``RunResult``, or an ``ArrayResult``
        for array specs (which need a multiplexed tenant trace).

        ``tracer``/``heartbeat``/``metrics`` attach
        :mod:`repro.obs` observers to the replay (observers never enter
        the cache key: they must not — and by construction cannot —
        change the simulated outcome, only record it).  ``metrics``
        defaults to ``"auto"``: a stock
        :class:`~repro.obs.metrics.DeviceMetrics` (or ``ArrayMetrics``
        for array specs) is attached, so every cached result carries a
        metrics snapshot for the ``metrics``/``report --compare`` CLI
        surfaces; pass ``None`` to run bare or a pre-built bundle to
        control the registry/interval.  ``keep_samples=False`` switches
        latency capture to the shared constant-memory
        :class:`~repro.obs.telemetry.LatencyHistogram` (exact
        count/mean/max, percentiles within one ~7 % bucket,
        ``response_times_us`` empty); use it for large-scale runs where
        O(requests) sample storage dominates RSS.
        """
        config = self.build_config()
        if self.array_devices:
            from repro.array import SSDArray
            from repro.obs.metrics import ArrayMetrics

            if getattr(trace, "placements", None) is None:
                raise ValueError(
                    "array runs replay a multiplexed tenant trace, not "
                    f"{trace.name!r}"
                )
            ftls = [self._build_scheme(config) for _ in range(self.array_devices)]
            return SSDArray(
                ftls,
                coordination=self.gc_coord,
                ncq_depth=self.ncq_depth,
                tracer=tracer,
                heartbeat=heartbeat,
                metrics=ArrayMetrics() if metrics == "auto" else metrics,
                keep_samples=keep_samples,
            ).replay(trace)
        from repro.device.parallel import ParallelSSD
        from repro.device.ssd import SSD
        from repro.obs.metrics import DeviceMetrics

        devices = {"single": SSD, "parallel": ParallelSSD}
        if self.device not in devices:
            raise ValueError(f"unknown device {self.device!r}")
        return devices[self.device](
            self._build_scheme(config),
            tracer=tracer,
            heartbeat=heartbeat,
            metrics=DeviceMetrics() if metrics == "auto" else metrics,
            keep_samples=keep_samples,
        ).replay(trace)


def sweep_specs(
    workloads: Tuple[str, ...],
    schemes: Tuple[str, ...],
    policies: Tuple[str, ...] = ("greedy",),
    seeds: Tuple[int, ...] = (0,),
    scale: str = "bench",
) -> Tuple[RunSpec, ...]:
    """Cartesian product of the sweep axes, in deterministic order."""
    return tuple(
        RunSpec(workload=w, scheme=s, policy=p, seed=seed, scale=scale)
        for w in workloads
        for s in schemes
        for p in policies
        for seed in seeds
    )
