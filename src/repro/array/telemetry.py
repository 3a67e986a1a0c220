"""Per-tenant / per-device SLO telemetry for the SSD array.

Every completed request is recorded three times into the existing
log-bucket :class:`~repro.obs.telemetry.LatencyHistogram` machinery:
once into the array-wide histogram, once into its device's and once
into its tenant's.  The per-tenant and per-device families therefore
*partition* the global histogram — bucket counts, totals and maxima
fold back exactly (integer sums and maxima are order-independent;
``sum_us`` matches to float fold-order, which the telemetry tests pin
with a tight relative bound).

Percentile queries are answered from bucket counts, so per-tenant
p99/p999 SLO rows are exact partitions of the array-wide view — the
numbers ``cagc-repro report`` prints per tenant add up to the global
distribution by construction.  An attached
:class:`~repro.obs.metrics.ArrayMetrics` bundle wraps these same
histograms instead of recording its own copies.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.obs.telemetry import LatencyHistogram


def fold_histograms(hists: Sequence[LatencyHistogram]) -> LatencyHistogram:
    """Merge ``hists`` (in order) into a fresh histogram."""
    out = LatencyHistogram()
    for hist in hists:
        out.merge(hist)
    return out


class ArrayTelemetry:
    """Always-on SLO aggregator of one array replay."""

    def __init__(self, devices: int, tenants: int) -> None:
        if devices < 1 or tenants < 1:
            raise ValueError("devices and tenants must be >= 1")
        self.hist = LatencyHistogram()
        self.device_hists = [LatencyHistogram() for _ in range(devices)]
        self.tenant_hists = [LatencyHistogram() for _ in range(tenants)]

    @property
    def devices(self) -> int:
        return len(self.device_hists)

    @property
    def tenants(self) -> int:
        return len(self.tenant_hists)

    def on_complete(self, device: int, tenant: int, latency_us: float) -> None:
        """One finished request on ``device`` belonging to ``tenant``."""
        self.hist.record(latency_us)
        self.device_hists[device].record(latency_us)
        self.tenant_hists[tenant].record(latency_us)

    # ------------------------------------------------------------ queries

    def folded_by_tenant(self) -> LatencyHistogram:
        return fold_histograms(self.tenant_hists)

    def folded_by_device(self) -> LatencyHistogram:
        return fold_histograms(self.device_hists)

    def tenant_percentiles(
        self, ps: Sequence[float] = (99.0, 99.9)
    ) -> List[Tuple[int, List[float]]]:
        """``(tenant, [percentile values])`` for every tenant with traffic."""
        return [
            (t, hist.quantiles(ps))
            for t, hist in enumerate(self.tenant_hists)
            if hist.total
        ]

    def slo_rows(self) -> List[Tuple[str, str]]:
        """``(metric, value)`` rows for the ``report`` table.

        One array-wide p99/p999 row plus one per tenant — the SLO view
        a multi-tenant serving tier is judged on.
        """
        rows: List[Tuple[str, str]] = [
            (
                "array p99 / p999",
                f"{self.hist.percentile(99.0):.0f} / "
                f"{self.hist.percentile(99.9):.0f}us "
                f"({self.hist.total:,} requests)",
            )
        ]
        for tenant, (p99, p999) in self.tenant_percentiles():
            hist = self.tenant_hists[tenant]
            rows.append(
                (
                    f"tenant {tenant} p99 / p999",
                    f"{p99:.0f} / {p999:.0f}us ({hist.total:,} requests)",
                )
            )
        return rows

    # ------------------------------------------------------ serialization

    def to_arrays(self) -> dict:
        """Histogram state as plain arrays (runner-cache layout)."""

        def pack(hists: Sequence[LatencyHistogram]) -> dict:
            return {
                "counts": np.stack([h.counts for h in hists]),
                "total": np.array([h.total for h in hists], dtype=np.int64),
                "sum_us": np.array([h.sum_us for h in hists]),
                "max_us": np.array([h.max_us for h in hists]),
            }

        return {
            "global": pack([self.hist]),
            "device": pack(self.device_hists),
            "tenant": pack(self.tenant_hists),
        }

    @classmethod
    def from_arrays(cls, data: dict) -> "ArrayTelemetry":
        def unpack(hists: Sequence[LatencyHistogram], packed: dict) -> None:
            for i, hist in enumerate(hists):
                hist.counts = np.array(packed["counts"][i], dtype=np.int64)
                hist.total = int(packed["total"][i])
                hist.sum_us = float(packed["sum_us"][i])
                hist.max_us = float(packed["max_us"][i])

        telemetry = cls(
            devices=len(data["device"]["total"]),
            tenants=len(data["tenant"]["total"]),
        )
        unpack([telemetry.hist], data["global"])
        unpack(telemetry.device_hists, data["device"])
        unpack(telemetry.tenant_hists, data["tenant"])
        return telemetry


__all__ = ["ArrayTelemetry", "fold_histograms"]
