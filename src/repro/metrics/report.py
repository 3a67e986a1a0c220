"""Plain-text report helpers: fixed-width tables, normalization, and
the ``cagc-repro report`` summary rows of one run.

Every experiment prints its results as rows matching the paper's
figures; these helpers keep the formatting in one place.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple, Union

Number = Union[int, float]


def normalize(values: Dict[str, Number], baseline_key: str) -> Dict[str, float]:
    """Divide every value by the baseline's (the paper's normalized plots).

    A zero baseline maps everything to 0 to avoid propagating infinities
    into report tables.
    """
    base = float(values[baseline_key])
    if base == 0.0:
        return {k: 0.0 for k in values}
    return {k: float(v) / base for k, v in values.items()}


def reduction_pct(baseline: Number, improved: Number) -> float:
    """Percent reduction of ``improved`` relative to ``baseline``."""
    if baseline == 0:
        return 0.0
    return 100.0 * (1.0 - float(improved) / float(baseline))


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:,.3f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = ""
) -> str:
    """Render a fixed-width text table."""
    str_rows: List[List[str]] = [[_fmt(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    sep = "  "
    lines.append(sep.join(h.ljust(widths[i]) for i, h in enumerate(h for h in headers)))
    lines.append(sep.join("-" * w for w in widths))
    for row in str_rows:
        lines.append(sep.join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


#: GC phases in attribution order (matches the pipeline's resources).
GC_PHASES: Tuple[str, ...] = ("read", "hash", "write", "erase")


def gc_phase_breakdown(gc) -> Dict[str, float]:
    """Per-phase GC busy time (µs) from a :class:`GCCounters`."""
    return {
        "read": gc.gc_read_us,
        "hash": gc.gc_hash_us,
        "write": gc.gc_write_us,
        "erase": gc.gc_erase_us,
    }


def summary_rows(result) -> List[Tuple[str, str]]:
    """(metric, value) rows for the ``report`` table of one (possibly
    cached) :class:`~repro.device.ssd.RunResult`.  ``p99 (histogram)``
    is the run's own metrics histogram, so it reads the same whether or
    not the run kept its samples."""
    gc = result.gc
    io = result.io
    lat = result.latency
    values = result.metrics.values if result.metrics is not None else {}
    hist_count = int(values.get("cagc_request_latency_us_count", 0))
    phases = gc_phase_breakdown(gc)
    phase_total = sum(phases.values())
    rows: List[Tuple[str, str]] = [
        ("requests", f"{lat.count:,}"),
        ("simulated time", f"{result.simulated_us / 1e6:.2f}s"),
        ("mean / p50 response", f"{lat.mean_us:.1f} / {lat.median_us:.1f}us"),
        (
            "p95 / p99 / p999",
            f"{lat.p95_us:.0f} / {lat.p99_us:.0f} / {lat.p999_us:.0f}us",
        ),
        (
            "p99 (histogram)",
            f"{values['cagc_request_latency_us_p99']:.0f}us "
            f"({hist_count:,} samples)"
            if hist_count
            else "n/a (no metrics)",
        ),
        ("write amplification", f"{result.write_amplification():.3f}"),
        (
            "GC dedup ratio",
            f"{gc.dedup_skipped / gc.pages_examined:.1%} "
            f"({gc.dedup_skipped:,} hits)"
            if gc.pages_examined
            else "n/a",
        ),
        (
            "inline dedup ratio",
            f"{io.inline_dedup_hits / io.logical_pages_written:.1%}"
            if io.logical_pages_written
            else "n/a",
        ),
        ("blocks erased", f"{gc.blocks_erased:,}"),
        ("pages migrated", f"{gc.pages_migrated:,}"),
        ("max block wear", f"{result.wear.max_erase:,}"),
        ("promotions", f"{gc.promotions:,}"),
        ("GC invocations", f"{gc.gc_invocations:,}"),
        ("GC busy (makespan)", f"{gc.gc_busy_us / 1e3:.1f}ms"),
    ]
    for phase in GC_PHASES:
        us = phases[phase]
        share = f" ({us / phase_total:.0%})" if phase_total else ""
        rows.append((f"GC {phase} busy", f"{us / 1e3:.1f}ms{share}"))
    if result.buffer is not None:
        rows.append(
            ("buffer absorption", f"{result.buffer.absorption_ratio:.1%}")
        )
    return rows
