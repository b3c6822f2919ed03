"""Render an exported observation (trace JSONL) as a human-readable report.

Consumes the file written by :meth:`Observer.export_jsonl` (or any JSONL
event stream) and prints: event counts by kind, the metrics snapshot,
phase wall times, the engine path of the simulated runs, and — when the
per-server load series is present — an ASCII utilization timeline.  This is the ``observe-report`` subcommand of
``python -m repro``.
"""

from __future__ import annotations

from .tracer import read_jsonl

__all__ = ["render_trace_report", "load_trace"]


def load_trace(path) -> list[dict]:
    """Read a trace JSONL file (alias of :func:`read_jsonl`)."""
    return read_jsonl(path)


def _format_count_table(counts: dict[str, int]) -> list[str]:
    width = max((len(k) for k in counts), default=4)
    return [f"  {name:<{width}}  {value:>10,}" for name, value in counts.items()]


def _series_chart(series: dict, *, width: int = 64, height: int = 12) -> str:
    """Chart one exported per-server series (first run only)."""
    from ..analysis.plots import ascii_chart

    columns = series["columns"]
    rows = series["rows"]
    if "run" in columns:
        run_index = columns.index("run")
        first = rows[0][run_index]
        rows = [r for r in rows if r[run_index] == first]
    t_index = columns.index("t")
    xs = [row[t_index] for row in rows]
    if len(xs) < 2:
        return "  (fewer than 2 samples; no chart)"
    value_columns = [
        (i, c) for i, c in enumerate(columns) if c not in ("run", "t")
    ]
    # ascii_chart supports at most 8 series; fold extras into the last.
    value_columns = value_columns[:8]
    data = {c: [row[i] for row in rows] for i, c in value_columns}
    return ascii_chart(
        xs, data, width=width, height=height,
        title=series.get("name", "series"), x_label="t (min)",
    )


def render_trace_report(events: list[dict], *, charts: bool = False) -> str:
    """Build the observe-report text from parsed JSONL events."""
    if not events:
        return "empty trace (no events)"

    counts: dict[str, int] = {}
    spans: dict[str, float] = {}
    series: dict[str, dict] = {}
    metrics: dict | None = None
    meta: dict | None = None
    sim_runs = 0
    delegations: dict[str, int] = {}
    for event in events:
        kind = event.get("kind", "?")
        counts[kind] = counts.get(kind, 0) + 1
        if kind == "meta":
            meta = event
        elif kind == "metrics":
            metrics = event
        elif kind == "series":
            series[event.get("name", f"series{len(series)}")] = event
        elif kind == "sim.run":
            sim_runs += 1
            reason = event.get("delegated", "")
            if reason:
                delegations[reason] = delegations.get(reason, 0) + 1
        elif kind == "span":
            name = event.get("name", "?")
            spans[name] = spans.get(name, 0.0) + float(event.get("wall_sec", 0.0))

    lines = ["observation report"]
    if meta is not None:
        dropped = meta.get("dropped_events", 0)
        lines.append(
            f"  schema {meta.get('schema', '?')}  "
            f"{meta.get('events', 0):,} trace events"
            + (f"  ({dropped:,} dropped at cap)" if dropped else "")
        )
    lines.append("")
    lines.append("events by kind:")
    lines.extend(_format_count_table(dict(sorted(counts.items()))))

    if metrics is not None:
        counters = metrics.get("counters", {})
        if counters:
            lines.append("")
            lines.append("counters:")
            lines.extend(_format_count_table(counters))
        gauges = metrics.get("gauges", {})
        if gauges:
            lines.append("")
            lines.append("gauges:")
            width = max(len(k) for k in gauges)
            lines.extend(
                f"  {name:<{width}}  {value:>12.4f}"
                for name, value in gauges.items()
            )
        histograms = metrics.get("histograms", {})
        if histograms:
            lines.append("")
            lines.append("histograms:")
            for name, hist in histograms.items():
                lines.append(
                    f"  {name}: n={hist['count']:,} mean={hist['mean']:.4f} "
                    f"min={hist['min']} max={hist['max']}"
                )
        phases = metrics.get("phase_seconds", {})
        if phases:
            lines.append("")
            lines.append("phase wall time:")
            width = max(len(k) for k in phases)
            lines.extend(
                f"  {name:<{width}}  {seconds:>9.3f}s"
                for name, seconds in phases.items()
            )

    if sim_runs:
        lines.append("")
        lines.append(f"engine path ({sim_runs:,} simulated runs):")
        lines.append(
            "  delegated runs    "
            + (
                ", ".join(f"{r} {n:,}" for r, n in sorted(delegations.items()))
                or "none"
            )
        )

    if spans:
        lines.append("")
        lines.append("spans (summed wall time):")
        width = max(len(k) for k in spans)
        lines.extend(
            f"  {name:<{width}}  {seconds:>9.3f}s"
            for name, seconds in sorted(spans.items())
        )

    if series:
        lines.append("")
        lines.append(
            "series: "
            + ", ".join(
                f"{name} ({len(s.get('rows', []))} rows)"
                for name, s in sorted(series.items())
            )
        )
        if charts and "sim.server_load_mbps" in series:
            lines.append("")
            lines.append(_series_chart(series["sim.server_load_mbps"]))

    return "\n".join(lines)
