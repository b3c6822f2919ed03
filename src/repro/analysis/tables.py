"""ASCII table and series formatting for the experiment reports.

The experiments print the same rows/series the paper's figures plot; these
helpers render them as aligned monospace tables so `python -m
repro.experiments figN` output is directly comparable to the figures.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

__all__ = ["format_table", "format_series"]


def _render_cell(value: object, floatfmt: str) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return format(value, floatfmt)
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    *,
    floatfmt: str = ".4f",
    title: str | None = None,
) -> str:
    """Render rows as an aligned ASCII table.

    Cells are right-aligned except the first column (row labels).
    """
    headers = [str(h) for h in headers]
    rendered = [[_render_cell(cell, floatfmt) for cell in row] for row in rows]
    for i, row in enumerate(rendered):
        if len(row) != len(headers):
            raise ValueError(
                f"row {i} has {len(row)} cells but there are {len(headers)} headers"
            )
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in rendered)) if rendered else len(headers[c])
        for c in range(len(headers))
    ]

    def line(cells: Sequence[str]) -> str:
        parts = []
        for c, cell in enumerate(cells):
            parts.append(cell.ljust(widths[c]) if c == 0 else cell.rjust(widths[c]))
        return "  ".join(parts).rstrip()

    out: list[str] = []
    if title:
        out.append(title)
    out.append(line(headers))
    out.append("  ".join("-" * w for w in widths))
    out.extend(line(row) for row in rendered)
    return "\n".join(out)


def format_series(
    x_label: str,
    x_values: Sequence[object],
    series: Mapping[str, Sequence[float]],
    *,
    floatfmt: str = ".4f",
    title: str | None = None,
) -> str:
    """Render one-x-many-y series (a figure's curves) as a table.

    Each mapping key becomes a column; each x value a row — the shape of a
    gnuplot data block, which is how the paper's figures are regenerated.
    """
    for name, values in series.items():
        if len(values) != len(x_values):
            raise ValueError(
                f"series {name!r} has {len(values)} points but there are "
                f"{len(x_values)} x values"
            )
    headers = [x_label, *series.keys()]
    rows = [
        [x, *(series[name][i] for name in series)]
        for i, x in enumerate(x_values)
    ]
    return format_table(headers, rows, floatfmt=floatfmt, title=title)
