"""ASCII rendering of experiment tables and data series.

Every experiment produces a :class:`~repro.results.ResultSet`; a figure's
is a *data series table* (x column plus one y column per curve) — the
same rows one would feed to gnuplot to redraw the figure.  This module
renders such tables, plus a crude unicode line plot for terminal
inspection.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

Cell = Union[str, int, float, None]


def format_cell(value: Cell, precision: int = 4) -> str:
    """Format a single table cell; floats get ``precision`` significant digits."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.{precision}g}"
    return str(value)


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Cell]],
    title: Optional[str] = None,
    precision: int = 4,
) -> str:
    """Render rows as a boxed, column-aligned ASCII table."""
    text_rows = [[format_cell(c, precision) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}: {row!r}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt_row(cells: Sequence[str]) -> str:
        return "| " + " | ".join(c.rjust(w) for c, w in zip(cells, widths)) + " |"

    sep = "+-" + "-+-".join("-" * w for w in widths) + "-+"
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(sep)
    lines.append(fmt_row(list(headers)))
    lines.append(sep)
    for row in text_rows:
        lines.append(fmt_row(row))
    lines.append(sep)
    return "\n".join(lines)


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """One-line unicode sparkline of a numeric series (for quick inspection)."""
    blocks = "▁▂▃▄▅▆▇█"
    if not values:
        return ""
    vals = list(values)
    if len(vals) > width:  # downsample by striding
        stride = len(vals) / width
        vals = [vals[int(i * stride)] for i in range(width)]
    lo, hi = min(vals), max(vals)
    if hi == lo:
        return blocks[0] * len(vals)
    out = []
    for v in vals:
        idx = int((v - lo) / (hi - lo) * (len(blocks) - 1))
        out.append(blocks[idx])
    return "".join(out)


def line_plot(result, height: int = 16, width: int = 72) -> str:
    """Very small dependency-free scatter/line plot for terminals.

    ``result`` is a figure-shaped :class:`~repro.results.ResultSet`: x in
    the first column, one curve per further column (None = no point).
    Intended for example scripts; the authoritative output is always the
    numeric ``result.render()`` table.
    """
    markers = "*o+x#@%&"
    names = result.columns[1:]
    rows = [row.values() for row in result.rows]
    points: List[tuple] = []
    for si in range(len(names)):
        for values in rows:
            y = values[si + 1]
            if y is not None:
                points.append((values[0], y, markers[si % len(markers)]))
    if not points:
        return "(no data)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    grid = [[" "] * width for _ in range(height)]
    for x, y, mark in points:
        col = int((x - x_lo) / (x_hi - x_lo) * (width - 1))
        row = height - 1 - int((y - y_lo) / (y_hi - y_lo) * (height - 1))
        grid[row][col] = mark
    legend = "  ".join(
        f"{markers[i % len(markers)]}={name}" for i, name in enumerate(names)
    )
    lines = [result.title, f"y: [{y_lo:.4g}, {y_hi:.4g}]"]
    lines += ["|" + "".join(row) for row in grid]
    lines.append("+" + "-" * width)
    lines.append(f" x: {result.x_label} in [{x_lo:.4g}, {x_hi:.4g}]   {legend}")
    return "\n".join(lines)
