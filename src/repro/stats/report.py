"""Plain-text table/series rendering for the experiment reports.

Every experiment runner prints its result through these helpers so the
rows/series the paper reports come out in a uniform, diff-friendly form.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Union

Cell = Union[str, int, float]


def _fmt(cell: Cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}" if abs(cell) < 100 else f"{cell:.1f}"
    return str(cell)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Cell]], title: str = "") -> str:
    """Render an aligned ASCII table."""
    str_rows: List[List[str]] = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(name: str, xs: Sequence[Cell], ys: Sequence[Cell]) -> str:
    """Render one figure series as `name: (x, y) (x, y) ...`."""
    pairs = " ".join(f"({_fmt(x)}, {_fmt(y)})" for x, y in zip(xs, ys))
    return f"{name}: {pairs}"


def percent(value: float) -> str:
    return f"{100.0 * value:.1f}%"
