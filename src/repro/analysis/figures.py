"""Plain-text rendering of regenerated figures.

REPORT.md's tables and the resilience bench's bar charts stay readable
in a terminal without any plotting dependency.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.errors import MeasurementError


def ascii_bars(rows: Sequence[Tuple[str, float]], width: int = 40,
               unit: str = "") -> str:
    """Horizontal bar chart: one (label, value) bar per row."""
    if not rows:
        raise MeasurementError("no rows to render")
    top = max(value for _, value in rows)
    if top <= 0:
        top = 1.0
    label_width = max(len(label) for label, _ in rows)
    lines = []
    for label, value in rows:
        bar = "#" * max(0, int(round(width * value / top)))
        lines.append(f"{label:<{label_width}} | {bar} {value:.3g}{unit}")
    return "\n".join(lines)


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> str:
    """Fixed-width text table."""
    if not headers:
        raise MeasurementError("table needs headers")
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        if len(row) != len(headers):
            raise MeasurementError(
                f"row width {len(row)} != header width {len(headers)}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row: Sequence[str]) -> str:
        return "  ".join(f"{cell:<{w}}" for cell, w in zip(row, widths))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in cells)
    return "\n".join(lines)
