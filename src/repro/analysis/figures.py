"""Plain-text rendering of regenerated figures.

The benchmark harnesses print the same rows/series the paper plots; these
helpers keep that output readable in a terminal without any plotting
dependency.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

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


def ascii_series(times: Sequence[float], values: Sequence[float],
                 height: int = 10, width: int = 72,
                 label: str = "") -> str:
    """Down-sampled line plot of a time series."""
    if len(times) != len(values) or len(times) == 0:
        raise MeasurementError("series must be non-empty and aligned")
    lo, hi = min(values), max(values)
    if hi == lo:
        hi = lo + 1.0
    # Downsample to the display width.
    step = max(1, len(values) // width)
    sampled = list(values)[::step][:width]
    grid = [[" "] * len(sampled) for _ in range(height)]
    for x, value in enumerate(sampled):
        y = int((value - lo) / (hi - lo) * (height - 1))
        grid[height - 1 - y][x] = "*"
    lines = [f"{label}  [{lo:.4g} .. {hi:.4g}]"] if label else []
    lines.extend("".join(row) for row in grid)
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


def histogram_text(samples: Sequence[float], bins: int = 12,
                   width: int = 40, unit: str = "") -> str:
    """Text histogram of a sample distribution."""
    if not samples:
        raise MeasurementError("no samples to render")
    lo, hi = min(samples), max(samples)
    if hi == lo:
        hi = lo + 1.0
    counts = [0] * bins
    for sample in samples:
        idx = min(bins - 1, int((sample - lo) / (hi - lo) * bins))
        counts[idx] += 1
    top = max(counts)
    lines = []
    for i, count in enumerate(counts):
        b_lo = lo + (hi - lo) * i / bins
        bar = "#" * int(round(width * count / top)) if top else ""
        lines.append(f"{b_lo:10.3g}{unit} | {bar} {count}")
    return "\n".join(lines)
