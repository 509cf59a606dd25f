"""Minimal ASCII scatter/line plots for terminal output.

The paper's figures are line plots (RTT vs. time, sequence number vs. time).
Matplotlib is not available offline, so examples and benches render compact
character plots instead; they are good enough to see the slopes, plateaus,
and crossovers the paper's figures convey.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.metrics.timeseries import TimeSeries

#: Characters used to distinguish multiple series on one plot.
SERIES_MARKERS = "ox+*#@%&"

#: Plot area width in characters.
WIDTH = 72


def ascii_plot(
    series: Mapping[str, TimeSeries] | Mapping[str, Sequence[tuple[float, float]]],
    height: int = 20,
    title: str | None = None,
    y_label: str = "value",
    logy: bool = False,
) -> str:
    """Render one or more time series against time as an ASCII plot.

    Parameters
    ----------
    series:
        Mapping of series name to a :class:`TimeSeries` or ``(x, y)`` pairs.
    height:
        Plot area height in characters; it is ``WIDTH`` wide.
    logy:
        Plot ``log10(y)`` instead of ``y`` (used for Figure 1's RTT axis).
    """
    import math

    prepared: dict[str, list[tuple[float, float]]] = {}
    for name, value in series.items():
        pairs = list(value) if not isinstance(value, TimeSeries) else list(value)
        if logy:
            pairs = [(x, math.log10(y)) for x, y in pairs if y > 0]
        prepared[name] = pairs

    all_points = [point for pairs in prepared.values() for point in pairs]
    if not all_points:
        return (title or "") + "\n(no data)"

    xs = [x for x, _ in all_points]
    ys = [y for _, y in all_points]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0

    grid = [[" "] * WIDTH for _ in range(height)]
    for index, (name, pairs) in enumerate(prepared.items()):
        marker = SERIES_MARKERS[index % len(SERIES_MARKERS)]
        for x, y in pairs:
            col = int((x - x_min) / (x_max - x_min) * (WIDTH - 1))
            row = int((y - y_min) / (y_max - y_min) * (height - 1))
            grid[height - 1 - row][col] = marker

    lines: list[str] = []
    if title:
        lines.append(title)
    y_axis_label = f"{y_label} [{'log10 ' if logy else ''}{y_min:.3g} .. {y_max:.3g}]"
    lines.append(y_axis_label)
    for row in grid:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * WIDTH)
    lines.append(f" time (s) [{x_min:.3g} .. {x_max:.3g}]")
    legend = "  ".join(
        f"{SERIES_MARKERS[index % len(SERIES_MARKERS)]} = {name}"
        for index, name in enumerate(prepared)
    )
    lines.append(" legend: " + legend)
    return "\n".join(lines)
