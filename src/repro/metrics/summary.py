"""Tabular experiment output.

Every experiment returns a list of :class:`ExperimentRow` objects — one per
reported cell or series point — and the benches print them with
:func:`format_table` so the console output mirrors the rows/series the paper
reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence


@dataclass(slots=True)
class ExperimentRow:
    """One row of an experiment's output table."""

    label: str
    values: dict[str, Any] = field(default_factory=dict)

    def get(self, key: str, default: Any = None) -> Any:
        """Value of one column, with a default."""
        return self.values.get(key, default)


def _format_value(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}"
    return str(value)


def format_table(rows: Sequence[ExperimentRow], title: str | None = None) -> str:
    """Render rows as a fixed-width text table.

    Parameters
    ----------
    rows:
        The rows to print, one column per key in the union of their keys,
        in first-seen order.
    title:
        Optional heading printed above the table.
    """
    columns: list[str] = []
    for row in rows:
        for key in row.values:
            if key not in columns:
                columns.append(key)

    header = ["label", *columns]
    body: list[list[str]] = []
    for row in rows:
        body.append([row.label, *[_format_value(row.values.get(col, "")) for col in columns]])

    widths = [len(col) for col in header]
    for line in body:
        for index, cell in enumerate(line):
            widths[index] = max(widths[index], len(cell))

    def fmt_line(cells: list[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths))

    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(fmt_line(header))
    lines.append(fmt_line(["-" * width for width in widths]))
    lines.extend(fmt_line(line) for line in body)
    return "\n".join(lines)
