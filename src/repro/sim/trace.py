"""Structured tracing of simulation activity.

A :class:`TraceRecorder` collects :class:`TraceRecord` rows (time, element,
event kind, free-form fields).  Elements call :meth:`TraceRecorder.record`
only when a recorder is attached, and by default none is: a
:class:`~repro.sim.element.Network` attaches its recorder only when given
``trace_kinds``, so the hot path of an untraced run builds no rows.
Experiments that want the time series the paper's figures plot turn it on
with ``Network(trace_kinds={"drop", "deliver"})``, or attach a recorder by
hand (``element.attach(sim, trace=TraceRecorder())``) to record every kind.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator


@dataclass(slots=True)
class TraceRecord:
    """One traced occurrence inside a simulation."""

    time: float
    element: str
    kind: str
    fields: dict[str, Any] = field(default_factory=dict)

    def get(self, key: str, default: Any = None) -> Any:
        """Convenience accessor for a field value."""
        return self.fields.get(key, default)


class TraceRecorder:
    """Accumulates :class:`TraceRecord` rows, optionally filtered by kind."""

    def __init__(self, kinds: Iterable[str] | None = None) -> None:
        self._records: list[TraceRecord] = []
        self._kinds = set(kinds) if kinds is not None else None
        self._listeners: list[Callable[[TraceRecord], None]] = []

    def record(self, time: float, element: str, kind: str, **fields: Any) -> None:
        """Store one record unless its kind is filtered out."""
        if self._kinds is not None and kind not in self._kinds:
            return
        row = TraceRecord(time=time, element=element, kind=kind, fields=fields)
        self._records.append(row)
        for listener in self._listeners:
            listener(row)

    def add_listener(self, listener: Callable[[TraceRecord], None]) -> None:
        """Invoke ``listener`` for every future record (after filtering)."""
        self._listeners.append(listener)

    def clear(self) -> None:
        """Drop all stored records."""
        self._records.clear()

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def filter(self, kind: str | None = None, element: str | None = None) -> list[TraceRecord]:
        """Return the stored records matching the given kind and/or element."""
        rows = self._records
        if kind is not None:
            rows = [row for row in rows if row.kind == kind]
        if element is not None:
            rows = [row for row in rows if row.element == element]
        return list(rows)

    def series(self, kind: str, field_name: str, element: str | None = None) -> list[tuple[float, Any]]:
        """Return ``(time, fields[field_name])`` pairs for records of ``kind``."""
        return [
            (row.time, row.fields[field_name])
            for row in self.filter(kind=kind, element=element)
            if field_name in row.fields
        ]
