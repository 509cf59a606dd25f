"""Scheduled events for the discrete-event engine.

An :class:`Event` is a callback bound to a simulation time.  Events are
ordered by ``(time, priority, sequence)`` so that simultaneous events fire
in a deterministic order: lower priority values first, then insertion
order.  Cancelling an event marks it dead; the engine skips dead events
lazily when they reach the head of the queue.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable


class Event:
    """A single scheduled callback.

    Instances are created by :meth:`repro.sim.engine.Simulator.schedule_at`;
    user code normally only keeps a reference in order to call
    :meth:`cancel` or :meth:`~repro.sim.engine.Simulator.reschedule` later
    (for example to clear or move a retransmission timer).
    """

    __slots__ = (
        "time",
        "priority",
        "seq",
        "callback",
        "args",
        "cancelled",
        "_owner",
        "_finalized",
    )

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[..., None],
        args: tuple[Any, ...] = (),
        kwargs: dict[str, Any] | None = None,
        owner: Any = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        # Keyword arguments are rare (no element schedules with them), so
        # they are bound into the callback instead of costing every event a
        # dict and every firing a ``**`` unpack.
        self.callback = partial(callback, **kwargs) if kwargs else callback
        self.args = args
        self.cancelled = False
        #: The engine that scheduled this event, notified on cancellation so
        #: it can maintain a live-event count without rescanning its queue.
        self._owner = owner
        #: Set once the engine has popped the event (fired or discarded);
        #: cancelling after that point is a no-op.
        self._finalized = False

    def cancel(self) -> None:
        """Mark the event dead so the engine will skip it (idempotent)."""
        if self.cancelled or self._finalized:
            return
        self.cancelled = True
        if self._owner is not None:
            self._owner._note_cancelled()

    def sort_key(self) -> tuple[float, int, int]:
        """Total ordering key (the live one: a deferred heap entry leads with an earlier triple)."""
        return (self.time, self.priority, self.seq)

    def __lt__(self, other: "Event") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time:.6f}, prio={self.priority}, {name}, {state})"
