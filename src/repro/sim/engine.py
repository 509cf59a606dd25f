"""The discrete-event simulation engine.

:class:`Simulator` owns a monotonically non-decreasing clock and a priority
queue of ``(time, priority, seq, Event)`` entries.  It is deliberately
small: elements schedule callbacks, the engine fires them in time order.
Determinism is guaranteed by the ``(time, priority, insertion sequence)``
ordering and by routing all randomness through
:class:`~repro.sim.random.RngRegistry` streams rather than global state.

A heap entry may be *deferred*: :meth:`Simulator.reschedule` moves a
pending event later by rewriting its ``time`` and ``seq`` in place, without
touching the heap, so the entry's key no longer matches the event's live
key ``(event.time, event.priority, event.seq)``.  A deferred key is never
later than the live one, so the entry reaches the head no later than it
should; there it is re-pushed under its live key, neither fired nor
counted.  Firing order is therefore still the ``(time, priority, seq)``
order of the live keys, exactly as if the event had been cancelled and
scheduled anew.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush, heapreplace
from typing import Any, Callable

from repro.errors import ConfigurationError, SchedulingError, SimulationError
from repro.sim.events import Event


class Simulator:
    """A minimal, deterministic discrete-event simulator; its clock starts at zero.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "hello")
    >>> sim.run()
    1
    >>> fired
    ['hello']
    >>> sim.now
    1.5
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[tuple[float, int, int, Event]] = []
        self._event_seq = 0
        self._events_processed = 0
        self._live_events = 0
        self._running = False

    # ------------------------------------------------------------------ clock

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events fired so far (cancelled events excluded)."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of scheduled events that have not been cancelled.

        Maintained as a live counter — incremented on schedule, decremented
        on fire and on cancellation — so the property is O(1) rather than a
        rescan of the whole heap (which showed up in long runs that poll it).
        """
        return self._live_events

    # -------------------------------------------------------------- scheduling

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
        **kwargs: Any,
    ) -> Event:
        """Schedule ``callback(*args, **kwargs)`` at absolute time ``time``.

        Raises
        ------
        SchedulingError
            If ``time`` lies in the simulated past or is not finite.
        """
        if not math.isfinite(time):
            raise SchedulingError(f"event time must be finite, got {time!r}")
        if time < self._now:
            raise SchedulingError(
                f"cannot schedule event at {time:.6f}, clock is already at {self._now:.6f}"
            )
        return self._push(time, priority, callback, args, kwargs)

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
        **kwargs: Any,
    ) -> Event:
        """Schedule ``callback`` after a relative ``delay`` in seconds."""
        if delay < 0:
            raise SchedulingError(f"delay must be non-negative, got {delay!r}")
        time = self._now + delay
        if not math.isfinite(time):
            raise SchedulingError(f"event time must be finite, got {time!r}")
        # `_push`, inlined: this is the per-packet call.
        seq = self._event_seq
        event = Event(time, priority, seq, callback, args, kwargs, self)
        self._event_seq = seq + 1
        self._live_events += 1
        heappush(self._queue, (time, priority, seq, event))
        return event

    def reschedule(self, event: Event, time: float) -> Event:
        """Move ``event`` to absolute ``time``; returns the event now pending.

        Exactly ``event.cancel()`` followed by ``schedule_at(time,
        event.callback, *event.args, priority=event.priority)``: the event
        that comes back fires at the same place in the order, and ``pending``
        and ``events_processed`` read the same.  When ``event`` is pending on
        this simulator and ``time`` is not earlier than its current time, the
        move is made in place — the same :class:`Event` comes back with the
        fresh sequence number a new event would get, and its heap entry is
        deferred (see the module docstring) instead of a second one being
        pushed.  Every other case takes the cancel-and-schedule path.
        """
        if (
            event._owner is self
            and not event.cancelled
            and not event._finalized
            and event.time <= time < math.inf
        ):
            event.seq = self._event_seq
            self._event_seq += 1
            event.time = time
            return event
        event.cancel()
        return self.schedule_at(time, event.callback, *event.args, priority=event.priority)

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (idempotent)."""
        event.cancel()

    # ---------------------------------------------------------------- running

    def step(self) -> bool:
        """Fire the next live event.

        Returns
        -------
        bool
            ``True`` if an event fired, ``False`` if the queue was empty.
        """
        return self._fire_events(None, 1)[0] == 1

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Run the event loop.

        Parameters
        ----------
        until:
            Stop once the clock would advance strictly beyond this time.  The
            clock is left at ``until`` if every event up to ``until`` was
            actually processed (queue drained or next event lies beyond it).
            ``None`` runs until the queue drains.  NaN and ``+inf`` are
            refused: no event is ever beyond them, so a sender that never
            stops would keep the loop running for good.  So is a time
            before the clock (a negative run length): nothing would run.
        max_events:
            Optional hard cap on the number of events fired by this call,
            useful as a runaway guard in tests.

        Returns
        -------
        int
            Number of events fired by this call.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        if until is not None and not self._now <= until < math.inf:
            raise ConfigurationError(
                f"run(until={until!r}): until must be finite and not before the clock "
                f"({self._now!r}), or None"
            )
        self._running = True
        try:
            fired, exhausted = self._fire_events(until, max_events)
        finally:
            self._running = False
        # Fast-forward the clock only when the queue was genuinely drained or
        # exhausted up to `until`; a max_events stop leaves events pending at
        # or before `until`, and jumping past them would let a later run()
        # fire them "in the past".
        if exhausted and until is not None and until > self._now:
            self._now = until
        return fired

    # ---------------------------------------------------------------- helpers

    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel` on a still-pending event."""
        self._live_events -= 1

    def _push(self, time, priority, callback, args, kwargs) -> Event:
        """Queue one event at an already-validated ``time``."""
        seq = self._event_seq
        event = Event(time, priority, seq, callback, args, kwargs, self)
        self._event_seq = seq + 1
        self._live_events += 1
        # `seq` is unique, so tuple comparison never reaches the Event and
        # the heap orders its entries without calling back into Python.
        heappush(self._queue, (time, priority, seq, event))
        return event

    def _fire_events(self, until: float | None, max_events: int | None) -> tuple[int, bool]:
        """The one event loop behind :meth:`run` and :meth:`step`.

        Returns ``(fired, exhausted)``; ``exhausted`` is true when no live
        event at or before ``until`` remains, false on a ``max_events`` stop.
        """
        queue = self._queue
        fired = 0
        while True:
            # Settle the head.  Cancelled events were already removed from
            # the live count by the cancel hook; here they only need to leave
            # the heap.  A deferred entry (its seq is not the event's) goes
            # back in under the event's live key.
            while queue:
                entry = queue[0]
                event = entry[3]
                if event.cancelled:
                    heappop(queue)
                    event._finalized = True
                elif entry[2] != event.seq:
                    heapreplace(queue, (event.time, event.priority, event.seq, event))
                else:
                    break
            if not queue or (until is not None and queue[0][0] > until):
                return fired, True
            if max_events is not None and fired >= max_events:
                return fired, False
            time, _, _, event = heappop(queue)
            if time < self._now:  # pragma: no cover - defensive
                raise SimulationError("event queue returned an event from the past")
            event._finalized = True
            self._live_events -= 1
            self._now = time
            self._events_processed += 1
            event.callback(*event.args)
            fired += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self._now:.6f}, pending={self.pending})"
