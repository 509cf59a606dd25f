"""The batched rollout engine: every (action × hypothesis) lane at once.

The planner's §3.2 expected-utility step rolls each candidate action through
each top-k hypothesis.  The scalar oracle
(:func:`~repro.inference.hypothesis.value_hypotheses`) clones and advances
one :class:`~repro.inference.linkmodel.LinkModel` per lane — A×K
independent Python event loops.  This module is the one array engine: a
*packet-column kernel* that decides all of them together, one arrival at a
time.

* :func:`batched_rollout_rows` is the entry point: the sender's top-k
  :class:`~repro.inference.vectorized.state.EnsembleState` rows, tiled across
  its candidate delays, become lanes.  Each lane's FIFO is a column of
  slots: the packet in service, the queued packets, then every scheduled
  arrival up to the lane's deadline — the cross-traffic chain and the
  hypothetical send.  The packets already in a row's link (its *base*)
  are held once per row; only the arrival slots are per lane.
* One loop iteration decides one arrival column for every lane
  (:func:`_accept_arrivals`): the link is busy if the last accepted
  completion lies after the arrival; a packet starts at its arrival on an
  idle link and at that completion behind a busy one, and completes
  ``s / r`` later; it is tail-dropped on the bits waiting ahead of it.  The
  Python-interpreter cost is O(arrivals per lane), whatever the number of
  departures between them.
* Deliveries are the accepted slots that complete by the deadline, already
  in time order within each lane.  The result is a
  :class:`BatchedRolloutOutcome` holding each row's base and every lane's
  arrival deliveries/drops as flat (time, lane) arrays, which
  ``UtilityFunction.evaluate_batch`` consumes without materializing per-lane
  Python objects: it values the base once per row and starts each lane from
  its row's partial sums, bit for bit the per-lane sums (every arrival
  completes after its row's base; a lane delivers a prefix of its row's
  ascending base completions; whole-number sums are exact in any order).
  :meth:`BatchedRolloutOutcome.lane_outcome` rebuilds one
  lane as an ordinary :class:`~repro.inference.hypothesis.RolloutOutcome` —
  the equivalence tests' bridge, and the fallback for custom utilities that
  only implement scalar ``evaluate``.
* :func:`select_rows` and :func:`value_rows` are the engine the planner
  calls for both accepted spellings, ``"vectorized"`` and ``"fused"``:
  *select* hands over the top-k weights, link rates and drain times plus the
  rows, *value* returns one utility per lane.  The decision itself — the
  probability-weighted aggregation and the tie-broken argmax — is the
  planner's, written once for both engines.
* :func:`follow_rows` is the engine's *follow*, for a sender about to act
  on a "send now": it stacks the top-k rows with the same rows after that
  send, so one kernel call values the decision and the one after the
  send.  Each row
  carries its own horizon — a lane runs to its row's — and lanes never
  read one another, so the first set's values are those of a call
  without the second.

Semantics match ``Hypothesis.rollout`` exactly.  The times are the scalar
model's float operations in its order: the cross chain and the completion
chain are strict left-to-right ``np.add.accumulate`` passes, and a start is
``max(a, c_last)``, one of the two operands.  Completions fire before
arrivals at the same instant, and the hypothetical send enqueues strictly
after both; candidate delays beyond the horizon advance the lane to the
send time, as the scalar path does.  The waiting bits match the scalar
``queue_bits`` bit for bit: a difference of prefix sums when every size is
a whole number of bits (every shipped prior), a replay of the scalar's
float loads and enqueues otherwise.  The only tolerated divergence is
transcendental rounding in the utility's discount (``np.exp`` vs
``math.exp``, ≤1 ulp per term), which is why the documented utility
tolerance is ``1e-9`` relative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.errors import InferenceError
from repro.inference.hypothesis import (
    RolloutOutcome,
    rollout_outcome_digest,
    select_hypotheses,
)
from repro.inference.vectorized import engine
from repro.inference.vectorized.state import FLOW_CROSS, EnsembleState

#: Slots one step of a lane's in-service pointer examines
#: (:func:`_accept_arrivals`).  A lane that starts more packets than this
#: between two of its arrivals takes another step.
POINTER_WINDOW = 8


@dataclass
class BatchedRolloutOutcome:
    """Every lane's predicted consequences, in flat struct-of-arrays form.

    Lane ``a * k + j`` is candidate action ``a`` applied to hypothesis row
    ``j`` (planner top-k order).  The base is slot-major ``(depth + 1,
    columns)`` arrays, a column per row (per lane where the replay tiles
    it): lane ``i`` reads column ``i % columns``, delivers its ``base_own``
    slots before ``base_done[i]`` and every ``base_cross`` slot.  Arrival
    events are parallel ``(time, lane)`` columns, chronological *per lane*
    (``own_*`` are the send's); per-lane scalars are ``(lanes,)`` arrays.
    Own events carry a uniform ``packet_bits`` size and the lane's survival
    probability, exactly as the scalar ``RolloutOutcome`` reports them.
    """

    decision_time: float
    horizon: np.ndarray  # (lanes,) each lane's own horizon
    packet_bits: float
    action_delays: np.ndarray  # (A,)
    k: int  # hypothesis rows per action

    own_survival: np.ndarray  # (lanes,) survival of delivered own packets
    base_time: np.ndarray  # (depth + 1, columns) completion of each base slot (-inf: none)
    base_bits: np.ndarray
    base_own: np.ndarray  # own packets in the link
    base_cross: np.ndarray  # cross packets in the link delivered within the horizon
    base_done: np.ndarray  # (lanes,) base slots complete by the lane's deadline
    own_time: np.ndarray
    own_lane: np.ndarray
    own_drop_time: np.ndarray
    own_drop_lane: np.ndarray
    cross_time: np.ndarray
    cross_bits: np.ndarray
    cross_lane: np.ndarray
    cross_drop_time: np.ndarray
    cross_drop_bits: np.ndarray
    cross_drop_lane: np.ndarray
    final_bits: Callable[[], tuple[np.ndarray, np.ndarray]]  # per lane: (queued, cross backlog)

    @property
    def lanes(self) -> int:
        """Total number of (action × hypothesis) lanes."""
        return int(self.action_delays.size) * self.k

    def lane_outcome(self, lane: int) -> RolloutOutcome:
        """Rebuild one lane as a scalar :class:`RolloutOutcome`.

        The bridge for equivalence tests and for utilities that implement
        only the scalar ``evaluate``; event order within the lane is
        chronological, matching the scalar rollout's event-order lists.
        Per-lane event groups are indexed once (lazily), so rebuilding all
        lanes stays linear in the total event count.
        """
        if not hasattr(self, "_lane_index"):
            self._lane_index = {
                "own": _LaneIndex(self.own_lane, self.lanes),
                "own_drop": _LaneIndex(self.own_drop_lane, self.lanes),
                "cross": _LaneIndex(self.cross_lane, self.lanes),
                "cross_drop": _LaneIndex(self.cross_drop_lane, self.lanes),
            }
            self._final = self.final_bits()
        index = self._lane_index
        outcome = RolloutOutcome(
            decision_time=self.decision_time,
            horizon=float(self.horizon[lane]),
            final_queue_bits=float(self._final[0][lane]),
            final_cross_backlog_bits=float(self._final[1][lane]),
        )
        survival = float(self.own_survival[lane])
        column = lane % self.base_time.shape[1]
        done = int(self.base_done[lane])
        slots = np.flatnonzero(self.base_own[:done, column])
        for time in self.base_time[slots, column].tolist():
            outcome.own_deliveries.append((time, self.packet_bits, survival))
        for time in self.own_time[index["own"].rows(lane)].tolist():
            outcome.own_deliveries.append((time, self.packet_bits, survival))
            outcome.hypothetical_delivered = True
            outcome.hypothetical_delivery_time = time
        rows = index["own_drop"].rows(lane)
        for time in self.own_drop_time[rows].tolist():
            outcome.own_drops.append((time, self.packet_bits))
        slots = np.flatnonzero(self.base_cross[:, column])
        rows = index["cross"].rows(lane)
        for time, bits in zip(
            self.base_time[slots, column].tolist() + self.cross_time[rows].tolist(),
            self.base_bits[slots, column].tolist() + self.cross_bits[rows].tolist(),
        ):
            outcome.cross_deliveries.append((time, bits, survival))
        rows = index["cross_drop"].rows(lane)
        for time, bits in zip(
            self.cross_drop_time[rows].tolist(), self.cross_drop_bits[rows].tolist()
        ):
            outcome.cross_drops.append((time, bits))
        return outcome


class _LaneIndex:
    """Per-lane index groups over one flat event stream, built in one pass.

    A stable argsort groups events by lane while preserving each lane's
    chronological order; ``rows(lane)`` is then an O(group) slice lookup.
    """

    __slots__ = ("_order", "_starts")

    def __init__(self, lane_array: np.ndarray, lanes: int) -> None:
        self._order = np.argsort(lane_array, kind="stable")
        sorted_lanes = lane_array[self._order]
        self._starts = np.searchsorted(
            sorted_lanes, np.arange(lanes + 1), side="left"
        )

    def rows(self, lane: int) -> np.ndarray:
        return self._order[self._starts[lane] : self._starts[lane + 1]]


def _fifo_slots(row: dict, depth: int) -> dict:
    """The packets already in each row's link, as FIFO slots ``0 … depth``.

    Slot-major ``(depth + 1, rows)`` arrays.  Rows are right-aligned: the
    packet in service sits at slot ``depth - q_len`` with its queue behind
    it, so every row's first arrival takes slot ``depth + 1`` and the empty
    slots in front (``start = -inf``, never accepted) are never examined.
    The completion chain ``c, c + s1/r, (c + s1/r) + s2/r, …`` is one
    strict left-to-right ``np.add.accumulate``: the scalar model's float
    steps in its order (the empty slots add ``0.0`` ahead of ``c``).
    ``prefix[s]`` is the bits of the slots ahead of slot ``s``.
    """
    rate = row["link_rate"]
    shift = depth - row["q_len"]
    slot = np.arange(depth + 1)[:, None]
    queued = slot > shift
    head = (slot == shift) & row["svc_active"]
    rows = np.arange(rate.size)
    index = np.maximum(slot - shift - 1, 0)
    size = np.where(queued, row["q_size"].T[index, rows], np.where(head, row["svc_size"], 0.0))
    steps = np.where(queued, size / rate, 0.0)
    steps[shift, rows] = row["svc_completion"]
    completion = np.add.accumulate(steps, axis=0)
    start = np.full_like(completion, -np.inf)
    start[1:] = np.where(queued[1:], completion[:-1], -np.inf)
    prefix = np.zeros((depth + 2, rate.size))
    np.add.accumulate(size, axis=0, out=prefix[1:])
    return {
        "size": size,
        "is_cross": np.where(queued, row["q_flow"].T[index, rows], row["svc_flow"]) == FLOW_CROSS,
        "start": start,
        "completion": completion,
        "accepted": queued | head,
        "prefix": prefix,
        "queued_bits": np.add.reduce(size, axis=0, where=queued),
        "first": shift + 1,
        "last": np.where(row["svc_active"], completion[-1], -np.inf),
    }


def _cross_arrivals(row: dict, last: float) -> np.ndarray:
    """Each row's cross arrivals up to ``last``, slot-major ``(arrivals, rows)``.

    The chain ``x, x + i, (x + i) + i, …`` is one ``np.add.accumulate`` —
    the scalar's repeated ``when + interval``, bit for bit — extended until
    every row has passed ``last``.  A row whose gate is off arrives never
    (``inf``).
    """
    rate = row["cross_rate_pps"]
    on = row["gate_on"] & (rate > 0)
    first = np.where(on, row["next_cross_time"], last)
    steps = np.empty((int(np.max((last - first) * rate, initial=0.0)) + 2, rate.size))
    steps[0] = np.where(on, first, np.inf)
    with np.errstate(divide="ignore"):
        steps[1:] = 1.0 / rate
    cross = np.add.accumulate(steps, axis=0)
    while (cross[-1] <= last).any():
        steps[0] = cross[-1]
        cross = np.concatenate([cross, np.add.accumulate(steps, axis=0)[1:]])
    return cross


def _accept_arrivals(
    fifo: dict,
    column: np.ndarray,
    size: np.ndarray,
    service: np.ndarray,
    slack: np.ndarray,
    arrive: np.ndarray,
    until: np.ndarray,
    queue_bits: Optional[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Decide every lane's arrivals in time order, one column per iteration.

    ``fifo`` holds the packets already in the link per column (lane ``i``
    reads ``column[i]``), the other arrays are per lane; returns the
    arrival slots' ``start`` and ``accepted``.  An arrival starts at
    ``max(a, c_last)`` — its own time at an idle link, the last accepted
    completion behind a busy one — and is tail-dropped when the link is busy
    and the waiting bits plus its size exceed the buffer.  Starts ascend
    along each lane's slots (its column's base, then its arrivals), so the
    packets waiting at ``a`` are the slots from the lane's in-service
    pointer (its first slot that starts after ``a``) up to the arrival's
    own, and the pointer only moves forward.

    The waiting bits follow one of two rules.  With ``queue_bits`` None
    every size is a whole number and every sum stays below 2**53, so they
    are exact as a difference of prefix sums; a pointer left behind only
    overstates them, so the pointers move only when some lane would drop.
    The pointer walks the lane's arrivals; the base slots started by then
    are counted on the column, and read off its prefix sums.
    Otherwise ``queue_bits`` starts as the rows' own float value and the
    loop replays the scalar's loads (subtract, floor below ``1e-9``) and
    enqueues (add) in event order, up to each lane's deadline, leaving the
    bits there in ``queue_bits``.
    """
    base, columns = fifo["start"].shape
    count, width = arrive.shape
    lanes = np.arange(width)
    replay = queue_bits is not None
    window = np.arange(POINTER_WINDOW)[:, None] * width
    start = np.full(((base if replay else 0) + count + POINTER_WINDOW, width), np.nan)
    flat_start = start.reshape(-1)
    accepted = np.zeros((count, width), dtype=bool)
    last = fifo["last"].take(column)
    if replay:
        start[:base] = fifo["start"]
        start = start[base:]
        pointer = fifo["first"] * width + lanes
        waiting = (fifo["start"] > -np.inf) & fifo["accepted"]
        flat_queued = np.concatenate([waiting.ravel(), np.zeros(count * width, dtype=bool)])
        queued = flat_queued[base * width :].reshape(count, width)
        flat_size = np.concatenate([fifo["size"].ravel(), size.ravel()])
    else:
        pointer = lanes.copy()
        prefix = np.empty((count + 1, width))
        fifo["prefix"][-1].take(column, out=prefix[0])
        flat_prefix = prefix.reshape(-1)
        # The bits of the slots that started before the lane's pointer.
        started = fifo["prefix"][fifo["first"].take(column), column]

    def advance(when: np.ndarray) -> None:
        """Move each pointer past the slots that start by ``when``."""
        while True:
            slots = pointer + window
            began = flat_start.take(slots) <= when
            moved = np.add.reduce(began, axis=0, dtype=np.int64)
            if replay:
                loads = began & flat_queued.take(slots, mode="clip")
                sizes = flat_size.take(slots, mode="clip")
                for step in range(int(moved.max())):
                    remaining = queue_bits - sizes[step]
                    np.copyto(
                        queue_bits,
                        np.where(remaining < 1e-9, 0.0, remaining),
                        where=loads[step],
                    )
            np.add(pointer, moved * width, out=pointer)
            if not began[-1].any():
                break
        if not replay:
            # A column's base starts ascend, so those started by ``when``
            # are a prefix of it; no arrival starts before they all have.
            begun = fifo["start"][:, None, :] <= when.reshape(width // max(columns, 1), columns)
            begun = np.add.reduce(begun, axis=0, dtype=np.int64).ravel()
            np.add(fifo["prefix"][begun, column], flat_prefix.take(pointer) - prefix[0], out=started)

    for slot, when in enumerate(arrive):
        idle = last <= when
        ok = accepted[slot]
        if replay:
            advance(np.minimum(when, until))
            np.less_equal(queue_bits + size[slot], slack, out=ok)
            ok |= idle
        else:
            np.less_equal(prefix[slot] - started + size[slot], slack, out=ok)
            ok |= idle
            if not ok.all():
                advance(when)
                np.less_equal(prefix[slot] - started + size[slot], slack, out=ok)
                ok |= idle
        begin = np.maximum(when, last, out=start[slot])
        last = np.where(ok, begin + service[slot], last)
        if replay:
            enqueue = ok & ~idle & (when <= until)
            queued[slot] = enqueue
            np.add(queue_bits, size[slot], out=queue_bits, where=enqueue)
        else:
            np.add(prefix[slot], size[slot] * ok, out=prefix[slot + 1])
    if replay:
        advance(until)
    return start[:count], accepted


def batched_rollout_rows(
    state: EnsembleState,
    rows: Sequence[int] | np.ndarray,
    action_delays: Sequence[float],
    horizon: float | Sequence[float] | np.ndarray,
    packet_bits: float,
    now: float,
) -> BatchedRolloutOutcome:
    """Roll ``rows`` out over ``action_delays`` as one (action × hypothesis) pass.

    Mirrors ``Hypothesis.rollout`` lane for lane: the hypothetical packet
    enters at ``now + delay`` (after every event at or before that instant),
    the gate stays frozen, and each lane runs to ``max(now + horizon,
    send_time)`` so delays beyond the horizon still observe their send.
    ``horizon`` is one per row (a float is every row's): a lane runs to its
    own row's, so rows planned at different horizons share one call, and
    no lane reads another.

    A lane is a FIFO of slots: the packets already in its row's link
    (:func:`_fifo_slots`, held once per row), then one slot per arrival
    (:func:`_cross_arrivals` plus the send, placed after every cross arrival
    at its instant), held per lane.  :func:`_accept_arrivals` decides the
    arrivals column by column; the rest is read off the slots.  A delivery
    is an accepted slot that completes by the lane's deadline.  The replay
    rule sums a lane's pending bits front to back, as the scalar does, so
    it tiles the base across the actions (no shipped prior takes it).
    """
    rows = np.asarray(rows, dtype=np.int64)
    delays = np.asarray(action_delays, dtype=float)
    horizons = np.asarray(horizon, dtype=float)
    if horizons.ndim and horizons.shape != rows.shape:
        raise InferenceError(
            f"one horizon per row: {horizons.size} horizons for {rows.size} rows"
        )
    if not (math.isfinite(now) and np.isfinite(horizons).all() and np.isfinite(delays).all()):
        raise InferenceError("now, horizons and action delays must be finite")
    if (delays < 0).any():
        raise InferenceError("action delays must be non-negative")
    if now < state.time - 1e-9:
        raise InferenceError(
            f"cannot roll out at {now:.6f}: lane clock is already at "
            f"{state.time:.6f}"
        )
    k = int(rows.size)
    send = np.repeat(now + delays, k)
    width = send.size
    lane_row = np.arange(width) % max(k, 1)
    lane_horizon = horizons.take(lane_row) if horizons.ndim else np.full(width, horizons)
    end = now + lane_horizon
    # A lane runs past the horizon only to observe its own send.
    until = np.maximum(send, end)

    depth = int(state.q_len[rows].max(initial=0))
    row = state.lane_arrays(rows, depth + 1)
    fifo = _fifo_slots(row, depth)
    cross = _cross_arrivals(row, float(until.max(initial=now))).take(lane_row, axis=1)
    column = np.arange(cross.shape[0] + 1)[:, None]
    place = np.add.reduce(cross <= send, axis=0, dtype=np.int64)
    arrive = np.concatenate([cross, np.full((1, width), np.inf)])
    arrive[1:] = np.where(column[1:] > place, cross, arrive[1:])
    is_hyp = column == place
    arrive = np.where(is_hyp, send, arrive)
    valid = arrive <= until
    count = int(np.add.reduce(valid, axis=0, dtype=np.int64).max(initial=0))
    arrive, is_hyp, valid = arrive[:count], is_hyp[:count], valid[:count]

    # The arrival slots, per lane.
    size = np.where(is_hyp, packet_bits, row["cross_packet_bits"].take(lane_row))
    service = size / row["link_rate"].take(lane_row)
    # The prefix rule (see _accept_arrivals) holds when every size is a
    # whole number of bits, no lane's sizes can sum to 2**53, and each
    # row's queue bits are exactly its queued sizes' sum.
    whole = np.concatenate([fifo["size"].ravel(), row["cross_packet_bits"], [packet_bits]])
    exact = (
        not (whole % 1.0).any()
        and float(whole.max()) * (depth + 1 + count) < 2.0**53
        and np.array_equal(fifo["queued_bits"], row["queue_bits"])
    )
    queue_bits = None if exact else row["queue_bits"].take(lane_row)
    column = lane_row
    if not exact or not width:
        # A lane of the replay reads its own copy of the base (so does
        # every lane of a call without lanes).
        fifo = {name: value.take(lane_row, axis=-1) for name, value in fifo.items()}
        column = np.arange(width)
    start, accepted = _accept_arrivals(
        fifo,
        column,
        size,
        service,
        (row["buffer_cap"] + 1e-9).take(lane_row),
        arrive,
        until,
        queue_bits,
    )
    completion = start + service

    # The base, per column: the slots a lane sees complete by its deadline
    # are a prefix of its column (completions ascend); the rest are late.
    columns = fifo["size"].shape[1]
    held = np.where(fifo["accepted"], fifo["completion"], -np.inf)
    late = held[:, None, :] > until.reshape(width // max(columns, 1), columns)
    done = held.shape[0] - np.add.reduce(late, axis=0, dtype=np.int64).ravel()
    base_cross = fifo["is_cross"] & (held >= now) & (held < end[:columns])

    own, own_lane = np.nonzero(accepted & is_hyp & (completion <= until))
    cross, cross_lane = np.nonzero(
        accepted & ~is_hyp & (completion >= now) & (completion < end)
    )
    dropped = valid & ~accepted
    own_drop, own_drop_lane = np.nonzero(dropped & is_hyp)
    cross_drop, cross_drop_lane = np.nonzero(
        dropped & ~is_hyp & (arrive >= now) & (arrive < end)
    )

    def final_bits() -> tuple[np.ndarray, np.ndarray]:
        """What is left at each lane's deadline, all and cross: the accepted
        slots that arrived by it and have not completed (in service and
        waiting).  Built on demand: most utilities never read it."""
        pending = accepted & (completion > until) & valid
        cross_pending = pending & ~is_hyp
        if queue_bits is None:
            # Whole numbers: every sum is exact, in any order, so a lane's
            # late base bits are its column's total less what it delivered.
            prefix = fifo["prefix"]
            queued = prefix[-1].take(column) - prefix[done, column]
            queued += np.add.reduce(size * pending, axis=0)
            prefix = np.zeros_like(prefix)
            np.add.accumulate(fifo["size"] * fifo["is_cross"], axis=0, out=prefix[1:])
            backlog = prefix[-1].take(column) - prefix[done, column]
            return queued, backlog + np.add.reduce(size * cross_pending, axis=0)
        # The scalar adds the waiting bits front to back, then the packet
        # in service (a lane's one pending slot that has started).
        all_size = np.concatenate([fifo["size"], size])
        pending = np.concatenate([late[:, 0], pending])
        cross_pending = pending & np.concatenate([fifo["is_cross"], ~is_hyp])
        in_service = pending & (np.concatenate([fifo["start"], start]) <= until)
        queued = queue_bits + np.add.reduce(all_size, axis=0, where=in_service)
        backlog = np.add.accumulate(
            np.where(cross_pending & ~in_service, all_size, 0.0), axis=0
        )[-1]
        return queued, backlog + np.add.reduce(all_size, axis=0, where=cross_pending & in_service)

    return BatchedRolloutOutcome(
        decision_time=now,
        horizon=lane_horizon,
        packet_bits=packet_bits,
        action_delays=delays,
        k=k,
        own_survival=row["survival"].take(lane_row),
        base_time=held,
        base_bits=fifo["size"],
        base_own=fifo["accepted"] & ~fifo["is_cross"],
        base_cross=base_cross,
        base_done=done,
        own_time=completion[own, own_lane],
        own_lane=own_lane,
        own_drop_time=arrive[own_drop, own_drop_lane],
        own_drop_lane=own_drop_lane,
        cross_time=completion[cross, cross_lane],
        cross_bits=size[cross, cross_lane],
        cross_lane=cross_lane,
        cross_drop_time=arrive[cross_drop, cross_drop_lane],
        cross_drop_bits=size[cross_drop, cross_drop_lane],
        cross_drop_lane=cross_drop_lane,
        final_bits=final_bits,
    )


def select_rows(belief, count: int, drains: bool) -> tuple:
    """The array engine's *select*: the belief's ``count`` heaviest rows.

    Returns ``(weights, link rates, drain times, lanes)`` as the scalar
    :func:`~repro.inference.hypothesis.select_hypotheses` does, with
    ``lanes = (state, rows)``.  An array belief that holds an ensemble hands
    over its rows as they are (``top_rows``: no scalar ``Hypothesis`` is
    built on the decide path), and the per-row Python-float arithmetic —
    ``LinkModel.drain_time``'s formula included — keeps the planner's
    aggregates bit-identical across belief engines.  A scalar belief's top
    hypotheses, and the one hypothesis of an array belief that has settled
    (``state`` is ``None``), are packed through
    :meth:`EnsembleState.from_hypotheses`, which rejects hypotheses that do
    not share one model clock.
    """
    state = getattr(belief, "state", None)
    if state is None:
        weights, rates, drain_times, top = select_hypotheses(belief, count, drains)
        state = EnsembleState.from_hypotheses([hypothesis for hypothesis, _ in top])
        return weights, rates, drain_times, (state, np.arange(state.size))
    rows, weights = belief.top_rows(count)
    rates = state.link_rate[rows].tolist()
    return weights, rates, _drain_times(state, rows) if drains else None, (state, rows)


def follow_rows(
    lanes: tuple[EnsembleState, np.ndarray], packet_bits: float, now: float, drains: bool
) -> tuple:
    """The array engine's *follow*: the selected rows, then the same rows
    after one more ``packet_bits`` send at ``now``.

    Both sets are gathered into one new state, so one :func:`value_rows`
    call values the decision and the one after the send; ``lanes`` is not
    touched.  The second set is what a real send leaves the rows holding:
    :func:`~repro.inference.vectorized.engine.send_own`, on those rows
    alone, starts the packet's service, queues it or tail-drops it.  The
    new state's rows hold no ledger contents (a rollout reads none), so the
    packet's sequence number is a placeholder: one past every number the
    shared columns hold, whose sizes the rows' queued own packets read.

    Returns ``(lanes, drain times)``, the drain times for the post-send
    rows: :func:`select_rows`' formula, so a follow-up's horizon is the one
    a fresh plan after the real send derives, bit for bit.
    """
    state, rows = lanes
    count = len(rows)
    pair = state.select(np.concatenate([rows, rows]), ledger=False)
    sent = np.arange(count, 2 * count)
    placeholder = int(pair.own_seqs[pair.n_own - 1]) + 1 if pair.n_own else 0
    engine.send_own(pair, placeholder, packet_bits, now, sent)
    return (pair, np.arange(pair.size)), _drain_times(pair, sent) if drains else None


def _drain_times(state: EnsembleState, rows: np.ndarray) -> list[float]:
    """``LinkModel.drain_time`` per row, in Python floats, at the state's clock."""
    drain_times = []
    time = state.time
    for rate, bits, active, completion in zip(
        state.link_rate[rows].tolist(),
        state.queue_bits[rows].tolist(),
        state.svc_active[rows].tolist(),
        state.svc_completion[rows].tolist(),
    ):
        remaining = bits
        if active:
            remaining += max(0.0, (completion - time) * rate)
        drain_times.append(remaining / rate)
    return drain_times


def value_rows(
    lanes: tuple[EnsembleState, np.ndarray],
    delays: list[float],
    horizons: list[float],
    packet_bits: float,
    now: float,
    utility,
    probe: Optional[Callable[[str, object], None]],
) -> list[float]:
    """The array engine's *value*: every lane through one kernel call.

    One :func:`batched_rollout_rows` call over the selected rows, each at
    its own horizon in ``horizons``, then one utility per (action × row)
    lane, action-major, via the utility's ``evaluate_batch`` — or, for a
    custom utility without one, its scalar ``evaluate`` on each rebuilt
    lane (still no per-lane model rollout).  Reports the ``lanes`` and
    ``rollout`` stages to ``probe`` when one is set.
    """
    state, rows = lanes
    if probe is not None:
        probe("lanes", state.lane_checkpoint(rows))
    outcome = batched_rollout_rows(state, rows, delays, horizons, packet_bits, now)
    if probe is not None:
        probe(
            "rollout",
            {
                "lanes": [
                    rollout_outcome_digest(outcome.lane_outcome(lane))
                    for lane in range(outcome.lanes)
                ]
            },
        )
    evaluate_batch = getattr(utility, "evaluate_batch", None)
    if evaluate_batch is not None:
        return evaluate_batch(outcome).tolist()
    return [utility.evaluate(outcome.lane_outcome(lane)) for lane in range(outcome.lanes)]
