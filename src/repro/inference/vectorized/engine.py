"""Batched forward-model operations over an :class:`EnsembleState`.

These functions reproduce :class:`~repro.inference.linkmodel.LinkModel`'s
event loop (``advance`` / ``send_own`` / gate forking) across every
hypothesis row at once.  The outer ``while`` in :func:`advance` runs once
per *event depth* — each iteration fires a row's next event, plus the one a
service completion leaves it owing, with pure array operations — so the
Python-interpreter cost is O(max events per row) instead of O(total events
across the ensemble).  A gate fork runs its stay and switch branches
through one such frontier.

Semantics match the scalar model exactly, including its tie-breaking
(service completions before arrivals at the same instant), its tail-drop
tolerance of ``1e-9`` bits, and its snap-to-zero of residual queue bits.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import InferenceError
from repro.inference.vectorized.state import (
    FLOW_CROSS,
    FLOW_OWN,
    PRED_DELIVERED,
    PRED_DROPPED,
    EnsembleState,
)


def advance(
    state: EnsembleState, until: float, flip_at: np.ndarray | None = None
) -> None:
    """Run every row forward to ``until``, firing arrivals and departures.

    ``flip_at``, when given, holds one gate-flip instant per row (``inf`` for
    none).  A row's gate toggles there after every event at or before that
    instant, as ``Hypothesis.evolve`` flips a switched branch at the
    interval's midpoint, so a gate fork advances all its branches here in
    one frontier.

    Each iteration fires a live row's next event — and, for a row whose
    service completion it fires, the event that completion leaves next
    when that is a cross arrival or a flip: the row owes it, and the
    following iteration would fire exactly it.  A row's event sequence is
    the scalar model's either way; only the iteration count drops.
    """
    if until < state.time - 1e-9:
        raise InferenceError(
            f"cannot advance to {until:.6f}: model clock is already at {state.time:.6f}"
        )
    if flip_at is not None:
        flip_at = flip_at.copy()
    flip_live = None
    # A row leaves ``live`` for good once its next event passes ``until``:
    # every later event needs an earlier one to create it.
    live = np.arange(state.size)
    while live.size:
        svc = state.svc_completion[live]
        cross = np.where(state.gate_on[live], state.next_cross_time[live], np.inf)
        next_event = np.minimum(svc, cross)
        if flip_at is not None:
            flip_live = flip_at[live]
            next_event = np.minimum(next_event, flip_live)
        keep = next_event <= until
        if not keep.all():
            live = live[keep]
            if not live.size:
                break
            svc = svc[keep]
            cross = cross[keep]
            if flip_live is not None:
                flip_live = flip_live[keep]
        # Tie order at one instant matches the scalar model: completions
        # first (a departing packet frees space for the arrival), arrivals
        # second, a gate flip strictly last (``evolve`` advances through the
        # midpoint before it flips).
        completing = svc <= cross
        if flip_live is not None:
            completing &= svc <= flip_live
        rows = live[completing]
        if rows.size:
            _complete_service(state, rows)
            # A freed row owes the event it is left with next: re-read its
            # service frontier so the tests below fire that event in this
            # iteration.  A completion leaves the gate as it was, so
            # ``cross`` still holds.
            svc = state.svc_completion[live]
        # For a row no completion freed, these are the plain classification.
        arriving = (cross < svc) & (cross <= until)
        if flip_live is not None:
            arriving &= cross <= flip_live
        arrivals = live[arriving]
        if arrivals.size:
            _cross_arrival(state, arrivals)
        if flip_live is not None:
            flipping = live[(flip_live < svc) & (flip_live < cross) & (flip_live <= until)]
            if flipping.size:
                _flip_gate(state, flipping, flip_at[flipping])
                flip_at[flipping] = np.inf
    state.time = max(state.time, until)


def send_own(state: EnsembleState, seq: int, size_bits: float, time: float) -> None:
    """The sender transmits packet ``seq`` at ``time`` into every row."""
    if time < state.time - 1e-9:
        raise InferenceError(
            f"cannot send at {time:.6f}: model clock is already at {state.time:.6f}"
        )
    if time > state.time:
        advance(state, time)
    state.register_own_seq(seq, time)
    rows = np.arange(state.size)
    times = np.full(state.size, time, dtype=float)
    flows = np.full(state.size, FLOW_OWN, dtype=np.int8)
    seqs = np.full(state.size, seq, dtype=np.int64)
    sizes = np.full(state.size, size_bits, dtype=float)
    _enqueue(state, rows, times, flows, seqs, sizes)


def can_fork(state: EnsembleState) -> np.ndarray:
    """Rows with a latent memoryless gate: the only source of new rows."""
    return state.has_cross & ~np.isnan(state.mtts)


def fork_and_advance(
    state: EnsembleState, now: float
) -> tuple[EnsembleState, np.ndarray, np.ndarray]:
    """Advance to ``now``, forking rows with a latent memoryless gate.

    Returns ``(branch_state, parent_index, branch_probability)`` with the
    branches interleaved exactly as the scalar update builds them: row ``i``'s
    "stay" branch, then (for forking rows) row ``i``'s "switch" branch.
    Branches with zero probability are dropped, as in the scalar path.
    The branches are gathered from ``state`` before any of them moves, then
    advance together in one frontier, each switch branch flipping its gate
    at the interval's midpoint.  The input ``state`` is consumed: use only
    the returned one.
    """
    size = state.size
    interval = now - state.time
    if interval <= 1e-12:
        return state, np.arange(size), np.ones(size)

    forking = can_fork(state)
    fork_idx = np.nonzero(forking)[0]
    if fork_idx.size == 0:
        advance(state, now)
        return state, np.arange(size), np.ones(size)

    # Dwell probabilities via math.exp so each branch weight is bit-identical
    # to the scalar Hypothesis.evolve computation.
    switch_probability = np.array(
        [1.0 - math.exp(-interval / mtts) for mtts in state.mtts[fork_idx].tolist()]
    )
    stay_probability = np.ones(size)
    stay_probability[fork_idx] = 1.0 - switch_probability

    forks_before = np.cumsum(forking) - forking
    stay_position = np.arange(size) + forks_before
    switch_position = stay_position[fork_idx] + 1
    total = size + fork_idx.size
    parent = np.empty(total, dtype=np.int64)
    parent[stay_position] = np.arange(size)
    parent[switch_position] = fork_idx
    probability = np.empty(total, dtype=float)
    probability[stay_position] = stay_probability
    probability[switch_position] = switch_probability
    flip_at = np.full(total, np.inf)
    flip_at[switch_position] = state.time + interval / 2.0

    keep = probability > 0.0
    if not keep.all():
        keep_idx = np.nonzero(keep)[0]
        parent = parent[keep_idx]
        probability = probability[keep_idx]
        flip_at = flip_at[keep_idx]
    branch_state = state.select(parent)
    advance(branch_state, now, flip_at)
    return branch_state, parent, probability


# ------------------------------------------------------------------ internals


def _flip_gate(state: EnsembleState, rows: np.ndarray, when: np.ndarray) -> None:
    """Toggle ``rows``' cross-traffic gates, each at its instant in ``when``.

    A gate turning on schedules its first arrival at the flip, as
    ``LinkModel.set_gate`` does once the model has advanced to it.
    """
    turning_on = ~state.gate_on[rows]
    state.next_cross_time[rows] = np.where(turning_on, when, np.inf)
    state.gate_on[rows] = turning_on


def _complete_service(state: EnsembleState, rows: np.ndarray) -> None:
    """Fire the service-completion event on ``rows`` (their next event)."""
    when = state.svc_completion[rows]
    own = state.svc_flow[rows] == FLOW_OWN
    own_rows = rows[own]
    if own_rows.size:
        cols = state.lookup_columns(state.svc_seq[own_rows])
        state.pred_state[own_rows, cols] = PRED_DELIVERED
        state.pred_time[own_rows, cols] = when[own]
    # Cross-traffic deliveries carry no latent state; the vectorized backend
    # does not tally them (see EnsembleState's docstring).

    has_next = state.q_len[rows] > 0
    next_rows = rows[has_next]
    if next_rows.size:
        size = state.q_size[next_rows, 0]
        state.svc_flow[next_rows] = state.q_flow[next_rows, 0]
        state.svc_seq[next_rows] = state.q_seq[next_rows, 0]
        state.svc_size[next_rows] = size
        state.svc_completion[next_rows] = when[has_next] + size / state.link_rate[next_rows]
        # Shift the queue left one slot (fancy-indexed reads copy, so the
        # overlapping assignment is safe), then clear the vacated slot so the
        # buffers stay canonically zero-padded past q_len (the compaction
        # digest relies on this).
        state.q_flow[next_rows, :-1] = state.q_flow[next_rows, 1:]
        state.q_seq[next_rows, :-1] = state.q_seq[next_rows, 1:]
        state.q_size[next_rows, :-1] = state.q_size[next_rows, 1:]
        state.q_len[next_rows] -= 1
        tail = state.q_len[next_rows]
        state.q_flow[next_rows, tail] = 0
        state.q_seq[next_rows, tail] = 0
        state.q_size[next_rows, tail] = 0.0
        remaining = state.queue_bits[next_rows] - size
        state.queue_bits[next_rows] = np.where(remaining < 1e-9, 0.0, remaining)
    idle_rows = rows[~has_next]
    if idle_rows.size:
        state.svc_active[idle_rows] = False
        state.svc_flow[idle_rows] = -1
        state.svc_seq[idle_rows] = 0
        state.svc_size[idle_rows] = 0.0
        state.svc_completion[idle_rows] = np.inf


def _cross_arrival(state: EnsembleState, rows: np.ndarray) -> None:
    """Fire the cross-traffic arrival event on ``rows`` (their next event)."""
    when = state.next_cross_time[rows].copy()
    flows = np.full(rows.size, FLOW_CROSS, dtype=np.int8)
    seqs = state.next_cross_seq[rows].copy()
    sizes = state.cross_packet_bits[rows]
    _enqueue(state, rows, when, flows, seqs, sizes)
    state.next_cross_seq[rows] += 1
    state.next_cross_time[rows] = when + 1.0 / state.cross_rate_pps[rows]


def _enqueue(
    state: EnsembleState,
    rows: np.ndarray,
    times: np.ndarray,
    flows: np.ndarray,
    seqs: np.ndarray,
    sizes: np.ndarray,
) -> None:
    """Offer one packet per row: start service, queue it, or tail-drop it."""
    idle = ~state.svc_active[rows]
    idle_rows = rows[idle]
    if idle_rows.size:
        state.svc_active[idle_rows] = True
        state.svc_flow[idle_rows] = flows[idle]
        state.svc_seq[idle_rows] = seqs[idle]
        state.svc_size[idle_rows] = sizes[idle]
        state.svc_completion[idle_rows] = times[idle] + sizes[idle] / state.link_rate[idle_rows]

    busy = ~idle
    busy_rows = rows[busy]
    if busy_rows.size == 0:
        return
    fits = (
        state.queue_bits[busy_rows] + sizes[busy]
        <= state.buffer_cap[busy_rows] + 1e-9
    )
    queue_rows = busy_rows[fits]
    if queue_rows.size:
        state.ensure_queue_capacity(int(state.q_len[queue_rows].max()) + 1)
        slots = state.q_len[queue_rows]
        state.q_flow[queue_rows, slots] = flows[busy][fits]
        state.q_seq[queue_rows, slots] = seqs[busy][fits]
        state.q_size[queue_rows, slots] = sizes[busy][fits]
        state.q_len[queue_rows] += 1
        state.queue_bits[queue_rows] += sizes[busy][fits]

    drop_rows = busy_rows[~fits]
    if drop_rows.size:
        dropped_own = flows[busy][~fits] == FLOW_OWN
        own_drop_rows = drop_rows[dropped_own]
        if own_drop_rows.size:
            cols = state.lookup_columns(seqs[busy][~fits][dropped_own])
            state.pred_state[own_drop_rows, cols] = PRED_DROPPED
            state.pred_time[own_drop_rows, cols] = times[busy][~fits][dropped_own]
        # Cross drops are not tallied (no latent state).
