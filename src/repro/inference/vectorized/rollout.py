"""The batched rollout engine: every (action × hypothesis) lane at once.

The planner's §3.2 expected-utility step rolls each candidate action through
each top-k hypothesis.  The scalar oracle
(:func:`~repro.inference.hypothesis.value_hypotheses`) clones and advances
one :class:`~repro.inference.linkmodel.LinkModel` per lane — A×K
independent Python event loops.  This module is the one array engine: it
runs all of them as *one* batched, event-stepped advance over
struct-of-arrays lane buffers.

* :func:`batched_rollout_rows` is the entry point: the sender's top-k
  :class:`~repro.inference.vectorized.state.EnsembleState` rows, tiled across
  its candidate delays by :meth:`EnsembleState.lane_arrays`, advance together
  through one masked event frontier.
* Each iteration of the frontier fires a lane's next event — service
  completion, cross arrival, the lane's hypothetical send — and, for a lane
  a completion freed, the arrival or send it is left with next, so the
  Python-interpreter cost is O(max events per lane) instead of O(total
  events across the fan-out).  When the lanes start on a deep standing
  queue (:data:`DRAIN_MIN_QUEUE_DEPTH`), back-to-back departure runs are
  additionally *drained* in one prefix-sum pass each (:func:`_drain_runs`);
  on shallow queues the extra bookkeeping costs more than it saves, so the
  frontier decides per call from the depth it already measured.  The result
  is bit-identical either way.
* The result is a :class:`BatchedRolloutOutcome` holding every
  lane's predicted deliveries/drops as flat (time, lane) arrays, which
  ``UtilityFunction.evaluate_batch`` consumes without materializing per-lane
  Python objects.  :meth:`BatchedRolloutOutcome.lane_outcome` rebuilds one
  lane as an ordinary :class:`~repro.inference.hypothesis.RolloutOutcome` —
  the equivalence tests' bridge, and the fallback for custom utilities that
  only implement scalar ``evaluate``.
* :func:`select_rows` and :func:`value_rows` are the engine the planner
  calls for both accepted spellings, ``"vectorized"`` and ``"fused"``:
  *select* hands over the top-k weights, link rates and drain times plus the
  rows, *value* returns one utility per lane.  The decision itself — the
  probability-weighted aggregation and the tie-broken argmax — is the
  planner's, written once for both engines.

Semantics match ``Hypothesis.rollout`` exactly: event arithmetic is the
same float operations in the same order as the scalar ``LinkModel``,
completions fire before arrivals at the same instant, and the hypothetical
send enqueues strictly after both; candidate delays beyond the horizon
advance the lane to the send time, as the scalar path does.  The only
tolerated divergence is transcendental rounding in the utility's discount
(``np.exp`` vs ``math.exp``, ≤1 ulp per term), which is why the documented
utility tolerance is ``1e-9`` relative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from repro.errors import InferenceError
from repro.inference.hypothesis import (
    RolloutOutcome,
    rollout_outcome_digest,
    select_hypotheses,
)
from repro.inference.vectorized.state import FLOW_CROSS, EnsembleState, _pad_columns

#: Flow code for the planner's hypothetical packet inside the lane buffers.
#: Distinct from FLOW_OWN only so outcomes can report the hypothetical's
#: delivery; everywhere else it behaves exactly like own traffic.
FLOW_HYP = 2

#: Departure runs are drained (:func:`_drain_runs`) only when the deepest
#: initial queue among a call's lanes holds at least this many packets.
#: Measured on the benchmark's traffic: Figure-3 and serving states start
#: ≤ 9 deep and run ~1.8× faster lockstep; standing queues ≥ 20 deep run
#: 1.2–4.4× faster drained.  Nothing was observed in between, so the
#: constant sits in that gap.
DRAIN_MIN_QUEUE_DEPTH = 16


@dataclass
class BatchedRolloutOutcome:
    """Every lane's predicted consequences, in flat struct-of-arrays form.

    Lane ``a * k + j`` is candidate action ``a`` applied to hypothesis row
    ``j`` (planner top-k order).  Event arrays are parallel ``(time, lane)``
    columns, chronological *per lane*; per-lane scalars are ``(lanes,)``
    arrays.  ``own_*`` events carry a uniform ``packet_bits`` size and the
    lane's survival probability, exactly as the scalar ``RolloutOutcome``
    reports them.
    """

    decision_time: float
    horizon: float
    packet_bits: float
    action_delays: np.ndarray  # (A,)
    k: int  # hypothesis rows per action

    own_survival: np.ndarray  # (lanes,) survival of delivered own packets
    own_time: np.ndarray
    own_lane: np.ndarray
    own_is_hyp: np.ndarray
    own_drop_time: np.ndarray
    own_drop_lane: np.ndarray
    own_drop_is_hyp: np.ndarray
    cross_time: np.ndarray
    cross_bits: np.ndarray
    cross_lane: np.ndarray
    cross_drop_time: np.ndarray
    cross_drop_bits: np.ndarray
    cross_drop_lane: np.ndarray
    final_queue_bits: np.ndarray  # (lanes,)
    final_cross_backlog_bits: np.ndarray  # (lanes,)

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
        index = self._lane_index
        action = int(lane) // self.k
        outcome = RolloutOutcome(
            decision_time=self.decision_time,
            action_delay=float(self.action_delays[action]),
            horizon=self.horizon,
            final_queue_bits=float(self.final_queue_bits[lane]),
            final_cross_backlog_bits=float(self.final_cross_backlog_bits[lane]),
        )
        survival = float(self.own_survival[lane])
        rows = index["own"].rows(lane)
        for time, is_hyp in zip(
            self.own_time[rows].tolist(), self.own_is_hyp[rows].tolist()
        ):
            outcome.own_deliveries.append((time, self.packet_bits, survival))
            if is_hyp:
                outcome.hypothetical_delivered = True
                outcome.hypothetical_delivery_time = time
        rows = index["own_drop"].rows(lane)
        for time in self.own_drop_time[rows].tolist():
            outcome.own_drops.append((time, self.packet_bits))
        rows = index["cross"].rows(lane)
        for time, bits in zip(
            self.cross_time[rows].tolist(), self.cross_bits[rows].tolist()
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


def _concat_drops(
    chunks: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flatten uniform-flow ``(flow, times, lanes, sizes)`` drop chunks."""
    if not chunks:
        empty = np.empty(0)
        return empty, np.empty(0, dtype=np.int64), empty.copy(), np.empty(0, dtype=np.int8)
    times = np.concatenate([chunk[1] for chunk in chunks])
    lanes = np.concatenate([chunk[2] for chunk in chunks])
    sizes = np.concatenate([chunk[3] for chunk in chunks])
    flows = np.concatenate(
        [np.full(chunk[1].size, chunk[0], dtype=np.int8) for chunk in chunks]
    )
    return times, lanes, sizes, flows


def _run_frontier(
    *,
    link_rate: np.ndarray,
    buffer_slack: np.ndarray,
    cross_interval: np.ndarray,
    cross_packet_bits: np.ndarray,
    svc_active: np.ndarray,
    svc_flow: np.ndarray,
    svc_size: np.ndarray,
    svc_completion: np.ndarray,
    q_flow: np.ndarray,
    q_size: np.ndarray,
    q_len: np.ndarray,
    queue_bits: np.ndarray,
    send_time: np.ndarray,
    until: np.ndarray,
    next_cross: np.ndarray,
    next_hyp: np.ndarray,
    hyp_left: int,
    packet_bits_lane: np.ndarray,
    width_is_exact: bool,
    drain: bool,
) -> dict:
    """The masked event frontier every rollout runs through.

    Mutates the per-lane buffers in place and returns the raw event log plus
    the final lane state.  Every operation here is per-lane elementwise (no
    cross-lane reduction), so a lane's event sequence — values and order —
    depends only on that lane's own inputs.

    A lane whose service completion an iteration fires also fires, in that
    iteration, the cross arrival or hypothetical send the completion leaves
    next: it is the event the following iteration would fire, so a lane
    alternating departures and arrivals takes one iteration per pair.

    With ``drain`` set, a completion whose freshly loaded packet would
    itself complete before the lane's next cross arrival, hypothetical send,
    and deadline hands the lane's whole back-to-back departure run to
    :func:`_drain_runs` inside the same iteration.  The outer iteration
    count then drops from the busiest lane's *event* count to roughly its
    *arrival* count.  A lane's event sequence (times, flows, sizes, drop
    decisions) and final state are bit-identical however many of its events
    one iteration fires, and each flat event stream stays chronological
    *per lane* — the property every consumer relies on (``_LaneIndex``
    groups with a stable sort, ``evaluate_batch`` accumulates with
    unbuffered per-lane ``np.add.at``).  Only the cross-lane interleaving of
    the streams differs; no consumer observes it.
    """
    total = int(link_rate.size)
    q_head = np.zeros(total, dtype=np.int64)

    # Completions are logged untyped — (time, lane, flow, size) chunks in
    # event order — and classified own/cross once after the loop; drops are
    # uniform-flow chunks.  Per-lane chronology survives both because chunks
    # append in event order and each lane's events within a chunk ascend.
    comp_times: list[np.ndarray] = []
    comp_rows: list[np.ndarray] = []
    comp_flows: list[np.ndarray] = []
    comp_sizes: list[np.ndarray] = []
    drop_chunks: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []

    def enqueue(rows: np.ndarray, times: np.ndarray, flow: int, sizes: np.ndarray) -> None:
        """Offer one ``flow``-typed packet per row: serve, queue, or tail-drop."""
        nonlocal q_flow, q_size
        idle = ~svc_active[rows]
        idle_rows = rows[idle]
        if idle_rows.size:
            svc_active[idle_rows] = True
            svc_flow[idle_rows] = flow
            svc_size[idle_rows] = sizes[idle]
            svc_completion[idle_rows] = times[idle] + sizes[idle] / link_rate[idle_rows]
            if idle_rows.size == rows.size:
                return
            busy = ~idle
            rows = rows[busy]
            times = times[busy]
            sizes = sizes[busy]
        fits = queue_bits[rows] + sizes <= buffer_slack[rows]
        queue_rows = rows[fits]
        if queue_rows.size != rows.size:
            drop = ~fits
            drop_chunks.append((flow, times[drop], rows[drop], sizes[drop]))
            queue_sizes = sizes[fits]
        else:
            queue_sizes = sizes
        if queue_rows.size:
            slots = q_head[queue_rows] + q_len[queue_rows]
            if not width_is_exact:
                needed = int(slots.max()) + 1
                if needed > q_flow.shape[1]:
                    grown = max(needed, q_flow.shape[1] * 2)
                    q_flow = _pad_columns(q_flow, grown)
                    q_size = _pad_columns(q_size, grown)
            q_flow[queue_rows, slots] = flow
            q_size[queue_rows, slots] = queue_sizes
            q_len[queue_rows] += 1
            queue_bits[queue_rows] += queue_sizes

    # A lane leaves ``live`` permanently once its next event passes its
    # deadline: every future event needs an earlier event to create it, so
    # inactivity is absorbing and the per-iteration work shrinks with the
    # surviving lane count.  ``until_live`` is compacted alongside ``live``
    # instead of being re-gathered each iteration.
    live = np.arange(total)
    until_live = until
    while live.size:
        svc_live = svc_completion[live]
        cross_live = next_cross[live]
        if hyp_left:
            hyp_live = next_hyp[live]
            next_event = np.minimum(np.minimum(svc_live, cross_live), hyp_live)
        else:
            next_event = np.minimum(svc_live, cross_live)
        keep = next_event <= until_live
        if not keep.all():
            live = live[keep]
            if not live.size:
                break
            until_live = until_live[keep]
            svc_live = svc_live[keep]
            cross_live = cross_live[keep]
            if hyp_left:
                hyp_live = hyp_live[keep]
        # Tie order at one instant matches the scalar rollout: service
        # completions first (a departure frees space for an arrival), cross
        # arrivals second, the hypothetical send strictly last (send_own
        # enqueues only after advancing through every event at its time).
        if hyp_left:
            completing = (svc_live <= cross_live) & (svc_live <= hyp_live)
        else:
            completing = svc_live <= cross_live

        rows = live[completing]
        if rows.size:
            when = svc_live[completing]
            comp_times.append(when)
            comp_rows.append(rows)
            comp_flows.append(svc_flow[rows])
            comp_sizes.append(svc_size[rows])
            has_next = q_len[rows] > 0
            next_rows = rows[has_next]
            if next_rows.size:
                head = q_head[next_rows]
                size = q_size[next_rows, head]
                svc_flow[next_rows] = q_flow[next_rows, head]
                svc_size[next_rows] = size
                svc_completion[next_rows] = when[has_next] + size / link_rate[next_rows]
                q_head[next_rows] = head + 1
                q_len[next_rows] -= 1
                remaining = queue_bits[next_rows] - size
                queue_bits[next_rows] = np.where(remaining < 1e-9, 0.0, remaining)
            if next_rows.size != rows.size:
                # Stale svc_flow/svc_size are masked by svc_active everywhere
                # they are read, so only the active flag and frontier reset.
                idle_rows = rows[~has_next]
                svc_active[idle_rows] = False
                svc_completion[idle_rows] = np.inf
            if drain and next_rows.size:
                # Fire the reloaded packet's completion in this same
                # iteration whenever it still beats the lane's next cross
                # arrival, hypothetical send, and deadline — exactly the
                # events the following iterations would fire, in the same
                # per-lane order.
                new_comp = svc_completion[next_rows]
                draining = (new_comp <= next_cross[next_rows]) & (
                    new_comp <= until[next_rows]
                )
                if hyp_left:
                    draining &= new_comp <= next_hyp[next_rows]
                run_rows = next_rows[draining]
                if run_rows.size:
                    run_start = new_comp[draining]
                    comp_times.append(run_start)
                    comp_rows.append(run_rows)
                    comp_flows.append(svc_flow[run_rows])
                    comp_sizes.append(svc_size[run_rows])
                    _drain_runs(
                        run_rows,
                        run_start,
                        link_rate=link_rate,
                        svc_active=svc_active,
                        svc_flow=svc_flow,
                        svc_size=svc_size,
                        svc_completion=svc_completion,
                        q_flow=q_flow,
                        q_size=q_size,
                        q_head=q_head,
                        q_len=q_len,
                        queue_bits=queue_bits,
                        until=until,
                        next_cross=next_cross,
                        next_hyp=next_hyp,
                        hyp_left=hyp_left,
                        comp_times=comp_times,
                        comp_rows=comp_rows,
                        comp_flows=comp_flows,
                        comp_sizes=comp_sizes,
                    )
            # A lane a completion (or a drained run) freed owes the event it
            # is left with next, and the following iteration would fire
            # exactly that: re-read its service frontier so the arrival and
            # send tests below fire it in this one.  A completion moves
            # neither other frontier, so the gathered ones still hold.
            svc_live = svc_completion[live]

        # A lane's next event is its arrival (or send) when that beats its
        # service frontier under the tie order above and its deadline: for a
        # lane no completion freed this is the plain classification.
        arriving = (cross_live < svc_live) & (cross_live <= until_live)
        if hyp_left:
            arriving &= cross_live <= hyp_live
        arrivals = live[arriving]
        if arrivals.size:
            when = cross_live[arriving]
            enqueue(arrivals, when, FLOW_CROSS, cross_packet_bits[arrivals])
            next_cross[arrivals] = when + cross_interval[arrivals]

        if hyp_left:
            # No deadline test: a lane's deadline is never before its send.
            sends = live[(hyp_live < svc_live) & (hyp_live < cross_live)]
            if sends.size:
                next_hyp[sends] = np.inf
                hyp_left -= int(sends.size)
                enqueue(sends, send_time[sends], FLOW_HYP, packet_bits_lane[sends])

    if comp_times:
        all_times = np.concatenate(comp_times)
        all_rows = np.concatenate(comp_rows)
        all_flows = np.concatenate(comp_flows)
        all_sizes = np.concatenate(comp_sizes)
    else:
        all_times = np.empty(0)
        all_rows = np.empty(0, dtype=np.int64)
        all_flows = np.empty(0, dtype=np.int8)
        all_sizes = np.empty(0)
    return {
        "times": all_times,
        "rows": all_rows,
        "flows": all_flows,
        "sizes": all_sizes,
        "drop_chunks": drop_chunks,
        "q_flow": q_flow,
        "q_size": q_size,
        "q_head": q_head,
        "q_len": q_len,
        "queue_bits": queue_bits,
        "svc_active": svc_active,
        "svc_flow": svc_flow,
        "svc_size": svc_size,
    }


def _drain_runs(
    run_rows: np.ndarray,
    run_start: np.ndarray,
    *,
    link_rate: np.ndarray,
    svc_active: np.ndarray,
    svc_flow: np.ndarray,
    svc_size: np.ndarray,
    svc_completion: np.ndarray,
    q_flow: np.ndarray,
    q_size: np.ndarray,
    q_head: np.ndarray,
    q_len: np.ndarray,
    queue_bits: np.ndarray,
    until: np.ndarray,
    next_cross: np.ndarray,
    next_hyp: np.ndarray,
    hyp_left: int,
    comp_times: list[np.ndarray],
    comp_rows: list[np.ndarray],
    comp_flows: list[np.ndarray],
    comp_sizes: list[np.ndarray],
) -> None:
    """Finish each lane's back-to-back departure run in one vectorized slab.

    ``run_rows`` are lanes whose just-loaded packet (completing at
    ``run_start``, event already emitted) *drained* — its completion beats
    the lane's next cross arrival, hypothetical send, and deadline.  The
    lockstep loop would now fire one masked iteration per remaining queued
    packet; this helper replays that entire run at once: a prefix-sum over
    the queued transmission times yields every completion in the run, a
    single comparison against the lane's drain limit finds where the run
    stops, and the queue/service state jumps straight to the post-run
    values.

    Bit-identity with the one-packet-at-a-time loop is preserved because
    ``np.add.accumulate`` is a strict left-to-right accumulation: the
    completion chain ``c_{j+1} = c_j + size_j / rate`` and the backlog
    chain ``(queue_bits - s_1) - s_2 …`` associate exactly as the scalar
    steps do (IEEE ``a - b`` ≡ ``a + (-b)``), and the backlog's ``< 1e-9``
    floor commutes with skipping intermediate steps — the chain is
    monotone decreasing, and once the scalar loop floors to ``0.0`` every
    later step re-floors to ``0.0``.
    """
    depth = q_len[run_rows]
    width = int(depth.max()) if depth.size else 0
    if width == 0:
        # Every run emptied its queue on the packet just emitted.
        svc_active[run_rows] = False
        svc_completion[run_rows] = np.inf
        return
    offsets = np.arange(width)
    valid = offsets[None, :] < depth[:, None]
    cols = np.where(valid, q_head[run_rows][:, None] + offsets[None, :], 0)
    row_col = run_rows[:, None]
    sizes_slab = q_size[row_col, cols]
    flows_slab = q_flow[row_col, cols]
    # chain[:, j] after accumulation is the completion time of the j-th
    # queued packet; column 0 seeds the strict left-to-right accumulation
    # with the just-emitted completion, matching the scalar chain's
    # association exactly.
    chain = np.empty((run_rows.size, width + 1))
    chain[:, 0] = run_start
    np.divide(sizes_slab, link_rate[run_rows][:, None], out=chain[:, 1:])
    np.add.accumulate(chain, axis=1, out=chain)
    completions = chain[:, 1:]
    limit = np.minimum(next_cross[run_rows], until[run_rows])
    if hyp_left:
        limit = np.minimum(limit, next_hyp[run_rows])
    fired = valid & (completions <= limit[:, None])
    drained = fired.sum(axis=1)
    if drained.any():
        comp_times.append(completions[fired])
        comp_rows.append(np.repeat(run_rows, drained))
        comp_flows.append(flows_slab[fired])
        comp_sizes.append(sizes_slab[fired])
    exhausted = drained >= depth
    # Lanes that drained their whole queue loaded (and emitted) all of it;
    # the rest additionally loaded the first packet that did not drain,
    # which stays in service exactly as the scalar loop leaves it.
    loads = np.where(exhausted, depth, drained + 1)
    backlog = np.empty((run_rows.size, width + 1))
    backlog[:, 0] = queue_bits[run_rows]
    np.negative(sizes_slab, out=backlog[:, 1:])
    np.add.accumulate(backlog, axis=1, out=backlog)
    lanes = np.arange(run_rows.size)
    final_backlog = backlog[lanes, loads]
    queue_bits[run_rows] = np.where(final_backlog < 1e-9, 0.0, final_backlog)
    q_head[run_rows] += loads
    q_len[run_rows] -= loads
    if exhausted.any():
        done = run_rows[exhausted]
        svc_active[done] = False
        svc_completion[done] = np.inf
    serving = ~exhausted
    if serving.any():
        serving_rows = run_rows[serving]
        pick = drained[serving]
        slab = lanes[serving]
        svc_flow[serving_rows] = flows_slab[slab, pick]
        svc_size[serving_rows] = sizes_slab[slab, pick]
        svc_completion[serving_rows] = completions[slab, pick]


def _classify_events(raw: dict, now: float, end: float) -> dict:
    """Split the raw event log into the outcome's own/cross event streams.

    Cross-traffic outcomes count within ``[decision_time, end)`` only; own
    predictions are unfiltered, both exactly as the scalar rollout reports.
    """
    own = raw["flows"] != FLOW_CROSS
    own_time = raw["times"][own]
    own_lane = raw["rows"][own]
    own_is_hyp = raw["flows"][own] == FLOW_HYP
    cross = ~own
    cross_time = raw["times"][cross]
    cross_lane = raw["rows"][cross]
    cross_bits = raw["sizes"][cross]

    drop_chunks = raw["drop_chunks"]
    own_drop_time, own_drop_lane, _own_drop_sizes, own_drop_flows = _concat_drops(
        [chunk for chunk in drop_chunks if chunk[0] != FLOW_CROSS]
    )
    own_drop_is_hyp = own_drop_flows == FLOW_HYP
    cross_drop_time, cross_drop_lane, cross_drop_bits, _ = _concat_drops(
        [chunk for chunk in drop_chunks if chunk[0] == FLOW_CROSS]
    )

    keep = (cross_time >= now) & (cross_time < end)
    cross_time, cross_lane, cross_bits = cross_time[keep], cross_lane[keep], cross_bits[keep]
    keep = (cross_drop_time >= now) & (cross_drop_time < end)
    cross_drop_time = cross_drop_time[keep]
    cross_drop_lane = cross_drop_lane[keep]
    cross_drop_bits = cross_drop_bits[keep]
    return {
        "own_time": own_time,
        "own_lane": own_lane,
        "own_is_hyp": own_is_hyp,
        "own_drop_time": own_drop_time,
        "own_drop_lane": own_drop_lane,
        "own_drop_is_hyp": own_drop_is_hyp,
        "cross_time": cross_time,
        "cross_bits": cross_bits,
        "cross_lane": cross_lane,
        "cross_drop_time": cross_drop_time,
        "cross_drop_bits": cross_drop_bits,
        "cross_drop_lane": cross_drop_lane,
    }


def _cross_backlog_sequential(raw: dict) -> np.ndarray:
    """Final cross-queued bits per lane, accumulated strictly left to right.

    ``np.add.at`` over the in-queue cross cells in row-major (ascending
    column) order gives every lane the scalar oracle's ordered float
    additions (``LinkModel.cross_backlog_bits`` sums the queue front to
    back, then adds the packet in service) no matter how wide the buffer
    is.
    """
    q_flow, q_size = raw["q_flow"], raw["q_size"]
    q_head, q_len = raw["q_head"], raw["q_len"]
    columns = np.arange(q_flow.shape[1])
    in_queue = (columns >= q_head[:, None]) & (columns < (q_head + q_len)[:, None])
    lanes_nz, cols_nz = np.nonzero(in_queue & (q_flow == FLOW_CROSS))
    cross_backlog = np.zeros(q_len.size)
    np.add.at(cross_backlog, lanes_nz, q_size[lanes_nz, cols_nz])
    cross_backlog += np.where(
        raw["svc_active"] & (raw["svc_flow"] == FLOW_CROSS), raw["svc_size"], 0.0
    )
    return cross_backlog


def batched_rollout_rows(
    state: EnsembleState,
    rows: Sequence[int] | np.ndarray,
    action_delays: Sequence[float],
    horizon: float,
    packet_bits: float,
    now: float,
    send_packet: bool = True,
) -> BatchedRolloutOutcome:
    """Roll ``rows`` out over ``action_delays`` as one (action × hypothesis) pass.

    Mirrors ``Hypothesis.rollout`` lane for lane: the hypothetical packet
    enters at ``now + delay`` (after every event at or before that instant),
    the gate stays frozen, and each lane runs to ``max(now + horizon,
    send_time)`` so delays beyond the horizon still observe their send.
    """
    rows = np.asarray(rows, dtype=np.int64)
    delays = np.asarray(action_delays, dtype=float)
    if np.any(delays < 0):
        raise InferenceError("action delays must be non-negative")
    if now < state.time - 1e-9:
        raise InferenceError(
            f"cannot roll out at {now:.6f}: lane clock is already at "
            f"{state.time:.6f}"
        )
    k = int(rows.size)
    # Slots are consumed monotonically (ring head, no reuse), so pre-size
    # the queue buffers for the worst-case enqueue count — initial
    # occupancy plus every possible cross arrival plus the hypothetical —
    # and the loop has to grow them only when the estimate was clamped.
    max_delay = float(delays.max()) if delays.size else 0.0
    span = horizon + max_delay + (now - state.time)
    max_rate = float(state.cross_rate_pps[rows].max()) if k else 0.0
    arrival_estimate = span * max_rate + 2.0
    depth = int(state.q_len[rows].max(initial=0))
    width = depth + int(min(arrival_estimate, 4096.0)) + 2

    lanes = state.lane_arrays(rows, int(delays.size), width)
    end = now + horizon
    send_time = np.repeat(now + delays, k)
    total = int(send_time.size)
    # A lane runs past the horizon only to observe its own send; with
    # send_packet=False the scalar oracle never advances beyond the end.
    until = np.maximum(end, send_time) if send_packet else np.full(total, end)

    # The reciprocal inter-arrival and the drop threshold are precomputed —
    # both reuse the identical float values the scalar model derives per
    # event.  The gate is frozen during rollouts, so the "next cross arrival"
    # frontier is masked once up front; the hypothetical-send frontier
    # likewise goes to +inf once fired.
    with np.errstate(divide="ignore"):
        cross_interval = 1.0 / lanes["cross_rate_pps"]
    next_cross = np.where(lanes["gate_on"], lanes["next_cross_time"], np.inf)
    next_hyp = send_time.copy() if send_packet else np.full(total, np.inf)

    raw = _run_frontier(
        link_rate=lanes["link_rate"],
        buffer_slack=lanes["buffer_cap"] + 1e-9,
        cross_interval=cross_interval,
        cross_packet_bits=lanes["cross_packet_bits"],
        svc_active=lanes["svc_active"],
        svc_flow=lanes["svc_flow"],
        svc_size=lanes["svc_size"],
        svc_completion=lanes["svc_completion"],
        q_flow=lanes["q_flow"],
        q_size=lanes["q_size"],
        q_len=lanes["q_len"],
        queue_bits=lanes["queue_bits"],
        send_time=send_time,
        until=until,
        next_cross=next_cross,
        next_hyp=next_hyp,
        hyp_left=total if send_packet else 0,
        packet_bits_lane=np.full(total, packet_bits, dtype=float),
        width_is_exact=arrival_estimate <= 4096.0,
        drain=depth >= DRAIN_MIN_QUEUE_DEPTH,
    )
    return BatchedRolloutOutcome(
        decision_time=now,
        horizon=horizon,
        packet_bits=packet_bits,
        action_delays=delays,
        k=k,
        own_survival=lanes["survival"],
        final_queue_bits=raw["queue_bits"]
        + np.where(raw["svc_active"], raw["svc_size"], 0.0),
        final_cross_backlog_bits=_cross_backlog_sequential(raw),
        **_classify_events(raw, now, end),
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
    drain_times = None
    if drains:
        drain_times = []
        time = state.time
        for rate, bits, active, completion in zip(
            rates,
            state.queue_bits[rows].tolist(),
            state.svc_active[rows].tolist(),
            state.svc_completion[rows].tolist(),
        ):
            remaining = bits
            if active:
                remaining += max(0.0, (completion - time) * rate)
            drain_times.append(remaining / rate)
    return weights, rates, drain_times, (state, rows)


def value_rows(
    lanes: tuple[EnsembleState, np.ndarray],
    delays: list[float],
    horizon: float,
    packet_bits: float,
    now: float,
    utility,
    probe: Optional[Callable[[str, object], None]],
) -> list[float]:
    """The array engine's *value*: every lane through one frontier.

    One :func:`batched_rollout_rows` call over the selected rows, then one
    utility per (action × hypothesis) lane, action-major, via the utility's
    ``evaluate_batch`` — or, for a custom utility without one, its scalar
    ``evaluate`` on each rebuilt lane (still no per-lane model rollout).
    Reports the ``lanes`` and ``rollout`` stages to ``probe`` when one is
    set.
    """
    state, rows = lanes
    if probe is not None:
        probe("lanes", state.lane_checkpoint(rows))
    outcome = batched_rollout_rows(state, rows, delays, horizon, packet_bits, now)
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
