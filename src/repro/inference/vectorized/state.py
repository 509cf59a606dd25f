"""Struct-of-arrays storage for a hypothesis ensemble.

:class:`EnsembleState` holds the latent state of every hypothesis in one set
of NumPy buffers, one row per hypothesis:

* static configuration parameters (link rate, buffer capacity, loss rate,
  cross-traffic rate, gate dwell time) plus precomputed log-likelihood
  constants,
* the dynamic link-model state (gate, next cross arrival, the packet in
  service, queued bits, and the queue: ``q_len`` packets in all, of which
  the first ``q_fill`` are fillers of the initial fill and the rest
  arrived after the start),
* the own-packet ledger: one *column* per sequence number still in flight,
  holding the packet's sent time and size (shared by every row) and each
  row's prediction (none / delivered / dropped), prediction time, and the
  scoring bookkeeping bits (resolved, charged-lost).  A send adds a
  column; the belief's update retires the columns no row can read
  differently again (``BeliefState._finished_seqs``), inside the gather of
  its survivors (:meth:`EnsembleState.select` with ``columns``).

The initial fill is a count, not queue slots.  Its fillers (cross packets
numbered ``-2, -3, …`` in cut order; ``-1`` starts in service) are always a
prefix of the FIFO, since every later arrival queues behind them, so a row
holds only how many are left, ``q_fill``: the head filler is number
``filler_tail_seq + q_fill - 1``, counting down to the cut's last,
``filler_tail_seq``.  A departure from the prefix decrements the count and
moves nothing.  The packets that arrived after the start sit in two
left-aligned 2D planes, a flow code and an int32 sequence number (a counter
that would pass int32 is refused by :func:`refuse_wide_seqs`), which shift
one slot per departure of theirs; at the start they are empty, whatever
the fill.

A queued packet's size is not stored: it follows from its flow, its
sequence number and its row (:meth:`EnsembleState.packet_sizes`).  An own
packet has the size it was sent with (the ledger's ``own_sizes``), a cross
packet the row's ``cross_packet_bits``, and a filler the row's
``filler_packet_bits`` — except the filler tail, whose remainder size the
row keeps (``filler_tail_bits``).  :meth:`EnsembleState.queued_packets`
expands a queue into FIFO slots, fillers first.

All hypotheses produced by a :class:`~repro.inference.belief.BeliefState`
evolve in lockstep — every row sees the same sends and the same update
times — so the model clock is a single scalar shared by the whole ensemble,
and the own-packet ledger columns are shared too.

There are two ways in.  :meth:`EnsembleState.from_prior` writes a prior
grid's initial ensemble straight into the buffers — parameters, gate, the
initial buffer fill as a count per row — without building a scalar model, a
hypothesis or a queued-packet object; it is how an array belief starts.
Its start write, :meth:`EnsembleState.restart`, also restarts rows gathered
from such an ensemble with other fills and gates — how the serving layer
turns a decision signature into a belief.
:meth:`EnsembleState.from_hypotheses` packs existing scalar hypotheses —
how the planner hands a scalar or settled belief's top rows to the array
rollout.  Both write the static per-row fields through one helper, so the
two cannot drift, and they agree bit for bit on a prior's initial state
(``tests/test_prior_build.py``).

Rows can be gathered (:meth:`select`, which also lays out a gate fork's
stay and switch branches, a row repeated per branch) and materialized back
into ordinary
:class:`~repro.inference.hypothesis.Hypothesis` objects for the planner.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from repro.errors import InferenceError
from repro.inference.hypothesis import Hypothesis
from repro.inference.linkmodel import LinkModelParams, initial_fill
from repro.inference.parameters import assignment_digest

#: Integer flow codes used inside the array buffers.
FLOW_OWN = 0
FLOW_CROSS = 1

#: Prediction states in the own-packet ledger.
PRED_NONE = 0
PRED_DELIVERED = 1
PRED_DROPPED = 2

_FLOW_NAMES = {FLOW_OWN: "own", FLOW_CROSS: "cross"}
_FLOW_CODES = {"own": FLOW_OWN, "cross": FLOW_CROSS}

#: ``q_seq``'s dtype, and the largest sequence counter it holds.
SEQ_DTYPE = np.int32
SEQ_MAX = int(np.iinfo(SEQ_DTYPE).max)

#: Initial queue-column / ledger-column capacity (both grow by doubling).
_MIN_QUEUE_CAPACITY = 8
_MIN_LEDGER_CAPACITY = 16

#: Per-row 1D buffers that never change once written (``_write_static``).
_STATIC_FIELDS = (
    "link_rate",
    "buffer_cap",
    "loss_rate",
    "cross_rate_pps",
    "cross_packet_bits",
    "filler_packet_bits",
    "mtts",
    "has_cross",
    "survival",
    "log_survival",
    "log_loss",
    "params_dicts",
    "params_digest",
    "params_id",
    "model_params",
)

#: Per-row 1D buffers, gathered wholesale by select.
#: Must stay in sync with ``__slots__`` (there is one list, used by both).
_ROW_FIELDS = _STATIC_FIELDS + (
    "gate_on",
    "next_cross_time",
    "next_cross_seq",
    "svc_active",
    "svc_flow",
    "svc_seq",
    "svc_size",
    "svc_completion",
    "q_len",
    "q_fill",
    "queue_bits",
    "filler_tail_seq",
    "filler_tail_bits",
)

#: Per-row 2D buffers padded to the queue capacity: the packets queued after
#: the start, behind each row's ``q_fill`` fillers.
_QUEUE_FIELDS = ("q_flow", "q_seq")

#: Per-row 1D buffers a rollout reads as they are (``lane_arrays``).
_LANE_FIELDS = (
    "link_rate",
    "buffer_cap",
    "survival",
    "cross_rate_pps",
    "cross_packet_bits",
    "gate_on",
    "next_cross_time",
    "svc_active",
    "svc_flow",
    "svc_size",
    "svc_completion",
    "q_len",
    "queue_bits",
)

#: Per-row 2D buffers padded to the own-packet ledger capacity.
_LEDGER_FIELDS = ("pred_state", "pred_time", "resolved", "lost")


class EnsembleState:
    """Array-backed latent state of ``size`` hypotheses (one row each)."""

    __slots__ = (
        "size",
        "time",
        # static per-row parameters
        "link_rate",
        "buffer_cap",
        "loss_rate",
        "cross_rate_pps",
        "cross_packet_bits",
        "filler_packet_bits",
        "mtts",
        "has_cross",
        "survival",
        "log_survival",
        "log_loss",
        # dynamic link-model state
        "gate_on",
        "next_cross_time",
        "next_cross_seq",
        "svc_active",
        "svc_flow",
        "svc_seq",
        "svc_size",
        "svc_completion",
        "q_flow",
        "q_seq",
        "q_len",
        "q_fill",
        "queue_bits",
        "filler_tail_seq",
        "filler_tail_bits",
        # own-packet ledger (shared columns, per-row contents)
        "own_seqs",
        "own_sent_times",
        "own_sizes",
        "n_own",
        "pred_state",
        "pred_time",
        "resolved",
        "lost",
        # per-row Python metadata (object ndarrays so gathers stay in C)
        "params_dicts",
        "params_digest",
        "params_id",
        "model_params",
    )

    # ------------------------------------------------------------ construction

    @classmethod
    def from_prior(
        cls, assignments: Sequence[Mapping[str, float]], start_time: float = 0.0
    ) -> "EnsembleState":
        """The initial ensemble of a prior grid, written straight into buffers.

        Row ``i`` holds what ``LinkModel(LinkModelParams.from_assignment(
        assignments[i]), start_time)`` starts with, bit for bit, but no
        model, hypothesis or queued-packet object is built: the static
        fields are written as :meth:`from_hypotheses` writes them, then
        :meth:`restart` starts every row with its own assignment's
        ``initial_fill_bits`` and ``cross_initially_on``.
        """
        if not assignments:
            raise InferenceError("cannot build an ensemble from zero hypotheses")
        params = [LinkModelParams.from_assignment(assignment) for assignment in assignments]
        self = cls.__new__(cls)
        self.size = len(params)
        self._write_static(
            assignments, params, [assignment_digest(assignment) for assignment in assignments]
        )
        self.restart(
            start_time,
            [p.initial_fill_bits for p in params],
            [p.cross_initially_on for p in params],
        )
        return self

    def restart(self, time: float, fills: Sequence[float], gates: Sequence[bool]) -> None:
        """Start every row's model afresh at ``time``, keeping its parameters.

        Row ``i`` then holds what a ``LinkModel`` of its parameters, with
        ``initial_fill_bits = fills[i]`` and ``cross_initially_on =
        gates[i]``, starts with at ``time`` — bit for bit, and no model is
        built.  The gate is on where the row has cross traffic and
        ``gates[i]`` is set, as ``LinkModel.__init__`` sets it, with the
        next cross arrival at ``time`` (``inf`` while off).
        :func:`~repro.inference.linkmodel.initial_fill` runs once per
        distinct ``(fill, filler size)``; each row gathers its cut — the
        first packet in service until ``time + size / link_rate``, the rest
        queued as a count, ``q_fill``, and the row's filler tail is the
        cut's last queued packet (none when nothing is queued).  The queue
        planes and the own-packet ledger start empty.
        ``model_params`` keep
        the ``initial_fill_bits`` the rows were built with, which nothing
        reads once a model has started.
        """
        self.time = float(time)
        self.gate_on = self.has_cross & np.asarray(gates, dtype=bool)
        self.next_cross_time = np.where(self.gate_on, self.time, np.inf)
        self.next_cross_seq = np.zeros(self.size, dtype=np.int64)

        shapes: dict[tuple, int] = {}
        shape_of = np.array(
            [
                shapes.setdefault(key, len(shapes))
                for key in zip(fills, [p.filler_packet_bits for p in self.model_params])
            ],
            dtype=np.int64,
        )
        cuts = [initial_fill(*key) for key in shapes]
        count = len(cuts)
        # One template row per distinct shape, gathered into every row of it.
        active = np.zeros(count, dtype=bool)
        svc_size = np.zeros(count, dtype=float)
        queue_bits = np.zeros(count, dtype=float)
        q_len = np.zeros(count, dtype=np.int64)
        tail_seq = np.zeros(count, dtype=SEQ_DTYPE)
        tail_bits = np.zeros(count, dtype=float)
        for shape, (sizes, bits) in enumerate(cuts):
            if sizes:
                active[shape] = True
                svc_size[shape] = sizes[0]
                queue_bits[shape] = bits
                q_len[shape] = len(sizes) - 1
                if len(sizes) > 1:
                    tail_seq[shape] = -len(sizes)
                    tail_bits[shape] = sizes[-1]
        self.svc_active = active[shape_of]
        self.svc_flow = np.where(self.svc_active, np.int8(FLOW_CROSS), np.int8(-1))
        self.svc_seq = np.where(self.svc_active, np.int64(-1), np.int64(0))
        self.svc_size = svc_size[shape_of]
        # LinkModel._start_service's expression, elementwise (IEEE-identical).
        self.svc_completion = np.where(
            self.svc_active, self.time + self.svc_size / self.link_rate, np.inf
        )
        self.queue_bits = queue_bits[shape_of]
        self._allocate_queues(0)
        self.q_len = q_len[shape_of]
        self.q_fill = self.q_len.copy()
        self.filler_tail_seq = tail_seq[shape_of]
        self.filler_tail_bits = tail_bits[shape_of]
        self._allocate_ledger(0)

    def restarted(
        self,
        indices: Sequence[int],
        time: float,
        fills: Sequence[float],
        gates: Sequence[bool],
    ) -> "EnsembleState":
        """A new state of ``indices``' rows (in that order), started afresh.

        What :meth:`select` then :meth:`restart` hold, without gathering the
        buffers the restart writes anew: only the static per-row fields are
        gathered.
        """
        indices = np.asarray(indices, dtype=np.int64)
        out = EnsembleState.__new__(EnsembleState)
        out.size = int(indices.size)
        for name in _STATIC_FIELDS:
            setattr(out, name, getattr(self, name)[indices])
        out.restart(time, fills, gates)
        return out

    @classmethod
    def from_hypotheses(cls, hypotheses: Sequence[Hypothesis]) -> "EnsembleState":
        """Pack scalar hypotheses into struct-of-arrays buffers.

        The planner's way in for a scalar or settled belief, whose top
        hypotheses it packs on every plan.
        """
        if not hypotheses:
            raise InferenceError("cannot build an ensemble from zero hypotheses")
        states = [hypothesis.export_state() for hypothesis in hypotheses]
        time = states[0]["time"]
        for state in states:
            if state["time"] != time:
                raise InferenceError(
                    "the vectorized backend requires every hypothesis to share "
                    "one model clock (lockstep ensembles, as BeliefState maintains)"
                )

        self = cls.__new__(cls)
        size = len(hypotheses)
        self.size = size
        self.time = float(time)
        self._write_static(
            [hypothesis.params for hypothesis in hypotheses],
            [hypothesis.model.params for hypothesis in hypotheses],
            [hypothesis.params_digest for hypothesis in hypotheses],
        )

        self.gate_on = np.array([s["gate_on"] for s in states], dtype=bool)
        self.next_cross_time = np.array([s["next_cross_time"] for s in states], dtype=float)
        self.next_cross_seq = np.array([s["next_cross_seq"] for s in states], dtype=np.int64)

        in_service = [s["in_service"] for s in states]
        self.svc_active = np.array([entry is not None for entry in in_service], dtype=bool)
        self.svc_flow = np.array(
            [_FLOW_CODES[entry[0]] if entry is not None else -1 for entry in in_service],
            dtype=np.int8,
        )
        self.svc_seq = np.array(
            [entry[1] if entry is not None else 0 for entry in in_service], dtype=np.int64
        )
        self.svc_size = np.array(
            [entry[2] if entry is not None else 0.0 for entry in in_service], dtype=float
        )
        self.svc_completion = np.array([s["service_completion"] for s in states], dtype=float)

        queues = [s["queue"] for s in states]
        fills = [_filler_prefix(row, queue) for row, queue in enumerate(queues)]
        self._allocate_queues(max(len(queue) - fill for queue, fill in zip(queues, fills)))
        self.filler_tail_seq = np.zeros(size, dtype=SEQ_DTYPE)
        self.filler_tail_bits = np.zeros(size, dtype=float)
        own_bits: dict[int, float] = {}
        for row, (queue, fill) in enumerate(zip(queues, fills)):
            self.q_len[row] = len(queue)
            self.q_fill[row] = fill
            if fill:
                # Fillers queue in cut order, so the prefix's last is the tail.
                _, self.filler_tail_seq[row], self.filler_tail_bits[row] = queue[fill - 1]
            for slot, (flow, seq, bits) in enumerate(queue[fill:]):
                code = _FLOW_CODES[flow]
                if code == FLOW_CROSS and seq < 0:
                    raise InferenceError(
                        f"row {row}, slot {fill + slot}: filler {seq} is queued behind a "
                        f"packet that arrived after the start"
                    )
                self.q_flow[row, slot] = code
                self.q_seq[row, slot] = seq
                if code == FLOW_OWN:
                    own_bits.setdefault(seq, bits)
        self.queue_bits = np.array([s["queue_bits"] for s in states], dtype=float)

        # Own-packet ledger: the union of every row's sequence numbers.  For
        # lockstep ensembles the rows agree; the union keeps hand-built
        # mixtures working too.  A size no queue names is unknown (NaN).
        seq_to_time: dict[int, float] = {}
        for state in states:
            for seq, sent_at in state["own_sent"].items():
                seq_to_time.setdefault(seq, sent_at)
        ordered = sorted(seq_to_time)
        self._allocate_ledger(len(ordered))
        self.own_seqs[: self.n_own] = ordered
        self.own_sent_times[: self.n_own] = [seq_to_time[seq] for seq in ordered]
        self.own_sizes[: self.n_own] = [own_bits.get(seq, math.nan) for seq in ordered]
        self._refuse_underived_sizes(queues)
        col_of = {seq: col for col, seq in enumerate(ordered)}
        for row, state in enumerate(states):
            for seq, kind, pred_time, _survival in state["predictions"]:
                col = col_of[seq]
                self.pred_state[row, col] = (
                    PRED_DELIVERED if kind == "delivered" else PRED_DROPPED
                )
                self.pred_time[row, col] = pred_time
            for seq in state["resolved"]:
                if seq in col_of:
                    self.resolved[row, col_of[seq]] = True
            for seq in state["lost"]:
                if seq in col_of:
                    self.lost[row, col_of[seq]] = True
        return self

    def _refuse_underived_sizes(self, queues: Sequence[Sequence[tuple]]) -> None:
        """Raise for a packed queued packet whose size :meth:`queued_sizes`
        does not give: the array form keeps no size of its own."""
        longest = max(len(queue) for queue in queues)
        derived = self.queued_sizes(np.arange(self.size), longest).tolist()
        for row, queue in enumerate(queues):
            for slot, (flow, seq, bits) in enumerate(queue):
                if derived[row][slot] != bits:
                    raise InferenceError(
                        f"row {row}, slot {slot}: a queued {flow} packet {seq} of {bits!r} "
                        f"bits, where its flow, sequence number and row give "
                        f"{derived[row][slot]!r}"
                    )

    def _write_static(
        self,
        params_dicts: Sequence[Mapping[str, float]],
        params: Sequence[LinkModelParams],
        digests: Sequence[str],
    ) -> None:
        """Every per-row field that never changes, from both ways in."""
        self.model_params = _object_array(params)
        self.params_dicts = _object_array(params_dicts)
        self.params_digest = _object_array(digests)
        # Distinct parameter assignments interned as small integers, so the
        # compaction digest can treat "same configuration" as an int compare.
        interned: dict[str, int] = {}
        self.params_id = np.array(
            [interned.setdefault(digest, len(interned)) for digest in digests], dtype=np.int64
        )
        self.link_rate = np.array([p.link_rate_bps for p in params], dtype=float)
        self.buffer_cap = np.array([p.buffer_capacity_bits for p in params], dtype=float)
        self.loss_rate = np.array([p.loss_rate for p in params], dtype=float)
        self.cross_rate_pps = np.array([p.cross_rate_pps for p in params], dtype=float)
        self.cross_packet_bits = np.array([p.cross_packet_bits for p in params], dtype=float)
        self.filler_packet_bits = np.array([p.filler_packet_bits for p in params], dtype=float)
        self.mtts = np.array(
            [np.nan if p.mean_time_to_switch is None else p.mean_time_to_switch for p in params],
            dtype=float,
        )
        self.has_cross = np.array([p.has_cross_traffic for p in params], dtype=bool)
        # Constants reused by the batched likelihood: computed with the same
        # scalar arithmetic Hypothesis.score uses, so contributions match
        # bit for bit.
        survival = [1.0 - p.loss_rate for p in params]
        self.survival = np.array(survival, dtype=float)
        self.log_survival = np.array(
            [math.log(s) if s > 0.0 else -math.inf for s in survival], dtype=float
        )
        self.log_loss = np.array(
            [math.log(p.loss_rate) if p.loss_rate > 0.0 else -math.inf for p in params],
            dtype=float,
        )

    def _allocate_queues(self, longest: int) -> None:
        """Zeroed queue buffers with room for ``longest`` packets queued
        after the start, and slack; no filler is queued."""
        capacity = _queue_width(longest)
        self.q_flow = np.zeros((self.size, capacity), dtype=np.int8)
        self.q_seq = np.zeros((self.size, capacity), dtype=SEQ_DTYPE)
        self.q_len = np.zeros(self.size, dtype=np.int64)
        self.q_fill = np.zeros(self.size, dtype=np.int64)

    def _allocate_ledger(self, count: int) -> None:
        """A zeroed own-packet ledger with ``count`` columns in use."""
        capacity = max(_MIN_LEDGER_CAPACITY, count)
        self.own_seqs = np.zeros(capacity, dtype=np.int64)
        self.own_sent_times = np.zeros(capacity, dtype=float)
        self.own_sizes = np.zeros(capacity, dtype=float)
        self.n_own = count
        self.pred_state = np.zeros((self.size, capacity), dtype=np.int8)
        self.pred_time = np.zeros((self.size, capacity), dtype=float)
        self.resolved = np.zeros((self.size, capacity), dtype=bool)
        self.lost = np.zeros((self.size, capacity), dtype=bool)

    # --------------------------------------------------------------- gathering

    def select(
        self, indices: np.ndarray, columns: np.ndarray | None = None, ledger: bool = True
    ) -> "EnsembleState":
        """A new state holding ``indices``' rows (in that order).

        ``columns``, when given, names the own-packet ledger columns the new
        state keeps (ascending): rows × those columns are gathered in one
        pass, and every other column is retired.  The ledger keeps its
        capacity; the columns past the kept ones hold retired contents,
        which nothing reads (a send resets the column it claims).
        ``ledger=False`` starts the rows' ledger contents empty instead (a
        rollout reads none) but keeps the shared columns, whose sizes the
        rows' queued own packets still read.  The queue planes are halved while
        the kept rows' most packets queued after the start fit in a quarter
        of them (columns past every row's ``q_len - q_fill``, canonical
        zeros; a queue that fluctuates does not regrow on every update).
        """
        indices = np.asarray(indices, dtype=np.int64)
        out = EnsembleState.__new__(EnsembleState)
        out.size = int(indices.size)
        out.time = self.time
        for name in _ROW_FIELDS:
            setattr(out, name, getattr(self, name)[indices])
        width = self.q_flow.shape[1]
        deepest = int((out.q_len - out.q_fill).max(initial=0))
        while width > _MIN_QUEUE_CAPACITY and 4 * deepest <= width:
            width = max(_MIN_QUEUE_CAPACITY, width // 2)
        for name in _QUEUE_FIELDS:
            setattr(out, name, getattr(self, name)[indices, :width])
        if columns is None or not ledger:
            if ledger:
                for name in _LEDGER_FIELDS:
                    setattr(out, name, getattr(self, name)[indices])
            else:
                out._allocate_ledger(self.n_own)
            out.own_seqs = self.own_seqs.copy()
            out.own_sent_times = self.own_sent_times.copy()
            out.own_sizes = self.own_sizes.copy()
            out.n_own = self.n_own
            return out
        # The kept columns first, then the rest, so the capacity stays; one
        # gather per buffer, through flat offsets into its row-major data.
        capacity = self.pred_state.shape[1]
        spare = np.ones(capacity, dtype=bool)
        spare[columns] = False
        order = np.concatenate([columns, np.flatnonzero(spare)])
        offsets = indices[:, None] * capacity + order
        for name in _LEDGER_FIELDS:
            setattr(out, name, getattr(self, name).ravel().take(offsets))
        out.own_seqs = self.own_seqs[order]
        out.own_sent_times = self.own_sent_times[order]
        out.own_sizes = self.own_sizes[order]
        out.n_own = int(columns.size)
        return out

    # ---------------------------------------------------------------- capacity

    def ensure_queue_capacity(self, needed: int) -> None:
        """Grow the queue planes so every row can hold ``needed`` packets
        behind its fillers."""
        capacity = self.q_flow.shape[1]
        if needed <= capacity:
            return
        new_capacity = max(needed, capacity * 2)
        self.q_flow = _pad_columns(self.q_flow, new_capacity)
        self.q_seq = _pad_columns(self.q_seq, new_capacity)

    def register_own_seq(self, seq: int, sent_at: float, size_bits: float) -> int:
        """Add (or refresh) a ledger column for ``seq``; returns its index.

        Every queued copy of ``seq`` reads the column's size, so a refresh
        with another size than the one recorded is refused.
        """
        pos = int(np.searchsorted(self.own_seqs[: self.n_own], seq))
        if pos < self.n_own and self.own_seqs[pos] == seq:
            recorded = float(self.own_sizes[pos])
            if recorded != size_bits and not math.isnan(recorded):
                raise InferenceError(
                    f"packet {seq} was sent with {recorded!r} bits; a queued packet's "
                    f"size follows from its sequence number, so it cannot be "
                    f"resent with {size_bits!r}"
                )
            self.own_sent_times[pos] = sent_at
            self.own_sizes[pos] = size_bits
            return pos
        capacity = self.pred_state.shape[1]
        if self.n_own + 1 > capacity:
            new_capacity = max(self.n_own + 1, capacity * 2)
            self.own_seqs = _pad_columns(self.own_seqs[None, :], new_capacity)[0]
            self.own_sent_times = _pad_columns(self.own_sent_times[None, :], new_capacity)[0]
            self.own_sizes = _pad_columns(self.own_sizes[None, :], new_capacity)[0]
            self.pred_state = _pad_columns(self.pred_state, new_capacity)
            self.pred_time = _pad_columns(self.pred_time, new_capacity)
            self.resolved = _pad_columns(self.resolved, new_capacity)
            self.lost = _pad_columns(self.lost, new_capacity)
        if pos < self.n_own:
            # Out-of-order sequence number: shift the tail columns right.
            stop = self.n_own
            self.own_seqs[pos + 1 : stop + 1] = self.own_seqs[pos:stop].copy()
            self.own_sent_times[pos + 1 : stop + 1] = self.own_sent_times[pos:stop].copy()
            self.own_sizes[pos + 1 : stop + 1] = self.own_sizes[pos:stop].copy()
            for name in ("pred_state", "pred_time", "resolved", "lost"):
                array = getattr(self, name)
                array[:, pos + 1 : stop + 1] = array[:, pos:stop].copy()
        self.own_seqs[pos] = seq
        self.own_sent_times[pos] = sent_at
        self.own_sizes[pos] = size_bits
        self.pred_state[:, pos] = PRED_NONE
        self.pred_time[:, pos] = 0.0
        self.resolved[:, pos] = False
        self.lost[:, pos] = False
        self.n_own += 1
        return pos

    def column_of(self, seq: int) -> int | None:
        """The ledger column of ``seq``, or ``None`` if never transmitted."""
        pos = int(np.searchsorted(self.own_seqs[: self.n_own], seq))
        if pos < self.n_own and self.own_seqs[pos] == seq:
            return pos
        return None

    def lookup_columns(self, seqs: np.ndarray) -> np.ndarray:
        """Ledger columns of registered sequence numbers (must all exist)."""
        return np.searchsorted(self.own_seqs[: self.n_own], seqs)

    def queued_packets(
        self, rows: np.ndarray, width: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``rows``' first ``width`` queue slots in FIFO order, as ``(flows,
        seqs, sizes)``, each ``(len(rows), width)``.

        A row's ``q_fill`` fillers first (cross, numbered down from the head
        filler), then its planes; :meth:`packet_sizes` of every occupied
        slot.  Slots past a row's ``q_len`` are zeros.
        """
        owners = rows[:, None]
        slot = np.arange(width)
        occupied = slot < self.q_len[owners]
        fill = self.q_fill[owners]
        if fill.any():
            # A slot's index into the planes; a filler's is negative.
            behind = slot - fill
            index = np.clip(behind, 0, self.q_flow.shape[1] - 1)
            filler = behind < 0
            head = self.filler_tail_seq[owners] + fill - 1
            flows = np.where(filler, FLOW_CROSS, self.q_flow[owners, index])
            seqs = np.where(filler, head - slot, self.q_seq[owners, index])
            flows *= occupied
            seqs *= occupied
        else:
            flows = _pad_columns(self.q_flow[rows, :width], width)
            seqs = _pad_columns(self.q_seq[rows, :width], width)
        own = flows == FLOW_OWN
        own &= occupied
        sizes = self.packet_sizes(owners, seqs, own)
        sizes *= occupied
        return flows, seqs, sizes

    def queued_sizes(self, rows: np.ndarray, width: int) -> np.ndarray:
        """The sizes of :meth:`queued_packets`."""
        return self.queued_packets(rows, width)[2]

    def packet_sizes(self, rows: np.ndarray, seqs: np.ndarray, own: np.ndarray) -> np.ndarray:
        """The one size rule, for packets ``seqs`` queued in ``rows``.

        An own packet (``own``) has the size it was sent with (the ledger's
        ``own_sizes``), a cross packet its row's ``cross_packet_bits``, and a
        filler (a negative sequence number) its row's ``filler_packet_bits``,
        or ``filler_tail_bits`` for the row's filler tail (a filler reaches
        this rule only through :meth:`queued_packets`: the planes hold
        none).  ``rows`` broadcasts against ``seqs``; the result is a new
        array.
        """
        filler = seqs < 0
        if filler.any():
            sizes = np.where(
                filler,
                np.where(
                    seqs == self.filler_tail_seq[rows],
                    self.filler_tail_bits[rows],
                    self.filler_packet_bits[rows],
                ),
                self.cross_packet_bits[rows],
            )
        else:
            sizes = np.empty(seqs.shape)
            sizes[...] = self.cross_packet_bits[rows]
        if own.any():
            sizes[own] = self.own_sizes[self.lookup_columns(seqs[own])]
        return sizes

    # ----------------------------------------------------------------- digests

    def signature_matrix(self, rows: np.ndarray) -> np.ndarray:
        """A ``(len(rows), width)`` uint8 matrix of per-row signatures.

        Two rows receive equal byte rows exactly when the scalar
        ``Hypothesis.signature`` tuples would compare equal: same parameter
        assignment (interned id), gate state, rounded queued bits, queue
        contents ``(flow, seq)`` in order, in-service packet with rounded
        completion, rounded next cross arrival, and charged-lost set.  The
        queue is hashed compact: ``q_fill`` and the head filler's number
        (canonical 0 with none queued) give the filler prefix, and the
        planes the rest.  The planes are kept canonically zero-padded past
        ``q_len - q_fill`` (the engine clears vacated slots), so the padded
        columns can be hashed wholesale; ``q_len`` itself is part of the
        digest, which keeps a zero-valued real cell distinct from padding.

        :meth:`signature_digest` freezes each row into the ``bytes`` key the
        belief's compaction groups on.
        """
        fill = self.q_fill[rows]
        length = int((self.q_len[rows] - fill).max(initial=0))
        parts = [
            self.params_id[rows],
            self.gate_on[rows],
            _python_round(self.queue_bits[rows], 3),
            self.q_len[rows],
            fill,
            np.where(fill > 0, self.filler_tail_seq[rows] + fill - 1, 0),
            self.q_flow[rows, :length],
            self.q_seq[rows, :length],
            self.svc_active[rows],
            self.svc_flow[rows],
            self.svc_seq[rows],
            _python_round(self.svc_completion[rows], 6),
            _python_round(self.next_cross_time[rows], 6),
            self.lost[rows, : self.n_own],
        ]
        flat = [
            np.ascontiguousarray(part).view(np.uint8).reshape(rows.size, -1)
            for part in (p[:, None] if p.ndim == 1 else p for p in parts)
            if part.size
        ]
        return np.concatenate(flat, axis=1)

    def signature_digest(self, rows: np.ndarray) -> list[bytes]:
        """One opaque ``bytes`` digest per row, for belief compaction.

        See :meth:`signature_matrix` for the grouping contract; this wrapper
        just freezes each matrix row into hashable ``bytes``, all rows in one
        call through a one-field void view.
        """
        if not rows.size:
            return []
        packed = self.signature_matrix(rows)
        return packed.view(np.dtype((np.void, packed.shape[1]))).ravel().tolist()

    def lane_arrays(self, rows: np.ndarray, queue_width: int) -> dict:
        """The buffers a rollout reads, gathered for ``rows`` (in that order).

        :func:`repro.inference.vectorized.rollout.batched_rollout_rows`
        builds its lanes from them: lane ``a * len(rows) + j`` is action
        ``a`` on ``rows[j]``.  ``queue_width`` sizes the two queue blocks,
        ``"q_flow"`` and ``"q_size"``: :meth:`queued_packets`, fillers
        expanded (zero-padded past each row's ``q_len``).
        """
        idx = np.asarray(rows, dtype=np.int64)
        lanes = {name: getattr(self, name)[idx] for name in _LANE_FIELDS}
        lanes["q_flow"], _, lanes["q_size"] = self.queued_packets(idx, queue_width)
        return lanes

    def lane_key(self, rows: np.ndarray) -> tuple[bytes, ...]:
        """Bytes from which :meth:`lane_arrays` of ``rows`` follows, at any
        width: equal keys give byte-equal blocks.

        The row fields as they are, and the queue compact — ``q_fill``, the
        filler size, the filler tail's number and bits while it is queued
        (canonical 0 once it is not), and the planes with their derived
        sizes, cut at the rows' most packets queued after the start — so no
        filler slot is expanded.
        """
        fill = self.q_fill[rows]
        queued = fill > 0
        behind = self.q_len[rows] - fill
        width = int(behind.max(initial=0))
        flows = self.q_flow[rows, :width]
        occupied = np.arange(width) < behind[:, None]
        own = flows == FLOW_OWN
        own &= occupied
        sizes = self.packet_sizes(rows[:, None], self.q_seq[rows, :width], own)
        sizes *= occupied
        parts = [getattr(self, name)[rows] for name in _LANE_FIELDS] + [
            fill,
            self.filler_packet_bits[rows],
            np.where(queued, self.filler_tail_seq[rows], 0),
            np.where(queued, self.filler_tail_bits[rows], 0.0),
            flows,
            sizes,
        ]
        return tuple(part.tobytes() for part in parts)

    def lane_checkpoint(self, rows: np.ndarray) -> dict:
        """A canonical, comparable snapshot of the latent state rollouts read.

        One entry per row, in ``rows`` order — what the planner's ``lanes``
        probe reports, so :mod:`repro.diagnostics` can tell drift in the
        state handed to the rollout from drift inside the kernel.  The
        scalar oracle reports the same snapshot by packing its top
        hypotheses through :meth:`from_hypotheses`.
        """
        rows = np.asarray(rows, dtype=np.int64)
        flows, _, sizes = self.queued_packets(rows, int(self.q_len[rows].max(initial=0)))
        flows, sizes = flows.tolist(), sizes.tolist()
        lanes = []
        for index, row in enumerate(rows.tolist()):
            lanes.append(
                {
                    "gate_on": bool(self.gate_on[row]),
                    "next_cross_time": float(self.next_cross_time[row]),
                    "in_service": (
                        (
                            int(self.svc_flow[row]),
                            float(self.svc_size[row]),
                            float(self.svc_completion[row]),
                        )
                        if bool(self.svc_active[row])
                        else None
                    ),
                    "queue": [
                        (flows[index][slot], sizes[index][slot])
                        for slot in range(int(self.q_len[row]))
                    ],
                    "queue_bits": float(self.queue_bits[row]),
                }
            )
        return {"time": float(self.time), "lanes": lanes}

    def checkpoint(self) -> dict:
        """A canonical, comparable snapshot of the whole ensemble.

        Used by :mod:`repro.diagnostics` to fingerprint where two backend
        replays diverge; the signatures reuse the scalar
        ``Hypothesis.signature`` grouping, so snapshots are directly
        comparable with the scalar backend's hypotheses.
        """
        return {
            "time": float(self.time),
            "size": int(self.size),
            "signatures": [self.materialize(row).signature() for row in range(self.size)],
        }

    # ----------------------------------------------------------- materialization

    def materialize(self, row: int) -> Hypothesis:
        """Rebuild one row as an ordinary scalar :class:`Hypothesis`.

        Predictions are emitted in chronological order; the scalar path
        builds them in event order, which is the same thing (dict equality is
        order-insensitive either way).
        """
        n = self.n_own
        seqs = self.own_seqs[:n].tolist()
        states = self.pred_state[row, :n].tolist()
        times = self.pred_time[row, :n].tolist()
        survival = float(self.survival[row])
        predictions = []
        for col, state in enumerate(states):
            if state == PRED_NONE:
                continue
            if state == PRED_DELIVERED:
                predictions.append((seqs[col], "delivered", times[col], survival))
            else:
                predictions.append((seqs[col], "dropped", times[col], 0.0))
        predictions.sort(key=lambda entry: (entry[2], entry[0]))

        flows, queued, sizes = self.queued_packets(np.array([row]), int(self.q_len[row]))
        queue = list(
            zip(
                map(_FLOW_NAMES.__getitem__, flows[0].tolist()),
                queued[0].tolist(),
                sizes[0].tolist(),
            )
        )
        in_service = None
        if self.svc_active[row]:
            in_service = (
                _FLOW_NAMES[int(self.svc_flow[row])],
                int(self.svc_seq[row]),
                float(self.svc_size[row]),
            )
        resolved_row = self.resolved[row, :n]
        lost_row = self.lost[row, :n]
        state = {
            "time": self.time,
            "gate_on": bool(self.gate_on[row]),
            "next_cross_time": float(self.next_cross_time[row]),
            "next_cross_seq": int(self.next_cross_seq[row]),
            "queue": queue,
            "queue_bits": float(self.queue_bits[row]),
            "in_service": in_service,
            "service_completion": float(self.svc_completion[row]),
            "predictions": predictions,
            "own_sent": {
                seqs[col]: float(self.own_sent_times[col]) for col in range(n)
            },
            "resolved": [seqs[col] for col in np.nonzero(resolved_row)[0].tolist()],
            "lost": [seqs[col] for col in np.nonzero(lost_row)[0].tolist()],
        }
        return Hypothesis.from_state(
            self.params_dicts[row], self.model_params[row], state, self.params_digest[row]
        )

    # ----------------------------------------------------------------- helpers

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EnsembleState(size={self.size}, t={self.time:.3f}, own={self.n_own})"


def refuse_wide_seqs(next_seq: int) -> None:
    """Refuse a sequence counter past :data:`SEQ_MAX`, which a fancy-index
    store into ``q_seq`` would wrap silently (fillers count down from -2)."""
    if next_seq > SEQ_MAX:
        raise InferenceError(f"a sequence number past {SEQ_MAX} does not fit a queued packet")


def _python_round(values: np.ndarray, digits: int) -> np.ndarray:
    """Element-wise built-in ``round`` (correct decimal rounding), fast.

    ``np.round`` scales by ``10**digits``, rints, and divides back, which
    disagrees with Python's correctly-rounded ``round`` when the scaled
    value lands within the scaling's floating-point error of a halfway
    point.  The compaction digest must group rows exactly as the scalar
    ``Hypothesis.signature`` — which uses ``round`` — does, so elements
    inside a conservatively wide band around the halfway points are
    re-rounded with the built-in; everything else keeps the (identical)
    ``np.round`` result.  Outside the band both computations reduce to
    "nearest integer ``n``, then the correctly-rounded ``n / 10**digits``",
    which is bit-identical.  ``inf`` passes through unchanged (its band
    test is NaN, i.e. not risky), as with ``round``.
    """
    out = np.round(values, digits)
    scaled = values * (10.0**digits)
    with np.errstate(invalid="ignore"):
        near_half = np.abs(scaled - np.floor(scaled) - 0.5) < 1e-6
    if near_half.any():
        risky = np.nonzero(near_half)[0]
        out[risky] = [round(value, digits) for value in values[risky].tolist()]
    return out


def _filler_prefix(row: int, queue: Sequence[tuple]) -> int:
    """How many fillers lead a scalar ``queue`` (row ``row``), refusing a
    prefix out of the cut's order: each filler numbered one below the one
    ahead of it."""
    fill = 0
    for flow, seq, _ in queue:
        if flow != "cross" or seq >= 0:
            break
        if fill and seq != queue[fill - 1][1] - 1:
            raise InferenceError(
                f"row {row}, slot {fill}: filler {seq} is out of sequence behind "
                f"filler {queue[fill - 1][1]}"
            )
        fill += 1
    return fill


def _queue_width(longest: int) -> int:
    """Queue-buffer columns for ``longest`` queued packets, with slack."""
    return max(_MIN_QUEUE_CAPACITY, longest + 2)


def _object_array(items: Sequence) -> np.ndarray:
    """A 1D object ndarray over ``items`` (kept 1D even for tuple elements)."""
    array = np.empty(len(items), dtype=object)
    for index, item in enumerate(items):
        array[index] = item
    return array


def _pad_columns(array: np.ndarray, width: int) -> np.ndarray:
    """Zero-pad a 1D/2D array's last axis out to ``width`` columns."""
    current = array.shape[-1]
    if current >= width:
        return array
    pad = [(0, 0)] * (array.ndim - 1) + [(0, width - current)]
    return np.pad(array, pad)
