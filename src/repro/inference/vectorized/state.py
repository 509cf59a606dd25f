"""Struct-of-arrays storage for a hypothesis ensemble.

:class:`EnsembleState` holds the latent state of every hypothesis in one set
of NumPy buffers, one row per hypothesis:

* static configuration parameters (link rate, buffer capacity, loss rate,
  cross-traffic rate, gate dwell time) plus precomputed log-likelihood
  constants,
* the dynamic link-model state (gate, next cross arrival, the packet in
  service, the queue as fixed-width 2D ring buffers, queued bits),
* the own-packet ledger: one *column* per sequence number the sender has
  transmitted, holding each row's prediction (none / delivered / dropped),
  prediction time, and the scoring bookkeeping bits (resolved, charged-lost).

All hypotheses produced by a :class:`~repro.inference.belief.BeliefState`
evolve in lockstep — every row sees the same sends and the same update
times — so the model clock is a single scalar shared by the whole ensemble,
and the own-packet ledger columns are shared too.

There are two ways in.  :meth:`EnsembleState.from_prior` writes a prior
grid's initial ensemble straight into the buffers — parameters, gate, the
initial buffer fill as row slices — without building a scalar model, a
hypothesis or a queued-packet object; it is how an array belief starts.
:meth:`EnsembleState.from_hypotheses` packs existing scalar hypotheses —
how the planner hands a scalar or settled belief's top rows to the array
rollout.  Both write the static per-row fields through one helper, so the
two cannot drift, and they agree bit for bit on a prior's initial state
(``tests/test_prior_build.py``).

Rows can be gathered (:meth:`select`, which also lays out a gate fork's
stay and switch branches, a row repeated per branch) and materialized back
into ordinary
:class:`~repro.inference.hypothesis.Hypothesis` objects for the planner.

The one piece of scalar-model state deliberately *not* carried here is the
cross-traffic delivery/drop tally: it is history rather than latent state,
nothing in scoring, compaction, or planner rollouts reads the historical
tally, and dropping it keeps the hot loop free of per-row Python lists.
Materialized hypotheses therefore start with an empty
:class:`~repro.inference.linkmodel.CrossTally`.
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

#: Initial queue-column / ledger-column capacity (both grow by doubling).
_MIN_QUEUE_CAPACITY = 8
_MIN_LEDGER_CAPACITY = 16

#: Per-row 1D buffers, gathered wholesale by select.
#: Must stay in sync with ``__slots__`` (there is one list, used by both).
_ROW_FIELDS = (
    "link_rate",
    "buffer_cap",
    "loss_rate",
    "cross_rate_pps",
    "cross_packet_bits",
    "mtts",
    "has_cross",
    "survival",
    "log_survival",
    "log_loss",
    "gate_on",
    "next_cross_time",
    "next_cross_seq",
    "svc_active",
    "svc_flow",
    "svc_seq",
    "svc_size",
    "svc_completion",
    "q_len",
    "queue_bits",
    "params_dicts",
    "params_digest",
    "params_id",
    "model_params",
)

#: Per-row 2D buffers padded to the queue capacity.
_QUEUE_FIELDS = ("q_flow", "q_seq", "q_size")

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
        "q_size",
        "q_len",
        "queue_bits",
        # own-packet ledger (shared columns, per-row contents)
        "own_seqs",
        "own_sent_times",
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
        model, hypothesis or queued-packet object is built: the gate and
        next cross arrival are set as ``LinkModel.__init__`` sets them, and
        :func:`~repro.inference.linkmodel.initial_fill` runs once per
        distinct ``(initial fill, filler size)`` and is copied into its rows
        as slices — the first packet in service until
        ``start_time + size / link_rate``, the rest queued.  The own-packet
        ledger starts empty.
        """
        if not assignments:
            raise InferenceError("cannot build an ensemble from zero hypotheses")
        params = [LinkModelParams.from_assignment(assignment) for assignment in assignments]
        self = cls.__new__(cls)
        size = len(params)
        self.size = size
        self.time = float(start_time)
        self._write_static(
            assignments, params, [assignment_digest(assignment) for assignment in assignments]
        )

        self.gate_on = self.has_cross & np.array(
            [p.cross_initially_on for p in params], dtype=bool
        )
        self.next_cross_time = np.where(self.gate_on, self.time, np.inf)
        self.next_cross_seq = np.zeros(size, dtype=np.int64)

        rows_by_fill: dict[tuple, list[int]] = {}
        for row, p in enumerate(params):
            key = (p.initial_fill_bits, p.filler_packet_bits)
            rows_by_fill.setdefault(key, []).append(row)
        fills = [(initial_fill(*key), rows) for key, rows in rows_by_fill.items()]
        self._allocate_queues(max(len(sizes[1:]) for (sizes, _), _ in fills))
        self.svc_active = np.zeros(size, dtype=bool)
        self.svc_flow = np.full(size, -1, dtype=np.int8)
        self.svc_seq = np.zeros(size, dtype=np.int64)
        self.svc_size = np.zeros(size, dtype=float)
        self.queue_bits = np.zeros(size, dtype=float)
        for (sizes, queue_bits), rows in fills:
            if not sizes:
                continue
            self.svc_active[rows] = True
            self.svc_flow[rows] = FLOW_CROSS
            self.svc_seq[rows] = -1
            self.svc_size[rows] = sizes[0]
            length = len(sizes) - 1
            self.q_len[rows] = length
            self.q_flow[rows, :length] = FLOW_CROSS
            self.q_seq[rows, :length] = np.arange(-2, -2 - length, -1)
            self.q_size[rows, :length] = sizes[1:]
            self.queue_bits[rows] = queue_bits
        # LinkModel._start_service's expression, elementwise (IEEE-identical).
        self.svc_completion = np.where(
            self.svc_active, self.time + self.svc_size / self.link_rate, np.inf
        )
        self._allocate_ledger(0)
        return self

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
        self._allocate_queues(max(len(queue) for queue in queues))
        for row, queue in enumerate(queues):
            self.q_len[row] = len(queue)
            for slot, (flow, seq, bits) in enumerate(queue):
                self.q_flow[row, slot] = _FLOW_CODES[flow]
                self.q_seq[row, slot] = seq
                self.q_size[row, slot] = bits
        self.queue_bits = np.array([s["queue_bits"] for s in states], dtype=float)

        # Own-packet ledger: the union of every row's sequence numbers.  For
        # lockstep ensembles the rows agree; the union keeps hand-built
        # mixtures working too.
        seq_to_time: dict[int, float] = {}
        for state in states:
            for seq, sent_at in state["own_sent"].items():
                seq_to_time.setdefault(seq, sent_at)
        ordered = sorted(seq_to_time)
        self._allocate_ledger(len(ordered))
        self.own_seqs[: self.n_own] = ordered
        self.own_sent_times[: self.n_own] = [seq_to_time[seq] for seq in ordered]
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
        """Zeroed queue buffers with room for ``longest`` packets and slack."""
        capacity = max(_MIN_QUEUE_CAPACITY, longest + 2)
        self.q_flow = np.zeros((self.size, capacity), dtype=np.int8)
        self.q_seq = np.zeros((self.size, capacity), dtype=np.int64)
        self.q_size = np.zeros((self.size, capacity), dtype=float)
        self.q_len = np.zeros(self.size, dtype=np.int64)

    def _allocate_ledger(self, count: int) -> None:
        """A zeroed own-packet ledger with ``count`` columns in use."""
        capacity = max(_MIN_LEDGER_CAPACITY, count)
        self.own_seqs = np.zeros(capacity, dtype=np.int64)
        self.own_sent_times = np.zeros(capacity, dtype=float)
        self.n_own = count
        self.pred_state = np.zeros((self.size, capacity), dtype=np.int8)
        self.pred_time = np.zeros((self.size, capacity), dtype=float)
        self.resolved = np.zeros((self.size, capacity), dtype=bool)
        self.lost = np.zeros((self.size, capacity), dtype=bool)

    # --------------------------------------------------------------- gathering

    def select(self, indices: np.ndarray) -> "EnsembleState":
        """A new state holding ``indices``' rows (in that order)."""
        indices = np.asarray(indices, dtype=np.int64)
        out = EnsembleState.__new__(EnsembleState)
        out.size = int(indices.size)
        out.time = self.time
        for name in _ROW_FIELDS + _QUEUE_FIELDS + _LEDGER_FIELDS:
            setattr(out, name, getattr(self, name)[indices])
        out.own_seqs = self.own_seqs.copy()
        out.own_sent_times = self.own_sent_times.copy()
        out.n_own = self.n_own
        return out

    # ---------------------------------------------------------------- capacity

    def ensure_queue_capacity(self, needed: int) -> None:
        """Grow the queue buffers so every row can hold ``needed`` packets."""
        capacity = self.q_flow.shape[1]
        if needed <= capacity:
            return
        new_capacity = max(needed, capacity * 2)
        self.q_flow = _pad_columns(self.q_flow, new_capacity)
        self.q_seq = _pad_columns(self.q_seq, new_capacity)
        self.q_size = _pad_columns(self.q_size, new_capacity)

    def register_own_seq(self, seq: int, sent_at: float) -> int:
        """Add (or refresh) a ledger column for ``seq``; returns its index."""
        pos = int(np.searchsorted(self.own_seqs[: self.n_own], seq))
        if pos < self.n_own and self.own_seqs[pos] == seq:
            self.own_sent_times[pos] = sent_at
            return pos
        capacity = self.pred_state.shape[1]
        if self.n_own + 1 > capacity:
            new_capacity = max(self.n_own + 1, capacity * 2)
            self.own_seqs = _pad_columns(self.own_seqs[None, :], new_capacity)[0]
            self.own_sent_times = _pad_columns(self.own_sent_times[None, :], new_capacity)[0]
            self.pred_state = _pad_columns(self.pred_state, new_capacity)
            self.pred_time = _pad_columns(self.pred_time, new_capacity)
            self.resolved = _pad_columns(self.resolved, new_capacity)
            self.lost = _pad_columns(self.lost, new_capacity)
        if pos < self.n_own:
            # Out-of-order sequence number: shift the tail columns right.
            stop = self.n_own
            self.own_seqs[pos + 1 : stop + 1] = self.own_seqs[pos:stop].copy()
            self.own_sent_times[pos + 1 : stop + 1] = self.own_sent_times[pos:stop].copy()
            for name in ("pred_state", "pred_time", "resolved", "lost"):
                array = getattr(self, name)
                array[:, pos + 1 : stop + 1] = array[:, pos:stop].copy()
        self.own_seqs[pos] = seq
        self.own_sent_times[pos] = sent_at
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

    # ----------------------------------------------------------------- digests

    def signature_matrix(self, rows: np.ndarray) -> np.ndarray:
        """A ``(len(rows), width)`` uint8 matrix of per-row signatures.

        Two rows receive equal byte rows exactly when the scalar
        ``Hypothesis.signature`` tuples would compare equal: same parameter
        assignment (interned id), gate state, rounded queued bits, queue
        contents ``(flow, seq)`` in order, in-service packet with rounded
        completion, rounded next cross arrival, and charged-lost set.  The
        queue buffers are kept canonically zero-padded past ``q_len`` (the
        engine clears vacated slots), so the padded columns can be hashed
        wholesale; ``q_len`` itself is part of the digest, which keeps a
        zero-valued real cell distinct from padding.

        :meth:`signature_digest` freezes each row into the ``bytes`` key the
        belief's compaction groups on.
        """
        length = int(self.q_len[rows].max()) if rows.size else 0
        parts = [
            self.params_id[rows],
            self.gate_on[rows],
            _python_round(self.queue_bits[rows], 3),
            self.q_len[rows],
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
        just freezes each matrix row into hashable ``bytes``.
        """
        packed = self.signature_matrix(rows)
        return [row.tobytes() for row in packed]

    def lane_arrays(self, rows: np.ndarray, copies: int, queue_width: int) -> dict:
        """Per-lane buffers for ``rows`` tiled ``copies`` times, rollout-ready.

        The gathered arrays feed
        :func:`repro.inference.vectorized.rollout.batched_rollout_rows`
        directly: lane ``a * len(rows) + j`` is action ``a`` on ``rows[j]``.

        ``queue_width`` sizes the returned queue buffers (zero-padded past
        each row's ``q_len``); callers pass the rollout's precomputed
        arrival-bound width so no second resize happens inside the kernel.
        """
        idx = np.tile(np.asarray(rows, dtype=np.int64), copies)
        lanes = idx.size
        take = min(queue_width, self.q_flow.shape[1])
        q_flow = np.zeros((lanes, queue_width), dtype=np.int8)
        q_size = np.zeros((lanes, queue_width), dtype=float)
        q_flow[:, :take] = self.q_flow[idx, :take]
        q_size[:, :take] = self.q_size[idx, :take]
        return {
            "link_rate": self.link_rate[idx],
            "buffer_cap": self.buffer_cap[idx],
            "survival": self.survival[idx],
            "cross_rate_pps": self.cross_rate_pps[idx],
            "cross_packet_bits": self.cross_packet_bits[idx],
            "gate_on": self.gate_on[idx],
            "next_cross_time": self.next_cross_time[idx],
            "svc_active": self.svc_active[idx],
            "svc_flow": self.svc_flow[idx],
            "svc_size": self.svc_size[idx],
            "svc_completion": self.svc_completion[idx],
            "q_len": self.q_len[idx],
            "queue_bits": self.queue_bits[idx],
            "q_flow": q_flow,
            "q_size": q_size,
        }

    def lane_checkpoint(self, rows: np.ndarray) -> dict:
        """A canonical, comparable snapshot of the latent state rollouts read.

        One entry per row, in ``rows`` order — what the planner's ``lanes``
        probe reports, so :mod:`repro.diagnostics` can tell drift in the
        state handed to the rollout from drift inside the frontier.  The
        scalar oracle reports the same snapshot by packing its top
        hypotheses through :meth:`from_hypotheses`.
        """
        lanes = []
        for row in np.asarray(rows).tolist():
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
                        (int(self.q_flow[row, slot]), float(self.q_size[row, slot]))
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

        length = int(self.q_len[row])
        queue = list(
            zip(
                map(_FLOW_NAMES.__getitem__, self.q_flow[row, :length].tolist()),
                self.q_seq[row, :length].tolist(),
                self.q_size[row, :length].tolist(),
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
