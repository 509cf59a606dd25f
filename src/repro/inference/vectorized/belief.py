"""The array-backed belief state.

:class:`VectorizedBeliefState` is the one array belief, the class
``BeliefState.for_backend`` returns for both accepted spellings,
``"vectorized"`` and ``"fused"``.  It runs the one update body,
:meth:`~repro.inference.belief.BeliefState.update`, over :class:`ArrayRows`:
the ensemble in one :class:`~repro.inference.vectorized.state.EnsembleState`,
whose steps — forward simulation and gate forking, scoring, compaction
digests, row selection — are batched over struct-of-arrays buffers.  A
belief built by ``BeliefState.from_prior`` never holds a scalar object:
:class:`~repro.inference.hypothesis.Hypothesis` objects are materialized
only for ``top`` / ``map_estimate``, and the array planner reads the rows in
place through ``top_rows``.

A posterior collapsed to one row with no latent gate to fork on is a point
estimate, not an ensemble: the update that leaves one replaces the array
form by the list form, :class:`~repro.inference.belief.HypothesisRows`, for
good (only gate forking adds rows, so a fork-free ensemble never grows
back); ``state`` then reads ``None``.

Equivalence with the scalar engine (``tests/test_inference_vectorized.py``):
the weights go through the same Python-float arithmetic on both, and every
array step that feeds one is pure IEEE arithmetic or the same ``math``
transcendental, so posteriors normally match to the last bit; the
documented tolerance is ``1e-9`` relative.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.inference.belief import BeliefState, HypothesisRows
from repro.inference.hypothesis import Hypothesis
from repro.inference.vectorized import engine
from repro.inference.vectorized.scoring import score_and_bookkeep
from repro.inference.vectorized.state import EnsembleState


class ArrayRows:
    """An ensemble held as one :class:`EnsembleState`, one buffer row per row.

    The same steps and accessors as
    :class:`~repro.inference.belief.HypothesisRows`, batched.
    """

    __slots__ = ("state",)

    def __init__(self, state: EnsembleState) -> None:
        self.state = state

    def __len__(self) -> int:
        return self.state.size

    def materialize(self, row: int) -> Hypothesis:
        return self.state.materialize(row)

    def link_rate(self, row: int) -> float:
        return float(self.state.link_rate[row])

    def parameter_dicts(self):
        return self.state.params_dicts

    def top_rows(self, weights: list[float], count: int) -> tuple[np.ndarray, list[float]]:
        """A stable argsort on the negated weights: the list form's
        ``heapq.nlargest`` order, ties to the lower row."""
        weight_array = np.asarray(weights, dtype=float)
        order = np.argsort(-weight_array, kind="stable")[:count]
        return order, weight_array[order].tolist()

    def top_order(self, weights: list[float], count: int) -> list[int]:
        return self.top_rows(weights, count)[0].tolist()

    def decision_signature(
        self, weights: list[float], count: int, queue_resolution_bits: float
    ) -> tuple:
        rows, top_weights = self.top_rows(weights, count)
        state = self.state
        parts = []
        for row, weight in zip(rows.tolist(), top_weights):
            busy = bool(state.svc_active[row])
            backlog = float(state.queue_bits[row]) + (
                float(state.svc_size[row]) if busy else 0.0
            )
            parts.append(
                (
                    state.params_digest[row],
                    round(weight, 3),
                    bool(state.gate_on[row]),
                    round(backlog / queue_resolution_bits),
                    busy,
                )
            )
        return tuple(parts)

    def plan_key(self, weights: list[float], count: int) -> tuple:
        """The model clock, the top-k weights, and the raw bytes of every
        :meth:`EnsembleState.lane_arrays` field of the top rows — the very
        buffers the array rollout starts from, queues cut at the deepest
        row's length."""
        rows, top_weights = self.top_rows(weights, count)
        state = self.state
        lanes = state.lane_arrays(rows, 1, int(state.q_len[rows].max()))
        return (state.time, tuple(top_weights), *(lane.tobytes() for lane in lanes.values()))

    # ------------------------------------------------------------ update steps

    def record_send(self, seq: int, size_bits: float, time: float) -> None:
        engine.send_own(self.state, seq, size_bits, time)

    def fork_and_advance(self, now: float) -> tuple[list[int], list[float]]:
        self.state, parent, probability = engine.fork_and_advance(self.state, now)
        return parent.tolist(), probability.tolist()

    def signatures(self) -> list[tuple]:
        state = self.state
        return [state.materialize(row).signature() for row in range(state.size)]

    def score(self, acks, now, kernel, acked_seqs, missing_grace) -> list[float]:
        return score_and_bookkeep(
            self.state, acks, now, kernel, acked_seqs, missing_grace=missing_grace
        ).tolist()

    def merge_keys(self, rows: list[int]) -> list[bytes]:
        """:meth:`EnsembleState.signature_digest`: the list form's signature
        grouping, packed into per-row bytes."""
        return self.state.signature_digest(np.asarray(rows, dtype=np.int64))

    def keep(self, rows: list[int]) -> None:
        self.state = self.state.select(np.asarray(rows, dtype=np.int64))

    def finish_update(self, belief: "VectorizedBeliefState", now: float) -> None:
        belief._hand_off_settled_row()


class VectorizedBeliefState(BeliefState):
    """A :class:`BeliefState` whose ensemble lives in NumPy buffers."""

    backend = "vectorized"

    # The same function as BeliefState.update, bound in this class too: the
    # benchmark tracer wraps each class's own ``update`` and counts one span
    # per call, so neither may call the other.
    update = BeliefState.update

    @staticmethod
    def _pack(hypotheses: list[Hypothesis]) -> ArrayRows:
        return ArrayRows(EnsembleState.from_hypotheses(hypotheses))

    @classmethod
    def _from_grid(
        cls,
        assignments: list[dict[str, float]],
        weights: list[float],
        start_time: float,
        settings: dict,
    ) -> "VectorizedBeliefState":
        """The prior's ensemble written straight into buffers: no hypotheses."""
        belief = cls.__new__(cls)
        belief._configure(**settings)
        belief._weights = belief._normalize(weights)
        belief._rows = ArrayRows(EnsembleState.from_prior(assignments, start_time))
        return belief

    @property
    def state(self) -> Optional[EnsembleState]:
        """The struct-of-arrays ensemble (read-mostly); ``None`` once settled."""
        return self._rows.state

    def top_rows(self, count: int) -> tuple[np.ndarray, list[float]]:
        """The ``count`` heaviest rows and their weights, heaviest first.

        The planner's no-materialization accessor, in the order ``top``
        uses on both forms.  A settled belief has no rows (``state`` is
        ``None``); the planner reads it through :meth:`top`.
        """
        return self._rows.top_rows(self._weights, count)

    def _hand_off_settled_row(self) -> None:
        """Leave the array kernel once one row that cannot fork is left.

        One way and without a threshold: only gate forking adds rows, so
        from here on there is nothing to batch over and the list form is the
        cheaper one (a forking row stays: it is two rows next update).
        """
        state = self._rows.state
        if state.size == 1 and not engine.can_fork(state)[0]:
            self._rows = HypothesisRows([state.materialize(0)])
