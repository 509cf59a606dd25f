"""The array-backed belief state.

:class:`VectorizedBeliefState` is the one array belief, the class
``BeliefState.for_backend`` returns for both accepted spellings,
``"vectorized"`` and ``"fused"``.  It is a drop-in replacement for
:class:`~repro.inference.belief.BeliefState` that stores the whole ensemble
in one :class:`~repro.inference.vectorized.state.EnsembleState` and runs
every step of the sequential Bayesian update — forward simulation, gate
forking, scoring, compaction, pruning, renormalization — as batched array
operations over struct-of-arrays buffers, while there is an ensemble to
batch.  A posterior that has collapsed to a single row with no latent gate
to fork on is a point estimate, not an ensemble: the update that leaves one
hands that row to the reference kernel for good (rows are only ever added by
gate forking, so a fork-free ensemble never grows back), the buffers are
dropped, ``state`` reads ``None``, and every later call on the belief runs
the :class:`BeliefState` code on that one :class:`Hypothesis`.

Equivalence contract with the scalar backend (exercised by
``tests/test_inference_vectorized.py``): the two backends apply the same
operations in the same order, and every arithmetic step that feeds a weight
uses either pure IEEE arithmetic (bit-identical between NumPy and Python
floats) or the same ``math``-module transcendental, so posteriors normally
match to the last bit.  The documented tolerance is ``1e-9`` relative — the
only divergences in practice are one-ulp differences in transcendental
calls on exotic platforms.

A belief built by ``BeliefState.from_prior`` starts from
:meth:`EnsembleState.from_prior
<repro.inference.vectorized.state.EnsembleState.from_prior>`, so it never
holds a scalar object at all; the constructor packs hypotheses it is given.
Scalar :class:`~repro.inference.hypothesis.Hypothesis` objects are
*materialized on demand* — ``top(k)`` / ``map_estimate`` rebuild only the
rows the scalar planner asks for; the array planner reads the rows in place
through ``top_rows``, so a wake-up on the array engine touches no
per-hypothesis Python object at all.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.errors import InferenceError
from repro.inference.belief import BeliefState
from repro.inference.hypothesis import Hypothesis
from repro.inference.observation import AckObservation
from repro.inference.vectorized import engine
from repro.inference.vectorized.scoring import score_and_bookkeep
from repro.inference.vectorized.state import EnsembleState


class VectorizedBeliefState(BeliefState):
    """A :class:`BeliefState` whose ensemble lives in NumPy buffers."""

    backend = "vectorized"

    def __init__(
        self,
        hypotheses: Sequence[Hypothesis],
        weights: Optional[Sequence[float]] = None,
        **settings,
    ) -> None:
        super().__init__(hypotheses, weights, **settings)
        self._hold(EnsembleState.from_hypotheses(self._hypotheses))

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
        belief._hold(EnsembleState.from_prior(assignments, start_time))
        return belief

    def _hold(self, state: EnsembleState) -> None:
        """Keep the ensemble in ``state`` and the weights in an array.

        The scalar containers are not used while the arrays hold the
        ensemble; they are emptied so stale objects cannot leak through
        (every accessor is overridden).
        """
        self._state = state
        self._weight_array = np.asarray(self._weights, dtype=float)
        self._hypotheses = []
        self._weights = []

    # -------------------------------------------------------------- inspection

    @property
    def state(self) -> Optional[EnsembleState]:
        """The struct-of-arrays ensemble (read-mostly); ``None`` once settled."""
        return self._state

    @property
    def hypotheses(self) -> list[Hypothesis]:
        if self._state is None:
            return super().hypotheses
        return [self._state.materialize(row) for row in range(self._state.size)]

    def __len__(self) -> int:
        return len(self._hypotheses) if self._state is None else self._state.size

    def __iter__(self):
        return iter(zip(self.hypotheses, self.weights))

    def top_rows(self, count: int) -> tuple[np.ndarray, list[float]]:
        """The ``count`` heaviest rows and their weights, heaviest first.

        The planner's no-materialization accessor.  A stable argsort on the
        negated weights reproduces the scalar backend's ``heapq.nlargest``
        selection exactly (both order descending with ties broken toward
        the lower index).  A settled belief has no rows (``state`` is
        ``None``); the planner reads it through :meth:`top`.
        """
        if self._state is None:
            raise InferenceError("a settled belief holds no rows; use top()")
        order = np.argsort(-self._weight_array, kind="stable")[:count]
        return order, self._weight_array[order].tolist()

    def top(self, count: int) -> list[tuple[Hypothesis, float]]:
        if self._state is None:
            return super().top(count)
        rows, weights = self.top_rows(count)
        return [
            (self._state.materialize(int(row)), weight)
            for row, weight in zip(rows.tolist(), weights)
        ]

    def map_estimate(self) -> Hypothesis:
        if self._state is None:
            return super().map_estimate()
        weights = self._weight_array.tolist()
        return self._state.materialize(max(range(len(weights)), key=weights.__getitem__))

    def map_link_rate_bps(self) -> float:
        if self._state is None:
            return super().map_link_rate_bps()
        weights = self._weight_array.tolist()
        row = max(range(len(weights)), key=weights.__getitem__)
        return float(self._state.link_rate[row])

    def decision_signature(self, count: int, queue_resolution_bits: float) -> tuple:
        if self._state is None:
            return super().decision_signature(count, queue_resolution_bits)
        rows, weights = self.top_rows(count)
        state = self._state
        parts = []
        for row, weight in zip(rows.tolist(), weights):
            busy = bool(state.svc_active[row])
            backlog = float(state.queue_bits[row]) + (
                float(state.svc_size[row]) if busy else 0.0
            )
            parts.append(
                (
                    state.params_keys[row],
                    round(weight, 3),
                    bool(state.gate_on[row]),
                    round(backlog / queue_resolution_bits),
                    busy,
                )
            )
        return tuple(parts)

    def plan_key(self, count: int) -> tuple:
        """The exact planner key, from the rows the rollout would read.

        The model clock, the top-k weights, and the raw bytes of every
        :meth:`EnsembleState.lane_arrays` field of the top rows — the very
        buffers the array rollout starts from, queues cut at the deepest
        row's length.  A settled belief uses the reference key.
        """
        if self._state is None:
            return super().plan_key(count)
        rows, weights = self.top_rows(count)
        state = self._state
        lanes = state.lane_arrays(rows, 1, int(state.q_len[rows].max()))
        return (state.time, tuple(weights), *(lane.tobytes() for lane in lanes.values()))

    # posterior_mean / posterior_marginal / effective_sample_size / entropy
    # are inherited: the base-class formulas read these two storage hooks.

    def _weight_values(self) -> list[float]:
        return self._weights if self._state is None else self._weight_array.tolist()

    def _parameter_dicts(self):
        if self._state is None:
            return super()._parameter_dicts()
        return self._state.params_dicts

    # ------------------------------------------------------------------ update

    def record_send(self, seq: int, size_bits: float, time: float) -> None:
        if self._state is None:
            return super().record_send(seq, size_bits, time)
        engine.send_own(self._state, seq, size_bits, time)

    def update(self, now: float, acks: Iterable[AckObservation] = ()) -> None:
        if self._state is None:
            # Not super().update(): one wake-up is one ``update`` call.
            return self._update_hypotheses(now, acks)
        acks = list(acks)
        self.acked_seqs.update(ack.seq for ack in acks)

        hook = self.stage_hook
        branch_state, parent, probability = engine.fork_and_advance(self._state, now)
        if hook is not None:
            # Same checkpoints as the scalar update, captured at the same
            # semantic points: branch order is the interleaved stay/switch
            # order both backends produce, and signatures are taken before
            # scoring charges losses into the lost-seq set.
            hook("fork", {"parents": parent.tolist(), "probabilities": probability.tolist()})
            hook(
                "advance",
                {
                    "time": now,
                    "signatures": [
                        branch_state.materialize(row).signature()
                        for row in range(branch_state.size)
                    ],
                },
            )
        prior_weight = self._weight_array[parent] * probability
        log_likelihood = score_and_bookkeep(
            branch_state,
            acks,
            now,
            self.kernel,
            self.acked_seqs,
            missing_grace=self.missing_grace,
        )
        if hook is not None:
            hook("score", {"log_likelihoods": log_likelihood.tolist()})
        # exp over a Python loop: ll <= 0 always, and math.exp matches the
        # scalar path's per-hypothesis call exactly.
        likelihood = np.array([math.exp(value) for value in log_likelihood.tolist()])
        candidate_weight = prior_weight * likelihood
        candidate_mask = log_likelihood != -np.inf

        candidate_index = np.nonzero(candidate_mask)[0]
        candidate_sum = sum(candidate_weight[candidate_index].tolist())
        if self._all_rejected(candidate_sum, now, len(acks)):
            kept_index = np.arange(branch_state.size)
            kept_weights = prior_weight
        else:
            kept_index = candidate_index
            kept_weights = candidate_weight[candidate_index]

        kept_index, kept_weights = self._compact_rows(branch_state, kept_index, kept_weights)
        if hook is not None:
            hook(
                "compact",
                {"count": int(kept_index.size), "weights": np.asarray(kept_weights).tolist()},
            )
        kept_index, kept_weights = self._prune_rows(kept_index, kept_weights)
        if hook is not None:
            hook(
                "prune",
                {"count": int(kept_index.size), "weights": np.asarray(kept_weights).tolist()},
            )
        self._state = branch_state.select(kept_index)
        # Built-in sum over the list keeps the normalizer's float accumulation
        # identical to the scalar path's ordered summation.
        total = sum(kept_weights.tolist())
        if total <= 0.0:
            raise InferenceError("cannot normalize an all-zero weight vector")
        self._weight_array = kept_weights / total
        if hook is not None:
            hook(
                "posterior",
                {
                    "weights": self._weight_array.tolist(),
                    "signatures": [
                        self._state.materialize(row).signature()
                        for row in range(self._state.size)
                    ],
                },
            )
        self._hand_off_settled_row()

    # ----------------------------------------------------------------- helpers

    def _hand_off_settled_row(self) -> None:
        """Leave the array kernel once one row that cannot fork is left.

        One way and without a threshold: only gate forking adds rows, so
        from here on there is nothing to batch over and the reference kernel
        is the cheaper one (a forking row stays: it is two rows next update).
        """
        state = self._state
        if state.size == 1 and not engine.can_fork(state)[0]:
            self._hypotheses = [state.materialize(0)]
            self._weights = self._weight_array.tolist()
            self._state = self._weight_array = None

    def _compact_rows(
        self, state: EnsembleState, rows: np.ndarray, weights: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Merge rows whose latent state digests are identical.

        Same grouping as the scalar ``Hypothesis.signature`` (parameter
        assignment, gate, queue contents, in-service packet, next cross
        arrival, charged-lost set — packed into per-row bytes by
        :meth:`EnsembleState.signature_digest`).  Groups keep the scalar
        path's first-occurrence order and each group's weights add left to
        right — the identical float addition sequence the scalar merge
        performs.  Fewer than two rows cannot merge, so the digest is not
        even packed for them (the common case for a converged belief).
        """
        if rows.size < 2:
            return rows, weights
        digests = state.signature_digest(rows)
        merged: dict[bytes, int] = {}
        kept_positions: list[int] = []
        kept_weights: list[float] = []
        weight_list = weights.tolist()
        for position, key in enumerate(digests):
            slot = merged.get(key)
            if slot is not None:
                kept_weights[slot] += weight_list[position]
                self.compacted_away += 1
            else:
                merged[key] = len(kept_positions)
                kept_positions.append(position)
                kept_weights.append(weight_list[position])
        if len(kept_positions) == rows.size:
            return rows, weights
        return rows[np.asarray(kept_positions, dtype=np.int64)], np.asarray(
            kept_weights, dtype=float
        )

    def _prune_rows(
        self, rows: np.ndarray, weights: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Scalar-identical prune: threshold, stable descending sort, cap."""
        if rows.size == 0:
            return rows, weights
        threshold = weights.max() * self.prune_fraction
        keep = weights >= threshold
        rows = rows[keep]
        weights = weights[keep]
        # Stable argsort on the negated weights == the scalar path's stable
        # descending sort (ties keep candidate order).
        order = np.argsort(-weights, kind="stable")[: self.max_hypotheses]
        return rows[order], weights[order]

