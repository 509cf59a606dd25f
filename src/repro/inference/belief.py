"""The sender's probability distribution over network configurations.

The :class:`BeliefState` holds a weighted ensemble of candidate network
configurations and applies the sequential Bayesian update the paper
describes (§3.2): every time the sender wakes up, each hypothesis is
simulated forward to the present (forking on latent nondeterminism), scored
against what actually happened, re-weighted, compacted, pruned, and
renormalized.

The belief owns the update and the weights; the rows are held in one of two
forms, and only the steps that touch rows are written per form.
:meth:`BeliefState.update` is the one update body for both engines, and the
only place that emits its stages.  :class:`HypothesisRows` is the list form:
one :class:`~repro.inference.hypothesis.Hypothesis` per row, the scalar
engine's, and what an array belief holds once it has settled.  The array
form, :class:`~repro.inference.vectorized.belief.ArrayRows`, keeps the rows
in an :class:`~repro.inference.vectorized.state.EnsembleState`.

A sender's belief starts from its prior: :meth:`BeliefState.from_prior`
takes the prior's grid and has one outcome per engine — a list of
:class:`~repro.inference.hypothesis.Hypothesis` objects on the scalar
engine, an :class:`~repro.inference.vectorized.state.EnsembleState` written
directly from the grid on the array engine.
"""

from __future__ import annotations

import heapq
import math
from typing import Iterable, Mapping, Optional, Sequence

from repro.errors import InferenceError, UnknownBackendError
from repro.inference.hypothesis import Hypothesis
from repro.inference.likelihood import GaussianKernel, LikelihoodKernel
from repro.inference.observation import AckObservation
from repro.inference.prior import Prior

#: The names a ``belief_backend`` / ``rollout_backend`` may take.  Two
#: engines: ``"scalar"``, the per-object reference, and the NumPy array
#: engine under two spellings.  The spelling changes nothing that runs, but
#: it feeds ``SenderConfig.fingerprint()`` — derived seeds, cache keys,
#: published tables — so both stay.
BACKENDS = ("fused", "scalar", "vectorized")

#: After every update, rows whose weight falls below this fraction of the
#: heaviest row's are discarded.
PRUNE_FRACTION = 1e-6

#: Seconds of cross-traffic delivery/drop history each hypothesis's model
#: retains behind the update clock.  Planner rollouts read the tallies of
#: *fresh* clones only, so older history is dead weight that would grow (and
#: be re-copied on every gate fork) without bound on long runs.
CROSS_TALLY_WINDOW = 60.0


def check_backend(kind: str, name: str) -> None:
    """Raise ``UnknownBackendError`` unless ``name`` is one of :data:`BACKENDS`.

    ``kind`` (``"belief"``, ``"rollout"``) says which knob was mistyped.
    """
    if name not in BACKENDS:
        raise UnknownBackendError(
            f"unknown {kind} backend {name!r}; expected one of {', '.join(BACKENDS)}"
        )


class HypothesisRows:
    """An ensemble held as a list of :class:`Hypothesis` objects, one per row.

    The per-row steps of :meth:`BeliefState.update` and the accessors the
    belief's queries read, for this form; the array form,
    :class:`~repro.inference.vectorized.belief.ArrayRows`, has the same
    methods.  The update steps work in place: :meth:`fork_and_advance`
    replaces the rows by their branches, :meth:`keep` by the survivors.
    """

    __slots__ = ("hypotheses",)

    #: No array buffers: a planner packs this form's top hypotheses itself.
    state = None

    def __init__(self, hypotheses: list[Hypothesis]) -> None:
        self.hypotheses = hypotheses

    def __len__(self) -> int:
        return len(self.hypotheses)

    def materialize(self, row: int) -> Hypothesis:
        return self.hypotheses[row]

    def link_rate(self, row: int) -> float:
        return self.hypotheses[row].model.params.link_rate_bps

    def parameter_dicts(self) -> Iterable[Mapping[str, float]]:
        return (hypothesis.params for hypothesis in self.hypotheses)

    def top_order(self, weights: list[float], count: int) -> list[int]:
        """The ``count`` heaviest rows, heaviest first, ties to the lower row.

        A heap selection (O(n log count)); ``heapq.nlargest`` breaks ties as
        a stable descending sort does.
        """
        return heapq.nlargest(count, range(len(weights)), key=weights.__getitem__)

    def top_rows(self, weights: list[float], count: int):
        raise InferenceError("a settled belief holds no rows; use top()")

    def decision_signature(
        self, weights: list[float], count: int, queue_resolution_bits: float
    ) -> tuple:
        parts = []
        for row in self.top_order(weights, count):
            hypothesis = self.hypotheses[row]
            model = hypothesis.model
            parts.append(
                (
                    hypothesis.params_digest,
                    round(weights[row], 3),
                    model.gate_on,
                    round(model.backlog_bits / queue_resolution_bits),
                    model.busy,
                )
            )
        return tuple(parts)

    def plan_key(self, weights: list[float], count: int) -> tuple:
        return tuple(
            (weights[row], self.hypotheses[row].model.rollout_key())
            for row in self.top_order(weights, count)
        )

    # ------------------------------------------------------------ update steps

    def record_send(self, seq: int, size_bits: float, time: float) -> None:
        for hypothesis in self.hypotheses:
            hypothesis.record_send(seq, size_bits, time)

    def fork_and_advance(self, now: float) -> tuple[list[int], list[float]]:
        """Replace each row by its branches at ``now``, a row's "stay"
        branch (the row itself) before its "switch" branch, dropping
        zero-probability ones; return each branch's parent row and
        probability."""
        branches: list[Hypothesis] = []
        parents: list[int] = []
        probabilities: list[float] = []
        for parent, hypothesis in enumerate(self.hypotheses):
            for branch, probability in hypothesis.evolve(now):
                if probability > 0.0:
                    branches.append(branch)
                    parents.append(parent)
                    probabilities.append(probability)
        self.hypotheses = branches
        return parents, probabilities

    def signatures(self) -> list[tuple]:
        return [hypothesis.signature() for hypothesis in self.hypotheses]

    def score(self, acks, now, kernel, acked_seqs) -> list[float]:
        return [hypothesis.score(acks, now, kernel, acked_seqs) for hypothesis in self.hypotheses]

    def merge_keys(self, rows: list[int]) -> list[tuple]:
        return [self.hypotheses[row].signature() for row in rows]

    def keep(self, rows: list[int]) -> None:
        self.hypotheses = [self.hypotheses[row] for row in rows]

    def finish_update(self, belief: "BeliefState", now: float) -> None:
        """Keep :data:`CROSS_TALLY_WINDOW` of each model's cross-tally
        history, so long runs stay flat in memory (clones copy these lists on
        every gate fork)."""
        cutoff = now - CROSS_TALLY_WINDOW
        for hypothesis in self.hypotheses:
            hypothesis.model.cross.trim(cutoff)


class BeliefState:
    """A weighted ensemble of candidate network configurations.

    Parameters
    ----------
    hypotheses:
        Initial hypotheses.
    weights:
        Initial weights (normalized internally).

    The settings below are keywords, here and in :meth:`from_prior`.

    kernel:
        Likelihood kernel for timing errors; defaults to a Gaussian kernel
        with a 0.25 s standard deviation.
    max_hypotheses:
        Hard cap on the ensemble size after every update; lowest-weight
        hypotheses are discarded first (and, at every update, those below
        :data:`PRUNE_FRACTION` of the heaviest).

    An observation that rejects every hypothesis is ignored: the update keeps
    the forked, unscored weights and counts itself in
    :attr:`degenerate_updates`.
    """

    def __init__(
        self,
        hypotheses: Sequence[Hypothesis],
        weights: Optional[Sequence[float]] = None,
        **settings,
    ) -> None:
        if not hypotheses:
            raise InferenceError("a belief state needs at least one hypothesis")
        self._configure(**settings)
        if weights is None:
            weights = [1.0] * len(hypotheses)
        if len(weights) != len(hypotheses):
            raise InferenceError("weights and hypotheses must have the same length")
        self._weights = self._normalize(list(weights))
        self._rows = self._pack(list(hypotheses))

    def _configure(
        self,
        kernel: Optional[LikelihoodKernel] = None,
        max_hypotheses: int = 512,
    ) -> None:
        """The settings and counters, whichever way the ensemble arrives."""
        self.kernel: LikelihoodKernel = kernel if kernel is not None else GaussianKernel(sigma=0.25)
        self.max_hypotheses = max_hypotheses
        #: Every sequence number acknowledged so far.
        self.acked_seqs: set[int] = set()
        #: Number of updates in which every hypothesis was rejected.
        self.degenerate_updates = 0
        #: Number of updates applied.
        self.updates_applied = 0
        #: Number of hypotheses merged away by compaction, cumulative.
        self.compacted_away = 0

    #: Name of the storage/execution backend this class implements.
    backend = "scalar"

    #: Optional per-stage checkpoint callback ``hook(stage, payload)`` fired
    #: during :meth:`update` at each kernel stage (``fork``, ``advance``,
    #: ``score``, ``compact``, ``prune``, ``posterior``).  The one update
    #: body emits them for both engines, with payloads each form fills from
    #: its own rows, which is what :mod:`repro.diagnostics` bisects to
    #: localize backend drift.  ``None`` (the default) keeps the update loop
    #: checkpoint-free.
    stage_hook = None

    # ------------------------------------------------------------ constructors

    @staticmethod
    def _pack(hypotheses: list[Hypothesis]) -> HypothesisRows:
        """The form this engine holds the hypotheses it is given in."""
        return HypothesisRows(hypotheses)

    @classmethod
    def for_backend(cls, backend: Optional[str]) -> type["BeliefState"]:
        """The BeliefState class implementing ``backend``.

        ``None`` keeps the class it was called on; ``"scalar"`` is this
        reference implementation, ``"vectorized"`` and ``"fused"`` both the
        NumPy struct-of-arrays class in :mod:`repro.inference.vectorized`,
        imported here on first use so a scalar-only process never loads it.
        Any other name raises :class:`~repro.errors.UnknownBackendError`.
        """
        if backend is None:
            return cls
        check_backend("belief", backend)
        if backend == "scalar":
            return BeliefState
        from repro.inference.vectorized.belief import VectorizedBeliefState

        return VectorizedBeliefState

    @classmethod
    def from_prior(
        cls,
        prior: Prior,
        start_time: float = 0.0,
        backend: Optional[str] = None,
        **settings,
    ) -> "BeliefState":
        """The belief a sender starts from: one row per prior grid point.

        ``backend`` selects the engine (``"scalar"``, or ``"vectorized"`` /
        ``"fused"``); by default the class the method is called on.  The
        scalar engine builds one :meth:`Hypothesis.from_params` per grid
        point; the array engine writes the same initial state straight into
        its buffers (:meth:`~repro.inference.vectorized.state.EnsembleState.from_prior`)
        and builds no scalar object.  ``settings`` are the constructor's.
        """
        assignments: list[dict[str, float]] = []
        weights: list[float] = []
        for assignment, probability in prior.combinations():
            assignments.append(assignment)
            weights.append(probability)
        return cls.for_backend(backend)._from_grid(assignments, weights, start_time, settings)

    @classmethod
    def _from_grid(
        cls,
        assignments: list[dict[str, float]],
        weights: list[float],
        start_time: float,
        settings: dict,
    ) -> "BeliefState":
        """This engine's belief over ``assignments`` (see :meth:`from_prior`)."""
        hypotheses = [
            Hypothesis.from_params(assignment, start_time=start_time)
            for assignment in assignments
        ]
        return cls(hypotheses, weights, **settings)

    # -------------------------------------------------------------- inspection

    @property
    def hypotheses(self) -> list[Hypothesis]:
        """The current hypotheses (aligned with :attr:`weights`)."""
        rows = self._rows
        return [rows.materialize(row) for row in range(len(rows))]

    @property
    def weights(self) -> list[float]:
        """The current normalized weights (aligned with :attr:`hypotheses`)."""
        return list(self._weights)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self):
        return iter(zip(self.hypotheses, self.weights))

    def top(self, count: int) -> list[tuple[Hypothesis, float]]:
        """The ``count`` highest-weight hypotheses, heaviest first (ties to
        the earlier row, on both forms)."""
        rows, weights = self._rows, self._weights
        return [(rows.materialize(row), weights[row]) for row in rows.top_order(weights, count)]

    def _map_row(self) -> int:
        weights = self._weights
        return max(range(len(weights)), key=weights.__getitem__)

    def map_estimate(self) -> Hypothesis:
        """The maximum a-posteriori hypothesis."""
        return self._rows.materialize(self._map_row())

    def map_link_rate_bps(self) -> float:
        """The MAP hypothesis's link rate (no materialization on any backend)."""
        return self._rows.link_rate(self._map_row())

    def decision_signature(
        self, count: int, queue_resolution_bits: float
    ) -> tuple:
        """A coarse, hashable digest of the decision-relevant belief state.

        Used by the planner layer's ``PolicyCache`` as its memoization
        key, and as a served decision's key on the wire: per top
        hypothesis, ``(assignment_digest, weight, gate_on, backlog_rounds,
        busy)`` — the 16-hex
        :func:`~repro.inference.parameters.assignment_digest` of its
        parameter assignment (computed once per assignment, never per
        call), the weight rounded to 3 decimals, the gate state, the
        backlog rounded to ``queue_resolution_bits``, and whether the link
        is busy.  Backends produce identical tuples for equivalent
        ensembles.
        """
        return self._rows.decision_signature(self._weights, count, queue_resolution_bits)

    def plan_key(self, count: int) -> tuple:
        """An exact, hashable key of everything the planner reads.

        Where :meth:`decision_signature` is coarse on purpose, this is the
        key the planner layer's ``SharedPlanner`` shares whole plans on:
        the top-k weights, heaviest first, and every rollout input of those
        rows — on the list form each model's
        :meth:`~repro.inference.linkmodel.LinkModel.rollout_key` (parameters,
        model clock, gate, next cross arrival, in-service packet and
        completion time, queued ``(flow, size)`` entries, queue bits), on the
        array form the raw bytes of the lane buffers the array rollout starts
        from.  Two beliefs with equal keys get the same plan at the same
        instant.
        """
        return self._rows.plan_key(self._weights, count)

    def posterior_mean(self, parameter: str) -> float:
        """Posterior mean of one parameter across the ensemble."""
        total = 0.0
        for params, weight in zip(self._rows.parameter_dicts(), self._weights):
            value = params.get(parameter)
            if value is None:
                raise InferenceError(f"hypotheses carry no parameter named {parameter!r}")
            total += float(value) * weight
        return total

    def posterior_marginal(self, parameter: str) -> dict[float, float]:
        """Posterior probability of each distinct value of one parameter."""
        marginal: dict[float, float] = {}
        for params, weight in zip(self._rows.parameter_dicts(), self._weights):
            value = params.get(parameter)
            if value is None:
                raise InferenceError(f"hypotheses carry no parameter named {parameter!r}")
            marginal[value] = marginal.get(value, 0.0) + weight
        return marginal

    def effective_sample_size(self) -> float:
        """``1 / sum(w^2)`` — a standard measure of ensemble degeneracy."""
        total = 0.0
        for weight in self._weights:
            total += weight * weight
        return 1.0 / total

    def entropy(self) -> float:
        """Shannon entropy (nats) of the weight distribution."""
        log = math.log
        total = 0.0
        for weight in self._weights:
            if weight > 0.0:
                total += weight * log(weight)
        return -total

    # ------------------------------------------------------------------ update

    def record_send(self, seq: int, size_bits: float, time: float) -> None:
        """Inform every hypothesis that the sender transmitted packet ``seq``."""
        self._rows.record_send(seq, size_bits, time)

    def update(self, now: float, acks: Iterable[AckObservation] = ()) -> None:
        """Advance every hypothesis to ``now`` and condition on the new acks.

        The one §3.2 update for both engines: the held form forks and
        advances its rows, scores the branches and keeps the survivors; the
        weights — prior × likelihood in Python floats, the degenerate rule,
        compaction, pruning, normalization — and every ``stage_hook`` stage
        are handled here, once.
        """
        acks = list(acks)
        self.acked_seqs.update(ack.seq for ack in acks)
        hook = self.stage_hook
        ensemble = self._rows

        parents, probabilities = ensemble.fork_and_advance(now)
        if hook is not None:
            # Signatures are taken before scoring, which charges losses into
            # the lost-seq set they include.
            hook("fork", {"parents": parents, "probabilities": probabilities})
            hook("advance", {"time": now, "signatures": ensemble.signatures()})
        log_likelihoods = ensemble.score(acks, now, self.kernel, self.acked_seqs)
        if hook is not None:
            hook("score", {"log_likelihoods": log_likelihoods})

        weights = self._weights
        prior = [weights[parent] * branch for parent, branch in zip(parents, probabilities)]
        exp = math.exp
        rows: list[int] = []
        row_weights: list[float] = []
        for row, value in enumerate(log_likelihoods):
            if value != -math.inf:
                rows.append(row)
                row_weights.append(prior[row] * exp(value))
        if self._all_rejected(sum(row_weights)):
            rows, row_weights = list(range(len(prior))), prior

        rows, row_weights = self._compact(ensemble, rows, row_weights)
        if hook is not None:
            hook("compact", {"count": len(rows), "weights": list(row_weights)})
        rows, row_weights = self._prune(rows, row_weights)
        if hook is not None:
            hook("prune", {"count": len(rows), "weights": list(row_weights)})
        ensemble.keep(rows)
        self._weights = self._normalize(row_weights)
        if hook is not None:
            hook(
                "posterior",
                {"weights": list(self._weights), "signatures": ensemble.signatures()},
            )
        ensemble.finish_update(self, now)

    # ----------------------------------------------------------------- helpers

    def _all_rejected(self, candidate_total: float) -> bool:
        """Count an applied update; say whether the observation rejected every
        hypothesis (the surviving weights sum to ``candidate_total``).

        The one degenerate rule: such an update is counted in
        :attr:`degenerate_updates`, and the caller keeps the forked, unscored
        weights — the observation is ignored.
        """
        self.updates_applied += 1
        if not candidate_total <= 0.0:
            return False
        self.degenerate_updates += 1
        return True

    def _compact(
        self, ensemble, rows: list[int], weights: list[float]
    ) -> tuple[list[int], list[float]]:
        """Merge rows whose latent states have become identical (§3.2).

        ``ensemble.merge_keys`` names each row's state — signature tuples on
        the list form, digest bytes on the array form.  The first row of a
        group stands for it and the group's weights add left to right.
        Fewer than two rows cannot merge, so no key is built for them.
        """
        if len(rows) < 2:
            return rows, weights
        slots: dict = {}
        kept: list[int] = []
        kept_weights: list[float] = []
        for row, weight, key in zip(rows, weights, ensemble.merge_keys(rows)):
            slot = slots.get(key)
            if slot is None:
                slots[key] = len(kept)
                kept.append(row)
                kept_weights.append(weight)
            else:
                kept_weights[slot] += weight
                self.compacted_away += 1
        return kept, kept_weights

    def _prune(
        self, rows: list[int], weights: list[float]
    ) -> tuple[list[int], list[float]]:
        """Drop rows under :data:`PRUNE_FRACTION` of the heaviest, then keep
        the ``max_hypotheses`` heaviest: a stable descending sort, so equal
        weights keep their order."""
        if not rows:
            return rows, weights
        threshold = max(weights) * PRUNE_FRACTION
        order = [position for position, weight in enumerate(weights) if weight >= threshold]
        order.sort(key=weights.__getitem__, reverse=True)
        del order[self.max_hypotheses :]
        return [rows[position] for position in order], [weights[position] for position in order]

    @staticmethod
    def _normalize(weights: list[float]) -> list[float]:
        total = sum(weights)
        if total <= 0.0:
            raise InferenceError("cannot normalize an all-zero weight vector")
        return [weight / total for weight in weights]
