"""The sender's probability distribution over network configurations.

The :class:`BeliefState` holds a weighted ensemble of
:class:`~repro.inference.hypothesis.Hypothesis` objects and applies the
sequential Bayesian update the paper describes (§3.2): every time the sender
wakes up, each hypothesis is simulated forward to the present (forking on
latent nondeterminism), scored against what actually happened, re-weighted,
pruned, compacted, and renormalized.

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

from repro.errors import DegenerateBeliefError, InferenceError, UnknownBackendError
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


def check_backend(kind: str, name: str) -> None:
    """Raise ``UnknownBackendError`` unless ``name`` is one of :data:`BACKENDS`.

    ``kind`` (``"belief"``, ``"rollout"``) says which knob was mistyped.
    """
    if name not in BACKENDS:
        raise UnknownBackendError(
            f"unknown {kind} backend {name!r}; expected one of {', '.join(BACKENDS)}"
        )


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
        hypotheses are discarded first.
    prune_fraction:
        Hypotheses whose weight falls below ``prune_fraction`` times the
        largest weight are discarded.
    missing_grace:
        Seconds of grace before an unacknowledged packet is charged to
        stochastic loss (passed through to hypothesis scoring).
    cross_tally_window:
        Seconds of cross-traffic delivery/drop history each hypothesis's
        model retains behind the update clock.  Planner rollouts read the
        tallies of *fresh* clones only, so history older than any scoring
        or rollout window is dead weight that previously grew (and was
        re-copied on every gate fork) without bound on long runs; ``None``
        restores the unbounded behaviour.
    on_degenerate:
        What to do when every hypothesis is rejected by an observation:
        ``"keep"`` ignores the observation and keeps the pre-update weights
        (robust default, counted in :attr:`degenerate_updates`), ``"raise"``
        raises :class:`~repro.errors.DegenerateBeliefError`.
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
        self._hypotheses = list(hypotheses)
        if weights is None:
            weights = [1.0] * len(self._hypotheses)
        if len(weights) != len(self._hypotheses):
            raise InferenceError("weights and hypotheses must have the same length")
        self._weights = self._normalize(list(weights))

    def _configure(
        self,
        kernel: Optional[LikelihoodKernel] = None,
        max_hypotheses: int = 512,
        prune_fraction: float = 1e-6,
        missing_grace: float = 0.0,
        cross_tally_window: Optional[float] = 60.0,
        on_degenerate: str = "keep",
    ) -> None:
        """The settings and counters, whichever way the ensemble arrives."""
        if on_degenerate not in ("keep", "raise"):
            raise InferenceError(f"unknown on_degenerate policy {on_degenerate!r}")
        if cross_tally_window is not None and cross_tally_window <= 0:
            raise InferenceError("cross_tally_window must be positive when given")
        self.kernel: LikelihoodKernel = kernel if kernel is not None else GaussianKernel(sigma=0.25)
        self.max_hypotheses = max_hypotheses
        self.prune_fraction = prune_fraction
        self.missing_grace = missing_grace
        self.cross_tally_window = cross_tally_window
        self.on_degenerate = on_degenerate
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
    #: ``score``, ``compact``, ``prune``, ``posterior``).  Both backends emit
    #: the same stages with comparable payloads, which is what
    #: :mod:`repro.diagnostics` bisects to localize backend drift.  ``None``
    #: (the default) keeps the update loop checkpoint-free.
    stage_hook = None

    # ------------------------------------------------------------ constructors

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
        return list(self._hypotheses)

    @property
    def weights(self) -> list[float]:
        """The current normalized weights (aligned with :attr:`hypotheses`)."""
        return list(self._weight_values())

    def __len__(self) -> int:
        return len(self._hypotheses)

    def __iter__(self):
        return iter(zip(self._hypotheses, self._weights))

    def top(self, count: int) -> list[tuple[Hypothesis, float]]:
        """The ``count`` highest-weight hypotheses, heaviest first.

        Uses a heap selection (O(n log count)) instead of sorting the whole
        ensemble; ``heapq.nlargest`` keeps the same stable tie-breaking as
        the full descending sort it replaces.
        """
        weights = self._weights
        order = heapq.nlargest(count, range(len(weights)), key=weights.__getitem__)
        return [(self._hypotheses[i], weights[i]) for i in order]

    def map_estimate(self) -> Hypothesis:
        """The maximum a-posteriori hypothesis."""
        index = max(range(len(self._weights)), key=lambda i: self._weights[i])
        return self._hypotheses[index]

    def map_link_rate_bps(self) -> float:
        """The MAP hypothesis's link rate (no materialization on any backend)."""
        return self.map_estimate().model.params.link_rate_bps

    def decision_signature(
        self, count: int, queue_resolution_bits: float
    ) -> tuple:
        """A coarse, hashable digest of the decision-relevant belief state.

        Used by the planner layer's ``PolicyCache`` as its memoization
        key: per top hypothesis, the parameter assignment, the weight
        rounded to 3 decimals, the gate state, the backlog rounded to
        ``queue_resolution_bits``, and whether the link is busy.  Backends
        produce identical tuples for equivalent ensembles.
        """
        parts = []
        for hypothesis, weight in self.top(count):
            model = hypothesis.model
            parts.append(
                (
                    tuple(sorted(hypothesis.params.items())),
                    round(weight, 3),
                    model.gate_on,
                    round(model.backlog_bits / queue_resolution_bits),
                    model.busy,
                )
            )
        return tuple(parts)

    def plan_key(self, count: int) -> tuple:
        """An exact, hashable key of everything the planner reads.

        Where :meth:`decision_signature` is coarse on purpose, this is the
        key the planner layer's ``SharedPlanner`` shares whole plans on:
        per top hypothesis, heaviest first, its weight and
        :meth:`~repro.inference.linkmodel.LinkModel.rollout_key` (parameters,
        model clock, gate, next cross arrival, in-service packet and
        completion time, queued ``(flow, size)`` entries, queue bits).  Two
        beliefs with equal keys get the same plan at the same instant.
        """
        return tuple(
            (weight, hypothesis.model.rollout_key()) for hypothesis, weight in self.top(count)
        )

    def _weight_values(self) -> list[float]:
        """The normalized weights as a plain list (storage-backend hook)."""
        return self._weights

    def _parameter_dicts(self) -> Iterable[Mapping[str, float]]:
        """Per-hypothesis parameter assignments (storage-backend hook)."""
        return (hypothesis.params for hypothesis in self._hypotheses)

    def posterior_mean(self, parameter: str) -> float:
        """Posterior mean of one parameter across the ensemble."""
        total = 0.0
        for params, weight in zip(self._parameter_dicts(), self._weight_values()):
            value = params.get(parameter)
            if value is None:
                raise InferenceError(f"hypotheses carry no parameter named {parameter!r}")
            total += float(value) * weight
        return total

    def posterior_marginal(self, parameter: str) -> dict[float, float]:
        """Posterior probability of each distinct value of one parameter."""
        marginal: dict[float, float] = {}
        for params, weight in zip(self._parameter_dicts(), self._weight_values()):
            value = params.get(parameter)
            if value is None:
                raise InferenceError(f"hypotheses carry no parameter named {parameter!r}")
            marginal[value] = marginal.get(value, 0.0) + weight
        return marginal

    def effective_sample_size(self) -> float:
        """``1 / sum(w^2)`` — a standard measure of ensemble degeneracy."""
        total = 0.0
        for weight in self._weight_values():
            total += weight * weight
        return 1.0 / total

    def entropy(self) -> float:
        """Shannon entropy (nats) of the weight distribution."""
        log = math.log
        total = 0.0
        for weight in self._weight_values():
            if weight > 0.0:
                total += weight * log(weight)
        return -total

    # ------------------------------------------------------------------ update

    def record_send(self, seq: int, size_bits: float, time: float) -> None:
        """Inform every hypothesis that the sender transmitted packet ``seq``."""
        for hypothesis in self._hypotheses:
            hypothesis.record_send(seq, size_bits, time)

    def update(self, now: float, acks: Iterable[AckObservation] = ()) -> None:
        """Advance every hypothesis to ``now`` and condition on the new acks."""
        self._update_hypotheses(now, acks)

    def _update_hypotheses(self, now: float, acks: Iterable[AckObservation]) -> None:
        """The reference update over ``_hypotheses``.

        Apart from :meth:`update` so that an array belief that has handed
        its last row over can run it without entering :meth:`update` twice:
        a wake-up is one ``update`` call, whichever kernel serves it.
        """
        acks = list(acks)
        self.acked_seqs.update(ack.seq for ack in acks)

        candidates: list[Hypothesis] = []
        candidate_weights: list[float] = []
        fallback: list[Hypothesis] = []
        fallback_weights: list[float] = []

        hook = self.stage_hook
        parents: list[int] = []
        probabilities: list[float] = []
        branch_signatures: list[tuple] = []
        log_likelihoods: list[float] = []

        for parent_index, (hypothesis, weight) in enumerate(
            zip(self._hypotheses, self._weights)
        ):
            for branch, branch_probability in hypothesis.evolve(now):
                if branch_probability <= 0.0:
                    continue
                prior_weight = weight * branch_probability
                fallback.append(branch)
                fallback_weights.append(prior_weight)
                if hook is not None:
                    # Signatures must be captured before scoring: score()
                    # charges losses into the signature's lost-seq set.
                    parents.append(parent_index)
                    probabilities.append(branch_probability)
                    branch_signatures.append(branch.signature())
                log_likelihood = branch.score(
                    acks,
                    now,
                    self.kernel,
                    self.acked_seqs,
                    missing_grace=self.missing_grace,
                )
                if hook is not None:
                    log_likelihoods.append(log_likelihood)
                if log_likelihood == float("-inf"):
                    continue
                candidates.append(branch)
                candidate_weights.append(prior_weight * math.exp(log_likelihood))

        if hook is not None:
            hook("fork", {"parents": parents, "probabilities": probabilities})
            hook("advance", {"time": now, "signatures": branch_signatures})
            hook("score", {"log_likelihoods": log_likelihoods})

        if self._all_rejected(sum(candidate_weights), now, len(acks)):
            candidates, candidate_weights = fallback, fallback_weights

        candidates, candidate_weights = self._compact(candidates, candidate_weights)
        if hook is not None:
            hook("compact", {"count": len(candidates), "weights": list(candidate_weights)})
        candidates, candidate_weights = self._prune(candidates, candidate_weights)
        if hook is not None:
            hook("prune", {"count": len(candidates), "weights": list(candidate_weights)})
        self._hypotheses = candidates
        self._weights = self._normalize(candidate_weights)
        if hook is not None:
            hook(
                "posterior",
                {
                    "weights": list(self._weights),
                    "signatures": [h.signature() for h in self._hypotheses],
                },
            )
        if self.cross_tally_window is not None:
            # Bound per-model cross-tally history so long runs stay flat in
            # memory (clones copy these lists on every gate fork).
            cutoff = now - self.cross_tally_window
            for hypothesis in self._hypotheses:
                hypothesis.model.cross.trim(cutoff)

    # ----------------------------------------------------------------- helpers

    def _all_rejected(self, candidate_total: float, now: float, ack_count: int) -> bool:
        """Count an applied update; say whether the observation rejected every
        hypothesis (the surviving weights sum to ``candidate_total``).

        The one degenerate rule for both engines: such an update is counted
        in :attr:`degenerate_updates` and raises under
        ``on_degenerate="raise"``; otherwise the caller keeps the forked,
        unscored weights — the observation is ignored.
        """
        self.updates_applied += 1
        if not candidate_total <= 0.0:
            return False
        self.degenerate_updates += 1
        if self.on_degenerate == "raise":
            raise DegenerateBeliefError(
                f"every hypothesis was rejected at t={now:.3f} "
                f"({ack_count} acknowledgements in the update)"
            )
        return True

    def _compact(
        self, hypotheses: list[Hypothesis], weights: list[float]
    ) -> tuple[list[Hypothesis], list[float]]:
        """Merge hypotheses whose latent states have become identical (§3.2).

        Fewer than two cannot merge, so no signature is built for them.
        """
        if len(hypotheses) < 2:
            return hypotheses, weights
        merged: dict[tuple, int] = {}
        kept: list[Hypothesis] = []
        kept_weights: list[float] = []
        for hypothesis, weight in zip(hypotheses, weights):
            key = hypothesis.signature()
            if key in merged:
                kept_weights[merged[key]] += weight
                self.compacted_away += 1
            else:
                merged[key] = len(kept)
                kept.append(hypothesis)
                kept_weights.append(weight)
        return kept, kept_weights

    def _prune(
        self, hypotheses: list[Hypothesis], weights: list[float]
    ) -> tuple[list[Hypothesis], list[float]]:
        """Drop negligible-weight hypotheses and enforce the ensemble cap."""
        if not hypotheses:
            return hypotheses, weights
        heaviest = max(weights)
        threshold = heaviest * self.prune_fraction
        survivors = [
            (hypothesis, weight)
            for hypothesis, weight in zip(hypotheses, weights)
            if weight >= threshold
        ]
        survivors.sort(key=lambda pair: pair[1], reverse=True)
        survivors = survivors[: self.max_hypotheses]
        kept = [hypothesis for hypothesis, _ in survivors]
        kept_weights = [weight for _, weight in survivors]
        return kept, kept_weights

    @staticmethod
    def _normalize(weights: list[float]) -> list[float]:
        total = sum(weights)
        if total <= 0.0:
            raise InferenceError("cannot normalize an all-zero weight vector")
        return [weight / total for weight in weights]

