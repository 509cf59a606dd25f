"""The expected-utility planner (§3.2).

At every wake-up the planner enumerates candidate actions ("send now", or
"sleep for d seconds and then send"), simulates the consequences of each on
the highest-weight hypotheses of the belief state, and chooses the action
whose expected utility — the probability-weighted average over hypotheses —
is largest.  Ties are broken toward the longer delay, so a sender that is
indifferent does not flood the network.

The (action × hypothesis) fan-out has two engines, each a function
``engine(planner, belief, now) -> Decision`` chosen once, by
``rollout_backend``, when the planner is built:

* ``"scalar"`` — :func:`decide_scalar` below, the reference oracle: one
  :meth:`~repro.inference.hypothesis.Hypothesis.rollout` (clone + advance a
  scalar ``LinkModel``) per lane;
* ``"vectorized"`` or ``"fused"`` — ``decide_vectorized`` in
  :mod:`repro.inference.vectorized.rollout`, imported only when a planner
  asks for it: all A×K lanes advance together through one masked event
  frontier, and the utility values every lane at once via
  ``evaluate_batch``.  On an array belief the lanes come straight from
  ``EnsembleState`` rows, so the decide path materializes no scalar
  ``Hypothesis`` objects at all.  The spelling changes nothing that runs,
  but it is part of a point's identity (``SenderConfig.fingerprint()``,
  hence seed and cache key).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.actions import Action, ActionGrid
from repro.core.utility import UtilityFunction
from repro.errors import ConfigurationError
from repro.inference.belief import BeliefState, check_backend
from repro.units import DEFAULT_PACKET_BITS


@dataclass(slots=True)
class Decision:
    """The planner's choice at one wake-up, with diagnostics."""

    action: Action
    expected_utilities: dict[float, float] = field(default_factory=dict)
    hypotheses_evaluated: int = 0
    horizon: float = 0.0

    @property
    def delay(self) -> float:
        """Seconds to wait before transmitting (zero means send now)."""
        return self.action.delay

    @property
    def send_now(self) -> bool:
        """Whether the chosen action is an immediate transmission."""
        return self.action.send_now


@dataclass(slots=True)
class _TopSummary:
    """One pass over the top-k list: weights plus the planner's aggregates.

    ``decide()`` used to walk the top-k hypotheses three times (total
    weight, believed service time, horizon drain); this extracts the raw
    ``(weight, link rate, drain time)`` triples in a single walk — shared
    by both rollout backends — and derives the aggregates with arithmetic
    identical to the original three walks.
    """

    weights: list[float]
    total_weight: float
    service_time: float
    drain: float  # weighted mean drain time; 0.0 when a fixed horizon skips it

    @property
    def count(self) -> int:
        return len(self.weights)


class ExpectedUtilityPlanner:
    """Chooses the action that maximizes expected utility under the belief.

    Parameters
    ----------
    utility:
        The utility function being maximized.
    action_grid:
        Candidate delays, as multiples of the believed packet service time.
    packet_bits:
        Size of the sender's (uniform) packets.
    horizon:
        Rollout horizon in seconds.  ``None`` derives it per decision as
        ``horizon_service_multiples`` believed service times plus the
        believed buffer drain time — an operational version of the paper's
        "until the consequences of the hypothetically sent packet cease to
        linger".
    horizon_service_multiples:
        Used only when ``horizon`` is ``None``.
    top_k:
        Number of highest-weight hypotheses to evaluate (the rest contribute
        negligibly and are skipped for speed).
    rollout_backend:
        ``"scalar"`` (per-lane ``Hypothesis.rollout``, the reference
        oracle), or ``"vectorized"`` / ``"fused"`` (two spellings of the
        one batched array engine).  Resolved at construction, so an unknown
        name raises :class:`~repro.errors.UnknownBackendError` immediately,
        listing the accepted names.
    """

    #: Optional per-stage checkpoint callback ``probe(stage, payload)`` fired
    #: by both rollout engines during a decision (stages ``summary``,
    #: ``lanes``, ``rollout``, ``utility``, ``decision``).  Both engines emit
    #: the same stages in the same lane order (action-major, ``a * k + j``),
    #: which is what :mod:`repro.diagnostics` bisects to localize rollout
    #: drift.  ``None`` (the default) keeps the decide path probe-free.
    decision_probe = None

    def __init__(
        self,
        utility: UtilityFunction,
        action_grid: Optional[ActionGrid] = None,
        packet_bits: float = DEFAULT_PACKET_BITS,
        horizon: Optional[float] = None,
        horizon_service_multiples: float = 12.0,
        top_k: int = 24,
        rollout_backend: str = "scalar",
    ) -> None:
        if packet_bits <= 0:
            raise ConfigurationError(f"packet_bits must be positive, got {packet_bits!r}")
        if top_k < 1:
            raise ConfigurationError(f"top_k must be at least 1, got {top_k!r}")
        if horizon is not None and horizon <= 0:
            raise ConfigurationError(f"horizon must be positive, got {horizon!r}")
        if horizon_service_multiples <= 0:
            raise ConfigurationError("horizon_service_multiples must be positive")
        check_backend("rollout", rollout_backend)
        if rollout_backend == "scalar":
            self._rollout_engine = decide_scalar
        else:
            from repro.inference.vectorized.rollout import decide_vectorized

            self._rollout_engine = decide_vectorized
        self.utility = utility
        self.action_grid = action_grid if action_grid is not None else ActionGrid()
        self.packet_bits = packet_bits
        self.horizon = horizon
        self.horizon_service_multiples = horizon_service_multiples
        self.top_k = top_k
        self.rollout_backend = rollout_backend
        #: Number of rollouts performed so far (for ablation benchmarks).
        self.rollouts_performed = 0

    # -------------------------------------------------------------- decisions

    def decide(self, belief: BeliefState, now: float) -> Decision:
        """Return the utility-maximizing action at time ``now``.

        Dispatches to the rollout engine resolved at construction.
        """
        return self._rollout_engine(self, belief, now)

    # ----------------------------------------------------------------- helpers

    def _summarize_hypotheses(self, top) -> _TopSummary:
        """Single walk over scalar ``(hypothesis, weight)`` pairs."""
        weights: list[float] = []
        rates: list[float] = []
        drains: list[float] | None = [] if self.horizon is None else None
        for hypothesis, weight in top:
            weights.append(weight)
            rates.append(hypothesis.model.params.link_rate_bps)
            if drains is not None:
                drains.append(hypothesis.model.drain_time())
        return self._aggregate(weights, rates, drains)

    def _summarize_rows(self, state, rows, weights: list[float]) -> _TopSummary:
        """Single walk over ensemble rows — no ``Hypothesis`` materialization.

        Uses the same per-row Python-float arithmetic as the scalar walk
        (including ``LinkModel.drain_time``'s formula), so the aggregates
        are bit-identical across belief backends.
        """
        rates = state.link_rate[rows].tolist()
        drains: list[float] | None = None
        if self.horizon is None:
            drains = []
            time = state.time
            queue_bits = state.queue_bits[rows].tolist()
            svc_active = state.svc_active[rows].tolist()
            svc_completion = state.svc_completion[rows].tolist()
            for rate, bits, active, completion in zip(
                rates, queue_bits, svc_active, svc_completion
            ):
                remaining = bits
                if active:
                    remaining += max(0.0, (completion - time) * rate)
                drains.append(remaining / rate)
        return self._aggregate(list(weights), rates, drains)

    def _aggregate(
        self,
        weights: list[float],
        rates: list[float],
        drains: list[float] | None,
    ) -> _TopSummary:
        """Derive the planner aggregates from one extracted walk."""
        total_weight = sum(weights)
        if total_weight <= 0:
            raise ConfigurationError("belief state has no usable hypotheses")
        rate = 0.0
        for weight, link_rate in zip(weights, rates):
            rate += (weight / total_weight) * link_rate
        service_time = self.packet_bits / rate
        drain = 0.0
        if drains is not None:
            for weight, drain_time in zip(weights, drains):
                drain += (weight / total_weight) * drain_time
        return _TopSummary(
            weights=weights,
            total_weight=total_weight,
            service_time=service_time,
            drain=drain,
        )

    def _horizon_from(self, summary: _TopSummary) -> float:
        if self.horizon is not None:
            return self.horizon
        return summary.drain + self.horizon_service_multiples * summary.service_time

    @staticmethod
    def _argmax_prefer_longer_delay(actions: list[Action], expected: dict[float, float]) -> Action:
        best: Optional[Action] = None
        best_value = float("-inf")
        tolerance = 1e-9
        for action in actions:  # actions are sorted by increasing delay
            value = expected[action.delay]
            if value > best_value + tolerance or best is None:
                best = action
                best_value = value
            elif abs(value - best_value) <= tolerance:
                best = action  # prefer the longer delay on ties
        return best


def rollout_outcome_digest(outcome) -> dict:
    """A canonical, comparable summary of one rollout lane's outcome.

    Both rollout engines produce digests in the same lane order
    (action-major), so :mod:`repro.diagnostics` can pinpoint the first
    differing lane of the frontier.
    """
    return {
        "own_deliveries": [tuple(entry) for entry in outcome.own_deliveries],
        "own_drops": [tuple(entry) for entry in outcome.own_drops],
        "cross_deliveries": [tuple(entry) for entry in outcome.cross_deliveries],
        "cross_drops": [tuple(entry) for entry in outcome.cross_drops],
        "hypothetical_delivered": outcome.hypothetical_delivered,
        "hypothetical_delivery_time": outcome.hypothetical_delivery_time,
        "final_queue_bits": outcome.final_queue_bits,
        "final_cross_backlog_bits": outcome.final_cross_backlog_bits,
    }


def decide_scalar(
    planner: ExpectedUtilityPlanner, belief: BeliefState, now: float
) -> Decision:
    """The reference rollout engine: one scalar model clone per lane."""
    top = belief.top(planner.top_k)
    summary = planner._summarize_hypotheses(top)
    actions = planner.action_grid.actions(summary.service_time)
    horizon = planner._horizon_from(summary)
    total_weight = summary.total_weight

    probe = planner.decision_probe
    lane_digests: list[dict] = []
    lane_values: list[float] = []
    if probe is not None:
        probe(
            "summary",
            {
                "service_time": summary.service_time,
                "horizon": horizon,
                "weights": list(summary.weights),
                "actions": [action.delay for action in actions],
            },
        )
        # The scalar engine has no lane buffers of its own; packing the top
        # hypotheses into an ensemble yields the same canonical snapshot the
        # array engine checkpoints.  Imported lazily: NumPy stays optional
        # for the probe-free scalar path.
        from repro.inference.vectorized.state import EnsembleState

        packed = EnsembleState.from_hypotheses([h for h, _ in top])
        probe("lanes", packed.lane_checkpoint(range(packed.size)))

    expected: dict[float, float] = {}
    for action in actions:
        accumulated = 0.0
        for hypothesis, weight in top:
            outcome = hypothesis.rollout(
                action_delay=action.delay,
                horizon=horizon,
                packet_bits=planner.packet_bits,
                now=now,
            )
            planner.rollouts_performed += 1
            value = planner.utility.evaluate(outcome)
            if probe is not None:
                lane_digests.append(rollout_outcome_digest(outcome))
                lane_values.append(value)
            accumulated += (weight / total_weight) * value
        expected[action.delay] = accumulated

    best_action = planner._argmax_prefer_longer_delay(actions, expected)
    if probe is not None:
        probe("rollout", {"lanes": lane_digests})
        probe("utility", {"values": lane_values})
        probe(
            "decision",
            {"expected": dict(expected), "delay": best_action.delay, "horizon": horizon},
        )
    return Decision(
        action=best_action,
        expected_utilities=expected,
        hypotheses_evaluated=summary.count,
        horizon=horizon,
    )
