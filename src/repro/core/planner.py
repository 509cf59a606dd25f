"""The expected-utility planner (§3.2).

At every wake-up the planner enumerates candidate actions ("send now", or
"sleep for d seconds and then send"), simulates the consequences of each on
the highest-weight hypotheses of the belief state, and chooses the action
whose expected utility — the probability-weighted average over hypotheses —
is largest.  Ties are broken toward the longer delay, so a sender that is
indifferent does not flood the network.

:meth:`ExpectedUtilityPlanner.decide` is the one decision body.  The
(action × hypothesis) fan-out is an engine's, chosen once, by
``rollout_backend``, when the planner is built.  An engine is two
functions: *select* returns the top-k weights, link rates and drain times
plus the engine's lane source, and *value* turns that source, the
candidate delays and one horizon per row into one utility per lane,
action-major.  The array engine has a third, *follow*, which stacks the
selected rows with the same rows after one more send, so that one *value*
call plans a decision and its follow-up (see :meth:`decide`):

* ``"scalar"`` — :func:`~repro.inference.hypothesis.select_hypotheses` /
  :func:`~repro.inference.hypothesis.value_hypotheses`, the reference
  oracle: one :meth:`~repro.inference.hypothesis.Hypothesis.rollout` (clone
  + advance a scalar ``LinkModel``) per lane;
* ``"vectorized"`` or ``"fused"`` — ``select_rows`` / ``value_rows`` in
  :mod:`repro.inference.vectorized.rollout`, imported only when a planner
  asks for them: all A×K lanes are decided together by one packet-column
  kernel (one iteration per arrival column, every lane at once), and the
  utility values every lane at once via ``evaluate_batch``; ``follow_rows``
  is its *follow*.  On an array
  belief the lanes come straight from
  ensemble rows, so the decide path materializes no scalar ``Hypothesis``
  objects at all.  The spelling changes nothing that runs, but it is part
  of a point's identity (``SenderConfig.fingerprint()``, hence seed and
  cache key).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from repro.core.actions import Action, candidate_actions
from repro.core.utility import UtilityFunction
from repro.errors import ConfigurationError
from repro.inference.belief import BeliefState, check_backend
from repro.inference.hypothesis import select_hypotheses, value_hypotheses
from repro.units import DEFAULT_PACKET_BITS


@dataclass(slots=True)
class Decision:
    """The planner's choice at one wake-up, with diagnostics.

    ``follow_up`` is the decision at the same instant after one more send,
    when :meth:`ExpectedUtilityPlanner.decide` was asked for it and its
    engine plans one; ``None`` otherwise.
    """

    action: Action
    expected_utilities: dict[float, float] = field(default_factory=dict)
    hypotheses_evaluated: int = 0
    horizon: float = 0.0
    follow_up: Optional["Decision"] = None

    @property
    def delay(self) -> float:
        """Seconds to wait before transmitting (zero means send now)."""
        return self.action.delay

    @property
    def send_now(self) -> bool:
        """Whether the chosen action is an immediate transmission."""
        return self.action.send_now


class ExpectedUtilityPlanner:
    """Chooses the action that maximizes expected utility under the belief.

    Parameters
    ----------
    utility:
        The utility function being maximized, over the delays
        :func:`~repro.core.actions.candidate_actions` lists.
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
    #: during a decision (stages ``summary``, ``lanes``, ``rollout``,
    #: ``utility``, ``decision``).  :meth:`decide` emits ``summary``,
    #: ``utility`` and ``decision``; the engine's *value* emits ``lanes`` and
    #: ``rollout`` from its own buffers, in the same lane order for both
    #: engines (action-major, ``a * k + j``), which is what
    #: :mod:`repro.diagnostics` bisects to localize rollout drift.  ``None``
    #: (the default) keeps the decide path probe-free.
    decision_probe = None

    def __init__(
        self,
        utility: UtilityFunction,
        packet_bits: float = DEFAULT_PACKET_BITS,
        horizon: Optional[float] = None,
        horizon_service_multiples: float = 12.0,
        top_k: int = 24,
        rollout_backend: str = "scalar",
    ) -> None:
        # Each test is written so that NaN fails it, and every upper end is
        # finite: a NaN or infinite horizon never finishes a rollout.
        if not 0.0 < packet_bits < math.inf:
            raise ConfigurationError(
                f"packet_bits must be positive and finite, got {packet_bits!r}"
            )
        if top_k < 1:
            raise ConfigurationError(f"top_k must be at least 1, got {top_k!r}")
        if horizon is not None and not 0.0 < horizon < math.inf:
            raise ConfigurationError(f"horizon must be positive and finite, got {horizon!r}")
        if not 0.0 < horizon_service_multiples < math.inf:
            raise ConfigurationError(
                "horizon_service_multiples must be positive and finite, "
                f"got {horizon_service_multiples!r}"
            )
        check_backend("rollout", rollout_backend)
        if rollout_backend == "scalar":
            self._select, self._value = select_hypotheses, value_hypotheses
            self._follow = None
        else:
            from repro.inference.vectorized.rollout import follow_rows, select_rows, value_rows

            self._select, self._value, self._follow = select_rows, value_rows, follow_rows
        self.utility = utility
        self.packet_bits = packet_bits
        self.horizon = horizon
        self.horizon_service_multiples = horizon_service_multiples
        self.top_k = top_k
        self.rollout_backend = rollout_backend
        #: Number of rollout lanes valued so far (for ablation benchmarks),
        #: a follow-up's lanes included.
        self.rollouts_performed = 0

    # -------------------------------------------------------------- decisions

    def decide(
        self, belief: BeliefState, now: float, follow_up_bits: Optional[float] = None
    ) -> Decision:
        """Return the utility-maximizing action at time ``now``.

        The engine chosen at construction selects the top-k hypotheses and
        values every (action × hypothesis) lane; the aggregation and the
        tie-broken argmax below are the same for both engines.

        ``follow_up_bits`` asks for the decision after one more send too:
        the array engine stacks the top-k rows as they are and as a
        ``follow_up_bits`` packet sent at ``now`` leaves them, values both
        sets in one kernel call, and returns the second decision as the
        first's ``follow_up`` — equal, field for field, to ``decide`` on
        the belief after that send (the send leaves the weights, hence the
        rows, rates and actions, as they were; each set keeps its own
        horizon).  The scalar engine plans one set and returns none.
        """
        weights, rates, drains, lanes = self._select(belief, self.top_k, self.horizon is None)
        total_weight = sum(weights)
        if total_weight <= 0:
            raise ConfigurationError("belief state has no usable hypotheses")
        rate = 0.0
        for weight, link_rate in zip(weights, rates):
            rate += (weight / total_weight) * link_rate
        service_time = self.packet_bits / rate
        horizons = [self._horizon(weights, total_weight, drains, service_time)]
        if follow_up_bits is not None and self._follow is not None:
            lanes, drains = self._follow(lanes, follow_up_bits, now, self.horizon is None)
            horizons.append(self._horizon(weights, total_weight, drains, service_time))
        actions = candidate_actions(service_time)
        delays = [action.delay for action in actions]
        count = len(weights)

        probe = self.decision_probe
        if probe is not None:
            probe(
                "summary",
                {
                    "service_time": service_time,
                    "horizon": horizons[0],
                    "weights": list(weights),
                    "actions": list(delays),
                },
            )
        row_horizons = [horizon for horizon in horizons for _ in range(count)]
        values = self._value(lanes, delays, row_horizons, self.packet_bits, now, self.utility, probe)
        self.rollouts_performed += len(values)
        if probe is not None:
            probe("utility", {"values": [float(value) for value in values]})

        # Lane ``a * lanes_per_action + s * count + j`` is action ``a`` on
        # top-k row ``j`` of row set ``s``.  The last set is decided first,
        # so each decision can carry the one after it as its follow-up.
        lanes_per_action = len(row_horizons)
        decision = None
        for row_set in reversed(range(len(horizons))):
            expected: dict[float, float] = {}
            for index, delay in enumerate(delays):
                accumulated = 0.0
                base = index * lanes_per_action + row_set * count
                for position in range(count):
                    accumulated += (weights[position] / total_weight) * values[base + position]
                expected[delay] = accumulated
            decision = Decision(
                action=self._argmax_prefer_longer_delay(actions, expected),
                expected_utilities=expected,
                hypotheses_evaluated=count,
                horizon=horizons[row_set],
                follow_up=decision,
            )
        if probe is not None:
            probe(
                "decision",
                {
                    "expected": dict(decision.expected_utilities),
                    "delay": decision.delay,
                    "horizon": decision.horizon,
                },
            )
        return decision

    def _horizon(
        self,
        weights: list[float],
        total_weight: float,
        drains: Optional[list[float]],
        service_time: float,
    ) -> float:
        """The fixed horizon, or the weighted drain time plus
        ``horizon_service_multiples`` service times."""
        if self.horizon is not None:
            return self.horizon
        drain = 0.0
        for weight, drain_time in zip(weights, drains):
            drain += (weight / total_weight) * drain_time
        return drain + self.horizon_service_multiples * service_time

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
