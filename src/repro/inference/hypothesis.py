"""One candidate network configuration, with forking and scoring.

A :class:`Hypothesis` couples a :class:`~repro.inference.linkmodel.LinkModel`
(one fully specified configuration and its latent state) with the machinery
the belief state needs:

* **evolve** — advance the model to the current time.  If the configuration
  contains a memoryless cross-traffic gate, the hypothesis *forks* into a
  "gate stayed put" branch and a "gate switched" branch, weighted by the
  exponential dwell probability (§3.2: nondeterministic elements fork the
  model).  The switch time is discretized to the midpoint of the interval.
* **score** — compute the log-likelihood of the acknowledgements observed
  since the last wake-up.  Predicted deliveries are compared to observed
  times through a likelihood kernel; missing acknowledgements for packets
  that should have arrived are explained by last-mile stochastic loss.
* **rollout** — simulate the consequences of a candidate action ("send after
  delay d") over a finite horizon and report the outcome that the planner's
  utility function consumes.

The scalar rollout engine lives here too: :func:`select_hypotheses` and
:func:`value_hypotheses`, the two functions the planner calls when built
with ``rollout_backend="scalar"`` (the array engine's pair is in
:mod:`repro.inference.vectorized.rollout`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Optional

from repro.inference.likelihood import LikelihoodKernel
from repro.inference.linkmodel import LinkModel, LinkModelParams
from repro.inference.observation import AckObservation
from repro.inference.parameters import assignment_digest

#: Sequence number used for the hypothetical packet injected by rollouts.
HYPOTHETICAL_SEQ = -1_000_000


@dataclass(slots=True)
class RolloutOutcome:
    """What a rollout predicts will happen if the sender takes an action.

    All lists hold ``(time, bits, survival_probability)`` tuples; drops carry
    a survival probability of zero by construction but keep the same shape so
    utility functions can treat the lists uniformly.
    """

    decision_time: float
    action_delay: float
    horizon: float
    own_deliveries: list[tuple[float, float, float]] = field(default_factory=list)
    own_drops: list[tuple[float, float]] = field(default_factory=list)
    cross_deliveries: list[tuple[float, float, float]] = field(default_factory=list)
    cross_drops: list[tuple[float, float]] = field(default_factory=list)
    hypothetical_delivered: bool = False
    hypothetical_delivery_time: Optional[float] = None
    final_queue_bits: float = 0.0
    final_cross_backlog_bits: float = 0.0


def rollout_outcome_digest(outcome: RolloutOutcome) -> dict:
    """A canonical, comparable summary of one rollout lane's outcome.

    Both rollout engines report digests in the same lane order
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


class Hypothesis:
    """A weighted candidate configuration of the network."""

    __slots__ = ("params", "params_digest", "model", "_resolved", "_lost_seqs")

    def __init__(
        self,
        params: Mapping[str, float],
        model: LinkModel,
        params_digest: Optional[str] = None,
    ) -> None:
        #: The parameter assignment this hypothesis was built from.
        self.params = dict(params)
        #: Its :func:`~repro.inference.parameters.assignment_digest`, the
        #: name a decision signature row gives it (a clone passes its own).
        self.params_digest = (
            params_digest if params_digest is not None else assignment_digest(self.params)
        )
        #: The forward model holding the latent state.
        self.model = model
        self._resolved: set[int] = set()
        self._lost_seqs: set[int] = set()

    # ------------------------------------------------------------------ clone

    def clone(self) -> "Hypothesis":
        """Deep-enough copy: the model is cloned, bookkeeping sets are copied."""
        duplicate = Hypothesis(self.params, self.model.clone(), self.params_digest)
        duplicate._resolved = set(self._resolved)
        duplicate._lost_seqs = set(self._lost_seqs)
        return duplicate

    # ----------------------------------------------------------- state export

    def export_state(self) -> dict:
        """Model latent state plus scoring bookkeeping, in a batchable layout."""
        state = self.model.export_state()
        state["resolved"] = sorted(self._resolved)
        state["lost"] = sorted(self._lost_seqs)
        return state

    @classmethod
    def from_state(
        cls,
        params: Mapping[str, float],
        model_params,
        state: dict,
        params_digest: Optional[str] = None,
    ) -> "Hypothesis":
        """Rebuild a hypothesis from :meth:`export_state` output."""
        hypothesis = cls(params, LinkModel.from_state(model_params, state), params_digest)
        hypothesis._resolved = set(state["resolved"])
        hypothesis._lost_seqs = set(state["lost"])
        return hypothesis

    # ---------------------------------------------------------------- sending

    def record_send(self, seq: int, size_bits: float, time: float) -> None:
        """Tell the hypothesis that the sender transmitted packet ``seq``."""
        self.model.send_own(seq, size_bits, time)

    # ----------------------------------------------------------------- evolve

    def evolve(self, until: float) -> list[tuple["Hypothesis", float]]:
        """Advance to ``until``; fork on the latent cross-traffic gate.

        Returns a list of ``(hypothesis, branch_probability)`` pairs.  The
        receiving object itself carries the "no switch" branch; forked
        branches are clones.
        """
        interval = until - self.model.time
        if interval <= 1e-12:
            return [(self, 1.0)]
        mtts = self.model.params.mean_time_to_switch
        if mtts is None or not self.model.params.has_cross_traffic:
            self.model.advance(until)
            return [(self, 1.0)]

        switch_probability = 1.0 - math.exp(-interval / mtts)
        stay_probability = 1.0 - switch_probability

        switched = self.clone()
        midpoint = self.model.time + interval / 2.0
        switched.model.advance(midpoint)
        switched.model.set_gate(not switched.model.gate_on, midpoint)
        switched.model.advance(until)

        self.model.advance(until)
        return [(self, stay_probability), (switched, switch_probability)]

    # ------------------------------------------------------------------ score

    def score(
        self,
        acks: Iterable[AckObservation],
        now: float,
        kernel: LikelihoodKernel,
        acked_seqs: set[int],
        missing_grace: float = 0.0,
    ) -> float:
        """Log-likelihood of the newly observed acknowledgements.

        Parameters
        ----------
        acks:
            Acknowledgements that arrived since the previous update.
        now:
            Current time (the update time).
        kernel:
            Timing-error likelihood kernel.
        acked_seqs:
            Every sequence number acknowledged so far (including ``acks``).
        missing_grace:
            Extra seconds to wait past a predicted delivery before concluding
            the packet was lost, absorbing small timing error.
        """
        log_likelihood = 0.0
        loss_rate = self.model.params.loss_rate

        for ack in acks:
            if ack.seq in self._lost_seqs:
                # We already charged this packet as lost; an acknowledgement
                # arriving later contradicts this hypothesis outright.
                return float("-inf")
            prediction = self.model.predictions.get(ack.seq)
            if prediction is None:
                projected = self.model.projected_delivery(ack.seq)
                if projected is None:
                    return float("-inf")
                error = projected - ack.received_at
                survival = 1.0 - loss_rate
            elif not prediction.delivered:
                return float("-inf")
            else:
                error = prediction.time - ack.received_at
                survival = prediction.survival
            contribution = kernel.log_weight(error)
            if contribution == float("-inf"):
                return float("-inf")
            log_likelihood += contribution
            if survival < 1.0:
                log_likelihood += math.log(survival) if survival > 0.0 else float("-inf")
            self._resolved.add(ack.seq)

        # Packets the model says should have been delivered by now but were
        # never acknowledged must have been lost at the last mile.
        for seq, prediction in self.model.predictions.items():
            if seq in self._resolved or seq in acked_seqs:
                continue
            if not prediction.delivered:
                continue
            if prediction.time > now - missing_grace:
                continue
            if loss_rate <= 0.0:
                return float("-inf")
            log_likelihood += math.log(loss_rate)
            self._resolved.add(seq)
            self._lost_seqs.add(seq)

        return log_likelihood

    # -------------------------------------------------------------- signature

    def signature(self) -> tuple:
        """Hashable digest used to compact identical hypotheses."""
        params_key = tuple(sorted(self.params.items()))
        return (params_key, self.model.signature(), frozenset(self._lost_seqs))

    # ---------------------------------------------------------------- rollout

    def rollout(
        self,
        action_delay: float,
        horizon: float,
        packet_bits: float,
        now: Optional[float] = None,
        send_packet: bool = True,
    ) -> RolloutOutcome:
        """Predict the consequences of sending one packet after ``action_delay``.

        The rollout clones the model, injects a hypothetical packet at
        ``now + action_delay`` (unless ``send_packet`` is false, which models
        the pure "stay silent" strategy), and advances to ``now + horizon``
        with the cross-traffic gate frozen in its current state.
        """
        decision_time = self.model.time if now is None else now
        scratch = self.model.clone(keep_history=False)
        if scratch.time < decision_time:
            scratch.advance(decision_time)
        end = decision_time + horizon

        if send_packet:
            send_time = decision_time + action_delay
            scratch.send_own(HYPOTHETICAL_SEQ, packet_bits, send_time)
        # A candidate delay may exceed the horizon (the planner's action grid
        # is built independently of it); never ask the model to run backwards.
        scratch.advance(max(end, scratch.time))

        outcome = RolloutOutcome(
            decision_time=decision_time,
            action_delay=action_delay,
            horizon=horizon,
            final_queue_bits=scratch.backlog_bits,
            final_cross_backlog_bits=scratch.cross_backlog_bits(),
        )
        for seq, prediction in scratch.predictions.items():
            if prediction.delivered:
                entry = (prediction.time, packet_bits, prediction.survival)
                outcome.own_deliveries.append(entry)
                if seq == HYPOTHETICAL_SEQ:
                    outcome.hypothetical_delivered = True
                    outcome.hypothetical_delivery_time = prediction.time
            else:
                outcome.own_drops.append((prediction.time, packet_bits))
        survival = 1.0 - scratch.params.loss_rate
        for time, bits in scratch.cross.deliveries:
            if decision_time <= time < end:
                outcome.cross_deliveries.append((time, bits, survival))
        for time, bits in scratch.cross.drops:
            if decision_time <= time < end:
                outcome.cross_drops.append((time, bits))
        return outcome

    # ------------------------------------------------------------- conversion

    @classmethod
    def from_params(
        cls,
        params: Mapping[str, float],
        start_time: float = 0.0,
        **overrides: float,
    ) -> "Hypothesis":
        """Build a hypothesis whose model is configured directly from ``params``.

        The mapping must contain keys understood by
        :class:`~repro.inference.linkmodel.LinkModelParams`; extra keys are
        kept on the hypothesis (they may drive other aspects of an
        experiment) but ignored by the model
        (:meth:`~repro.inference.linkmodel.LinkModelParams.from_assignment`).
        """
        model_params = LinkModelParams.from_assignment(params, **overrides)
        return cls(params, LinkModel(model_params, start_time=start_time))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Hypothesis(params={self.params}, model={self.model!r})"


# ------------------------------------------------------ scalar rollout engine


def select_hypotheses(belief, count: int, drains: bool) -> tuple:
    """The scalar engine's *select*: the belief's ``count`` top hypotheses.

    Returns ``(weights, link rates, drain times, lanes)`` in top-k order —
    drain times only when ``drains`` is set, else ``None`` — where
    ``lanes`` is the ``(hypothesis, weight)`` list :func:`value_hypotheses`
    rolls out.
    """
    top = belief.top(count)
    weights: list[float] = []
    rates: list[float] = []
    drain_times: Optional[list[float]] = [] if drains else None
    for hypothesis, weight in top:
        weights.append(weight)
        rates.append(hypothesis.model.params.link_rate_bps)
        if drain_times is not None:
            drain_times.append(hypothesis.model.drain_time())
    return weights, rates, drain_times, top


def value_hypotheses(
    top: list[tuple[Hypothesis, float]],
    delays: list[float],
    horizon: float,
    packet_bits: float,
    now: float,
    utility,
    probe: Optional[Callable[[str, object], None]],
) -> list[float]:
    """The scalar engine's *value*, the reference oracle: one model clone
    per (action × hypothesis) lane, action-major, each valued by
    ``utility.evaluate``.  Reports the ``lanes`` and ``rollout`` stages to
    ``probe`` when one is set.
    """
    digests: Optional[list[dict]] = None
    if probe is not None:
        # No lane buffers of its own: packing the top hypotheses gives the
        # snapshot the array engine reports.  Imported here so the
        # probe-free scalar path never loads NumPy.
        from repro.inference.vectorized.state import EnsembleState

        packed = EnsembleState.from_hypotheses([hypothesis for hypothesis, _ in top])
        probe("lanes", packed.lane_checkpoint(range(packed.size)))
        digests = []
    values: list[float] = []
    for delay in delays:
        for hypothesis, _weight in top:
            outcome = hypothesis.rollout(
                action_delay=delay, horizon=horizon, packet_bits=packet_bits, now=now
            )
            values.append(utility.evaluate(outcome))
            if digests is not None:
                digests.append(rollout_outcome_digest(outcome))
    if probe is not None:
        probe("rollout", {"lanes": digests})
    return values
