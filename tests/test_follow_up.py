"""A wake-up that sends plans its follow-up in the same kernel call.

After a send the sender decides again at the same instant, on a belief that
differs only by that packet.  A live planner on the array engine values
both decisions in one ``batched_rollout_rows`` call — the top-k rows as they
are and as the send leaves them — and hands the second back as the first
decision's ``follow_up``.  Pinned here:

* the follow-up is exact: equal, as floats, to ``decide`` on a copy of the
  belief after the real ``record_send``, on seeded Figure-3 beliefs and on
  hand-built link states (idle, busy with room, a full buffer that drops
  the packet, a standing queue), and the first decision is the plain one;
* the kernel takes one horizon per row, and a lane reads only its own;
* the sender uses the follow-up and nothing else changes, while a policy,
  a shared planner and the scalar engine still plan once per decision.
"""

from __future__ import annotations

import copy
import random

import numpy as np
import pytest

from repro.api import SenderConfig, build_components, build_sender
from repro.core import (
    AlphaWeightedUtility,
    ExpectedUtilityPlanner,
    ISender,
    LatencyPenaltyUtility,
)
from repro.core.policy import PolicyCache, SharedPlanner
from repro.errors import InferenceError
from repro.inference import (
    AckObservation,
    BeliefState,
    GaussianKernel,
    Hypothesis,
    figure3_prior,
)
from repro.inference.vectorized import VectorizedBeliefState, batched_rollout_rows
from repro.inference.vectorized import rollout as rollout_module
from repro.topology import figure2_network

from test_inference_vectorized import contention_prior, replay, settling_script

PACKET_BITS = 12_000.0
SMALL_FIGURE3 = dict(
    link_rate_points=3, cross_fraction_points=2, loss_points=2, buffer_points=2, fill_points=1
)


def planner(utility=None, horizon=None, top_k=8, backend="vectorized"):
    return ExpectedUtilityPlanner(
        utility if utility is not None else AlphaWeightedUtility(discount_timescale=20.0),
        packet_bits=PACKET_BITS,
        horizon=horizon,
        top_k=top_k,
        rollout_backend=backend,
    )


def assert_same_decision(decision, reference):
    assert decision.action == reference.action
    assert decision.expected_utilities == reference.expected_utilities
    assert decision.horizon == reference.horizon
    assert decision.hypotheses_evaluated == reference.hypotheses_evaluated


def assert_follow_up_exact(belief, now, seq, **planner_options):
    """The follow-up against a fresh plan after the real send; the first
    decision against a plain one; the live belief untouched."""
    before = copy.deepcopy(belief)
    decision = planner(**planner_options).decide(belief, now, follow_up_bits=PACKET_BITS)
    plain = planner(**planner_options).decide(belief, now)
    assert plain.follow_up is None
    assert_same_decision(decision, plain)
    assert belief.plan_key(64) == before.plan_key(64)
    assert belief.weights == before.weights

    after = copy.deepcopy(belief)
    after.record_send(seq, PACKET_BITS, now)
    fresh = planner(**planner_options).decide(after, now)
    follow_up = decision.follow_up
    assert follow_up is not None and follow_up.follow_up is None
    assert_same_decision(follow_up, fresh)
    return decision


def ack(seq, at):
    return AckObservation(seq=seq, received_at=at, ack_at=at)


def figure3_belief(backend, updates, rng):
    """A Figure-3 prior's belief after ``updates`` send/ack rounds."""
    belief = BeliefState.from_prior(
        figure3_prior(**SMALL_FIGURE3), backend=backend, kernel=GaussianKernel(sigma=0.25)
    )
    now = 0.0
    for seq in range(updates):
        belief.record_send(seq, PACKET_BITS, now)
        now += rng.uniform(0.3, 1.5)
        belief.update(now, [ack(seq - 1, now - rng.uniform(0.0, 0.3))] if seq else [])
    return belief, now, updates


def hand_built_belief(case):
    """One array belief over links in a chosen state, sends at t = 0."""
    params = {"link_rate_bps": 12_000.0, "buffer_capacity_bits": 96_000.0}
    sends, now = 0, 0.0
    if case == "idle":
        params["cross_rate_pps"] = 0.4
        params["cross_initially_on"] = False
    elif case == "busy_with_room":
        sends, now = 2, 0.4
    elif case == "full_buffer":
        params["buffer_capacity_bits"] = 24_000.0
        sends = 3
    elif case == "standing_queue":
        params["cross_rate_pps"] = 0.5
        sends, now = 12, 2.5
    hypotheses = []
    for rate in (10_000.0, 12_000.0, 15_000.0):
        hypothesis = Hypothesis.from_params({**params, "link_rate_bps": rate})
        for seq in range(sends):
            hypothesis.record_send(seq, PACKET_BITS, 0.0)
        hypotheses.append(hypothesis)
    belief = VectorizedBeliefState(hypotheses, [0.5, 0.3, 0.2])
    return belief, now, sends


class TestTheFollowUpIsExact:
    @pytest.mark.parametrize("backend", ["vectorized", "fused"])
    @pytest.mark.parametrize("updates", [0, 3, 9])
    @pytest.mark.parametrize("draw", [1, 2])
    def test_seeded_figure3_beliefs(self, backend, updates, draw):
        belief, now, seq = figure3_belief(backend, updates, random.Random(draw))
        assert belief.state is not None
        assert_follow_up_exact(belief, now, seq)
        assert_follow_up_exact(belief, now, seq, utility=LatencyPenaltyUtility(), top_k=16)

    def test_a_settled_list_form_belief(self):
        belief = BeliefState.from_prior(
            contention_prior(), backend="vectorized", kernel=GaussianKernel(sigma=0.15)
        )
        script = settling_script()
        replay(belief, script)
        assert belief.state is None
        assert_follow_up_exact(belief, script[-1][1][0], 99)

    @pytest.mark.parametrize(
        "case", ["idle", "busy_with_room", "full_buffer", "standing_queue"]
    )
    @pytest.mark.parametrize("horizon", [None, 3.0])
    def test_hand_built_link_states(self, case, horizon):
        belief, now, seq = hand_built_belief(case)
        state = belief.state
        if case == "idle":
            assert not state.svc_active.any()
        elif case == "full_buffer":
            assert (state.queue_bits + PACKET_BITS > state.buffer_cap).all()
        else:
            assert state.svc_active.all() and (state.q_len >= 1).all()
        for utility in (AlphaWeightedUtility(discount_timescale=20.0), LatencyPenaltyUtility()):
            assert_follow_up_exact(belief, now, seq, utility=utility, horizon=horizon)

    def test_the_scalar_engine_plans_no_follow_up(self):
        belief, now, _ = hand_built_belief("busy_with_room")
        decision = planner(backend="scalar").decide(belief, now, follow_up_bits=PACKET_BITS)
        assert decision.follow_up is None

    def test_rollouts_performed_counts_the_follow_up_lanes(self):
        belief, now, _ = hand_built_belief("standing_queue")
        live = planner()
        decision = live.decide(belief, now, follow_up_bits=PACKET_BITS)
        lanes = len(decision.expected_utilities) * decision.hypotheses_evaluated
        assert live.rollouts_performed == 2 * lanes
        live.decide(belief, now)
        assert live.rollouts_performed == 3 * lanes


class TestPerRowHorizon:
    @staticmethod
    def state():
        belief, _, _ = hand_built_belief("standing_queue")
        return belief.state

    def test_two_horizons_in_one_call_equal_two_calls(self):
        state = self.state()
        rows = np.arange(state.size)
        delays = (0.0, 0.6, 2.0, 9.0)
        k = rows.size
        kwargs = dict(packet_bits=PACKET_BITS, now=2.5)
        both = batched_rollout_rows(
            state, np.concatenate([rows, rows]), delays, [3.0] * k + [7.5] * k, **kwargs
        )
        for index, horizon in enumerate((3.0, 7.5)):
            alone = batched_rollout_rows(state, rows, delays, horizon, **kwargs)
            for action in range(len(delays)):
                for row in range(k):
                    lane = alone.lane_outcome(action * k + row)
                    assert lane.horizon == horizon
                    assert both.lane_outcome(action * 2 * k + index * k + row) == lane

    def test_latency_penalty_reads_each_lanes_horizon(self):
        state = self.state()
        rows = np.arange(state.size)
        outcome = batched_rollout_rows(
            state, rows, (0.0, 1.0, 6.0), [2.0, 5.0, 11.0], PACKET_BITS, 2.5
        )
        utility = LatencyPenaltyUtility(latency_penalty=0.3)
        batch = utility.evaluate_batch(outcome)
        for lane in range(outcome.lanes):
            assert batch[lane] == pytest.approx(
                utility.evaluate(outcome.lane_outcome(lane)), rel=1e-9, abs=1e-9
            )

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_a_non_finite_row_horizon_is_refused(self, value):
        state = self.state()
        with pytest.raises(InferenceError, match="finite"):
            batched_rollout_rows(
                state, np.arange(state.size), (0.0,), [4.0, value, 4.0], PACKET_BITS, 2.5
            )

    def test_one_horizon_per_row(self):
        state = self.state()
        with pytest.raises(InferenceError, match="one horizon per row"):
            batched_rollout_rows(state, np.arange(state.size), (0.0,), [4.0, 4.0], PACKET_BITS, 2.5)


def figure3_network():
    return figure2_network(
        link_rate_bps=12_000.0,
        cross_fraction=0.7,
        loss_rate=0.2,
        buffer_capacity_bits=96_000.0,
        packet_bits=PACKET_BITS,
        switch_interval=10.0,
        seed=1,
    )


def figure3_config(**config):
    settings = dict(
        alpha=2.5,
        packet_bits=PACKET_BITS,
        belief_backend="fused",
        rollout_backend="fused",
    )
    settings.update(config)
    return SenderConfig(**settings)


def figure3_sender(network, **config):
    return build_sender(figure3_config(**config), network, prior=figure3_prior(**SMALL_FIGURE3))


class WakeCounter:
    """Per wake-up: packets sent, and calls into each spied function."""

    def __init__(self, monkeypatch, targets):
        self.wakes: list[dict] = []
        self.calls = {name: 0 for _, name in targets}
        for owner, name in targets:
            monkeypatch.setattr(owner, name, self._spy(name, getattr(owner, name)))
        wake = ISender._wake

        def counted_wake(sender):
            calls, sent = dict(self.calls), sender.packets_sent
            wake(sender)
            row = {name: self.calls[name] - calls[name] for name in self.calls}
            row["sent"] = sender.packets_sent - sent
            self.wakes.append(row)

        monkeypatch.setattr(ISender, "_wake", counted_wake)

    def _spy(self, name, original):
        def spy(*args, **kwargs):
            self.calls[name] += 1
            return original(*args, **kwargs)

        return spy

    def sending_once(self):
        return [row for row in self.wakes if row["sent"] == 1]


class TestTheSenderUsesTheFollowUp:
    def test_a_wake_that_sends_once_runs_the_kernel_once(self, monkeypatch):
        counter = WakeCounter(
            monkeypatch,
            [(rollout_module, "batched_rollout_rows"), (ExpectedUtilityPlanner, "decide")],
        )
        network = figure3_network()
        figure3_sender(network)
        network.network.run(until=20.0)
        once = counter.sending_once()
        assert len(once) >= 5
        assert all(row["batched_rollout_rows"] == 1 for row in once)
        assert all(row["decide"] == 1 for row in once)

    @pytest.mark.parametrize("alpha", [0.9, 5.0])
    def test_bypassing_the_follow_up_changes_no_packet(self, monkeypatch, alpha):
        # The sender keeps no per-send log: record each send's instant.
        sends: list[float] = []
        transmit = ISender._transmit

        def recorded(self, now: float) -> None:
            sends.append(now)
            transmit(self, now)

        monkeypatch.setattr(ISender, "_transmit", recorded)

        def run():
            sends.clear()
            network = figure3_network()
            sender = figure3_sender(network, alpha=alpha)
            network.network.run(until=30.0)
            return sender, list(sends)

        used, used_sends = run()
        decide = ExpectedUtilityPlanner.decide
        monkeypatch.setattr(
            ExpectedUtilityPlanner,
            "decide",
            lambda self, belief, now, follow_up_bits=None: decide(self, belief, now),
        )
        bypassed, bypassed_sends = run()
        assert used.packets_sent > 10
        assert used_sends == bypassed_sends
        assert used.ack_seqs == bypassed.ack_seqs
        assert used.ack_times == bypassed.ack_times
        assert used.planner.rollouts_performed != bypassed.planner.rollouts_performed

    @pytest.mark.parametrize("decider", ["cache", "shared", "scalar"])
    def test_other_deciders_still_plan_after_every_send(self, monkeypatch, decider):
        network = figure3_network()
        if decider == "cache":
            target = (PolicyCache, "decide")
            figure3_sender(network, policy="cache")
        elif decider == "scalar":
            target = (ExpectedUtilityPlanner, "decide")
            figure3_sender(network, belief_backend="scalar", rollout_backend="scalar")
        else:
            target = (SharedPlanner, "decide")
            config = figure3_config()
            parts = build_components(
                config,
                figure3_prior(**SMALL_FIGURE3),
                planner=SharedPlanner(config.build_planner()),
            )
            sender = ISender(
                parts.belief,
                parts.planner,
                network.sender_receiver,
                flow=network.sender_flow,
                packet_bits=PACKET_BITS,
            )
            sender.connect(network.entry)
            network.network.add(sender)
        counter = WakeCounter(monkeypatch, [target])
        network.network.run(until=20.0)
        once = counter.sending_once()
        assert once
        assert all(row[target[1]] == 2 for row in once)
