"""Tests for hypotheses (fork/score/rollout) and the belief state update."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InferenceError
from repro.inference import (
    AckObservation,
    BeliefState,
    ExactMatchKernel,
    GaussianKernel,
    Hypothesis,
    single_link_prior,
)
from repro.inference.belief import CROSS_TALLY_WINDOW
from repro.inference.linkmodel import LinkModel, LinkModelParams


def make_hypothesis(link_rate=12_000.0, loss_rate=0.0, cross_rate_pps=0.0, mtts=None, **extra):
    params = {
        "link_rate_bps": link_rate,
        "buffer_capacity_bits": 96_000.0,
        "loss_rate": loss_rate,
        "cross_rate_pps": cross_rate_pps,
    }
    if mtts is not None:
        params["mean_time_to_switch"] = mtts
    params.update(extra)
    return Hypothesis.from_params(params)


class TestHypothesisEvolve:
    def test_no_cross_traffic_never_forks(self):
        hypothesis = make_hypothesis()
        branches = hypothesis.evolve(10.0)
        assert len(branches) == 1
        assert branches[0][1] == pytest.approx(1.0)
        assert hypothesis.model.time == pytest.approx(10.0)

    def test_memoryless_gate_forks_two_branches(self):
        hypothesis = make_hypothesis(cross_rate_pps=0.7, mtts=100.0)
        branches = hypothesis.evolve(10.0)
        assert len(branches) == 2
        probabilities = [probability for _, probability in branches]
        assert sum(probabilities) == pytest.approx(1.0)
        expected_switch = 1.0 - math.exp(-10.0 / 100.0)
        assert probabilities[1] == pytest.approx(expected_switch)
        gate_states = {branch.model.gate_on for branch, _ in branches}
        assert gate_states == {True, False}

    def test_zero_interval_is_identity(self):
        hypothesis = make_hypothesis(cross_rate_pps=0.7, mtts=100.0)
        branches = hypothesis.evolve(0.0)
        assert len(branches) == 1
        assert branches[0][0] is hypothesis


class TestHypothesisScore:
    def test_exact_ack_matches(self):
        hypothesis = make_hypothesis()
        hypothesis.record_send(0, 12_000, 0.0)
        hypothesis.evolve(2.0)
        ack = AckObservation(seq=0, received_at=1.0, ack_at=1.0)
        log_weight = hypothesis.score([ack], 2.0, ExactMatchKernel(), {0})
        assert log_weight == pytest.approx(0.0)

    def test_wrong_timing_rejected_by_exact_kernel(self):
        hypothesis = make_hypothesis(link_rate=6_000.0)  # service time 2 s, not 1 s
        hypothesis.record_send(0, 12_000, 0.0)
        hypothesis.evolve(3.0)
        ack = AckObservation(seq=0, received_at=1.0, ack_at=1.0)
        log_weight = hypothesis.score([ack], 3.0, ExactMatchKernel(), {0})
        assert log_weight == float("-inf")

    def test_gaussian_kernel_grades_timing_error(self):
        hypothesis = make_hypothesis(link_rate=11_000.0)
        hypothesis.record_send(0, 12_000, 0.0)
        hypothesis.evolve(3.0)
        ack = AckObservation(seq=0, received_at=1.0, ack_at=1.0)
        log_weight = hypothesis.score([ack], 3.0, GaussianKernel(sigma=0.25), {0})
        assert float("-inf") < log_weight < 0.0

    def test_missing_ack_explained_by_loss(self):
        hypothesis = make_hypothesis(loss_rate=0.2)
        hypothesis.record_send(0, 12_000, 0.0)
        hypothesis.evolve(5.0)
        log_weight = hypothesis.score([], 5.0, ExactMatchKernel(), set())
        assert log_weight == pytest.approx(math.log(0.2))

    def test_missing_ack_without_loss_rejects(self):
        hypothesis = make_hypothesis(loss_rate=0.0)
        hypothesis.record_send(0, 12_000, 0.0)
        hypothesis.evolve(5.0)
        log_weight = hypothesis.score([], 5.0, ExactMatchKernel(), set())
        assert log_weight == float("-inf")

    def test_ack_after_charged_as_lost_rejects(self):
        hypothesis = make_hypothesis(loss_rate=0.2)
        hypothesis.record_send(0, 12_000, 0.0)
        hypothesis.evolve(5.0)
        hypothesis.score([], 5.0, ExactMatchKernel(), set())
        late_ack = AckObservation(seq=0, received_at=1.0, ack_at=6.0)
        assert hypothesis.score([late_ack], 6.0, ExactMatchKernel(), {0}) == float("-inf")

    def test_ack_for_predicted_drop_rejects(self):
        hypothesis = make_hypothesis(buffer_capacity_bits=12_000.0)
        for seq in range(4):
            hypothesis.record_send(seq, 12_000, 0.0)
        hypothesis.evolve(10.0)
        dropped_seq = next(
            seq for seq, pred in hypothesis.model.predictions.items() if not pred.delivered
        )
        ack = AckObservation(seq=dropped_seq, received_at=5.0, ack_at=5.0)
        assert hypothesis.score([ack], 10.0, GaussianKernel(sigma=1.0), {dropped_seq}) == float("-inf")

    def test_ack_with_loss_survival_factor(self):
        hypothesis = make_hypothesis(loss_rate=0.2)
        hypothesis.record_send(0, 12_000, 0.0)
        hypothesis.evolve(2.0)
        ack = AckObservation(seq=0, received_at=1.0, ack_at=1.0)
        log_weight = hypothesis.score([ack], 2.0, ExactMatchKernel(), {0})
        assert log_weight == pytest.approx(math.log(0.8))

    def test_ack_for_packet_still_in_flight_uses_projection(self):
        hypothesis = make_hypothesis(link_rate=11_500.0)
        hypothesis.record_send(0, 12_000, 0.0)
        hypothesis.evolve(0.9)  # the model has not delivered the packet yet
        ack = AckObservation(seq=0, received_at=0.9, ack_at=0.9)
        log_weight = hypothesis.score([ack], 0.9, GaussianKernel(sigma=0.3), {0})
        assert float("-inf") < log_weight <= 0.0

    def test_unknown_seq_rejects(self):
        hypothesis = make_hypothesis()
        ack = AckObservation(seq=42, received_at=1.0, ack_at=1.0)
        assert hypothesis.score([ack], 2.0, GaussianKernel(sigma=0.3), {42}) == float("-inf")


class TestHypothesisRollout:
    def test_rollout_reports_hypothetical_delivery(self):
        hypothesis = make_hypothesis()
        outcome = hypothesis.rollout(action_delay=0.0, horizon=5.0, packet_bits=12_000)
        assert outcome.hypothetical_delivered
        assert outcome.hypothetical_delivery_time == pytest.approx(1.0)
        assert outcome.own_deliveries

    def test_rollout_with_delay_shifts_delivery(self):
        hypothesis = make_hypothesis()
        outcome = hypothesis.rollout(action_delay=2.0, horizon=6.0, packet_bits=12_000)
        assert outcome.hypothetical_delivery_time == pytest.approx(3.0)

    def test_rollout_does_not_mutate_hypothesis(self):
        hypothesis = make_hypothesis()
        hypothesis.rollout(action_delay=0.0, horizon=5.0, packet_bits=12_000)
        assert hypothesis.model.time == pytest.approx(0.0)
        assert hypothesis.model.predictions == {}

    def test_rollout_counts_cross_traffic(self):
        hypothesis = make_hypothesis(cross_rate_pps=0.5, mtts=1000.0)
        outcome = hypothesis.rollout(action_delay=0.0, horizon=10.0, packet_bits=12_000)
        assert len(outcome.cross_deliveries) >= 4

    def test_rollout_without_sending(self):
        hypothesis = make_hypothesis()
        outcome = hypothesis.rollout(
            action_delay=0.0, horizon=5.0, packet_bits=12_000, send_packet=False
        )
        assert not outcome.hypothetical_delivered
        assert outcome.own_deliveries == []


class TestBeliefState:
    def make_belief(self, **kwargs):
        prior = single_link_prior(
            link_rate_low=8_000.0, link_rate_high=16_000.0, link_rate_points=5, fill_points=1
        )
        return BeliefState.from_prior(prior, **kwargs)

    def test_from_prior_sizes_and_normalization(self):
        belief = self.make_belief()
        assert len(belief) == 5
        assert sum(belief.weights) == pytest.approx(1.0)

    def test_requires_hypotheses(self):
        with pytest.raises(InferenceError):
            BeliefState([])

    def test_rejects_mismatched_weights(self):
        hypothesis = make_hypothesis()
        with pytest.raises(InferenceError):
            BeliefState([hypothesis], weights=[0.5, 0.5])

    def test_update_concentrates_on_true_rate(self):
        belief = self.make_belief(kernel=ExactMatchKernel(tolerance=1e-6))
        belief.record_send(0, 12_000, 0.0)
        belief.update(1.0, [AckObservation(seq=0, received_at=1.0, ack_at=1.0)])
        marginal = belief.posterior_marginal("link_rate_bps")
        assert marginal[12_000.0] == pytest.approx(1.0)
        assert belief.map_estimate().params["link_rate_bps"] == pytest.approx(12_000.0)

    def test_posterior_mean_between_support_points(self):
        belief = self.make_belief(kernel=GaussianKernel(sigma=0.5))
        belief.record_send(0, 12_000, 0.0)
        belief.update(1.05, [AckObservation(seq=0, received_at=1.05, ack_at=1.05)])
        mean = belief.posterior_mean("link_rate_bps")
        assert 10_000.0 < mean < 13_000.0

    def test_degenerate_update_keep_policy(self):
        belief = self.make_belief(kernel=ExactMatchKernel(tolerance=1e-6))
        belief.record_send(0, 12_000, 0.0)
        # An acknowledgement far earlier than any hypothesis can explain.
        belief.update(0.2, [AckObservation(seq=0, received_at=0.2, ack_at=0.2)])
        assert belief.degenerate_updates == 1
        assert len(belief) >= 1
        assert sum(belief.weights) == pytest.approx(1.0)

    def test_max_hypotheses_cap_enforced(self):
        prior = single_link_prior(link_rate_points=5, fill_points=3)
        belief = BeliefState.from_prior(prior, max_hypotheses=4)
        belief.update(1.0, [])
        assert len(belief) <= 4

    def test_compaction_merges_identical_forks(self):
        params = {
            "link_rate_bps": 12_000.0,
            "buffer_capacity_bits": 96_000.0,
            "loss_rate": 0.0,
            "cross_rate_pps": 0.7,
            "mean_time_to_switch": 100.0,
        }
        belief = BeliefState(
            [Hypothesis.from_params(params), Hypothesis.from_params(params)],
            kernel=GaussianKernel(sigma=0.5),
        )
        belief.update(1.0, [])
        # Two identical hypotheses forked into (at most) four branches, but
        # identical latent states are merged back together.
        assert belief.compacted_away >= 1

    def test_one_hypothesis_update_builds_no_signature(self, monkeypatch):
        """Fewer than two candidates cannot merge, so compaction must not
        build ``Hypothesis.signature`` — a tuple over the whole queue plus a
        frozenset — to group a list of one: every update of a settled belief."""
        calls = []
        signature = Hypothesis.signature
        monkeypatch.setattr(
            Hypothesis, "signature", lambda self: calls.append(self) or signature(self)
        )
        belief = BeliefState([make_hypothesis()], kernel=GaussianKernel(sigma=0.5))
        belief.record_send(0, 12_000.0, 0.0)
        belief.update(1.5, [AckObservation(seq=0, received_at=1.0, ack_at=1.0)])
        belief.update(3.0, [])
        assert calls == []
        assert len(belief) == 1 and belief.weights == [1.0] and belief.compacted_away == 0

    def test_two_identical_hypotheses_still_merge(self):
        belief = BeliefState(
            [make_hypothesis(), make_hypothesis()], kernel=GaussianKernel(sigma=0.5)
        )
        stages = {}
        belief.stage_hook = stages.__setitem__
        belief.update(1.0, [])
        assert len(belief) == 1 and belief.weights == [1.0] and belief.compacted_away == 1
        assert stages["compact"] == {"count": 1, "weights": [1.0]}

    def test_effective_sample_size_and_entropy(self):
        belief = self.make_belief()
        assert belief.effective_sample_size() == pytest.approx(5.0)
        assert belief.entropy() == pytest.approx(math.log(5.0))
        belief.record_send(0, 12_000, 0.0)
        belief.update(1.0, [AckObservation(seq=0, received_at=1.0, ack_at=1.0)])
        assert belief.effective_sample_size() < 5.0

    def test_top_returns_heaviest_first(self):
        belief = self.make_belief(kernel=GaussianKernel(sigma=0.3))
        belief.record_send(0, 12_000, 0.0)
        belief.update(1.0, [AckObservation(seq=0, received_at=1.0, ack_at=1.0)])
        top = belief.top(3)
        weights = [weight for _, weight in top]
        assert weights == sorted(weights, reverse=True)
        assert top[0][0].params["link_rate_bps"] == pytest.approx(12_000.0)

    def test_posterior_queries_validate_parameter_names(self):
        belief = self.make_belief()
        with pytest.raises(InferenceError):
            belief.posterior_mean("no_such_parameter")
        with pytest.raises(InferenceError):
            belief.posterior_marginal("no_such_parameter")

    @settings(max_examples=20, deadline=None)
    @given(observation_times=st.lists(st.floats(min_value=0.5, max_value=5.0), min_size=1, max_size=5))
    def test_property_weights_stay_normalized(self, observation_times):
        belief = self.make_belief(kernel=GaussianKernel(sigma=1.0))
        now = 0.0
        for index, gap in enumerate(sorted(observation_times)):
            now = max(now, gap)
            belief.update(now, [])
            assert sum(belief.weights) == pytest.approx(1.0)
            assert all(weight >= 0 for weight in belief.weights)


class TestCrossTallyWindow:
    """Belief updates bound each model's cross-tally history (memory flatness)."""

    def run_updates(self, until=120.0):
        belief = BeliefState([make_hypothesis(cross_rate_pps=0.5)])
        now = 0.0
        while now < until:
            now += 5.0
            belief.update(now)
        return belief, now

    def test_default_window_keeps_tallies_bounded(self):
        belief, now = self.run_updates()
        (hypothesis, _weight), = belief.top(1)
        deliveries = hypothesis.model.cross.deliveries
        assert deliveries, "cross traffic should have been delivered"
        assert all(time >= now - CROSS_TALLY_WINDOW for time, _ in deliveries)

    def test_long_run_memory_stays_flat(self):
        belief, _ = self.run_updates(until=300.0)
        (hypothesis, _weight), = belief.top(1)
        # 0.5 packets/s over the 60 s window: ~30 entries, never the full 150.
        assert CROSS_TALLY_WINDOW == 60.0
        assert len(hypothesis.model.cross.deliveries) <= 40
