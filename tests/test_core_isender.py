"""Integration-style tests for the ISender element (the paper's sender)."""

from __future__ import annotations

import pytest

from repro.core import AlphaWeightedUtility, ExpectedUtilityPlanner, ISender, ThroughputUtility
from repro.core.policy import PolicyCache
from repro.errors import ConfigurationError
from repro.inference import BeliefState, GaussianKernel, single_link_prior
from repro.topology import figure2_network, single_link_network


def build_sender(network, link_points=5, alpha=0.0, stop_time=None, policy_cache=False):
    prior = single_link_prior(
        link_rate_low=8_000.0,
        link_rate_high=16_000.0,
        link_rate_points=link_points,
        fill_points=1,
    )
    belief = BeliefState.from_prior(prior, kernel=GaussianKernel(sigma=0.25))
    planner = ExpectedUtilityPlanner(
        AlphaWeightedUtility(alpha=alpha, discount_timescale=20.0), top_k=8
    )
    sender = ISender(
        belief,
        planner,
        network.sender_receiver,
        stop_time=stop_time,
        policy=PolicyCache(planner) if policy_cache else None,
    )
    sender.connect(network.entry)
    network.network.add(sender)
    return sender


class TestConstruction:
    def test_validation(self):
        network = single_link_network()
        prior = single_link_prior(link_rate_points=2, fill_points=1)
        belief = BeliefState.from_prior(prior)
        planner = ExpectedUtilityPlanner(ThroughputUtility())
        with pytest.raises(ConfigurationError):
            ISender(belief, planner, network.sender_receiver, packet_bits=0)

    def test_policy_slot(self):
        """policy= installs the decider."""
        network = single_link_network()
        prior = single_link_prior(link_rate_points=2, fill_points=1)
        belief = BeliefState.from_prior(prior)
        planner = ExpectedUtilityPlanner(ThroughputUtility())
        cache = PolicyCache(planner)
        sender = ISender(belief, planner, network.sender_receiver, policy=cache)
        assert sender.policy is cache


class TestScenarioA:
    """The §4 prose result: converge to sending at exactly the link speed."""

    def test_converges_to_link_speed(self):
        network = single_link_network(link_rate_bps=12_000.0)
        sender = build_sender(network)
        network.network.run(until=60.0)
        late_rate = network.sender_receiver.throughput_bps(40.0, 60.0)
        assert late_rate == pytest.approx(12_000.0, rel=0.1)

    def test_infers_true_link_rate(self):
        network = single_link_network(link_rate_bps=12_000.0)
        sender = build_sender(network)
        network.network.run(until=30.0)
        assert sender.belief.map_estimate().params["link_rate_bps"] == pytest.approx(12_000.0)

    def test_starts_tentatively_when_uncertain(self):
        network = single_link_network(link_rate_bps=12_000.0)
        sender = build_sender(network)
        network.network.run(until=60.0)
        early_rate = network.sender_receiver.throughput_bps(0.0, 10.0)
        late_rate = network.sender_receiver.throughput_bps(40.0, 60.0)
        assert early_rate <= late_rate + 1e-9

    def test_does_not_overflow_known_buffer(self):
        network = single_link_network(link_rate_bps=12_000.0, buffer_capacity_bits=48_000.0)
        sender = build_sender(network)
        network.network.run(until=60.0)
        assert network.buffer.drop_count == 0

    def test_sequence_series_is_monotone(self):
        network = single_link_network()
        sender = build_sender(network)
        network.network.run(until=30.0)
        series = sender.sequence_series()
        counts = [count for _, count in series]
        assert counts == sorted(counts)
        assert sender.packets_acked == len(series)

    def test_acks_track_sends_without_loss(self):
        network = single_link_network(loss_rate=0.0)
        sender = build_sender(network)
        network.network.run(until=40.0)
        # Every packet sent at least a service time before the end is acked.
        assert sender.packets_acked >= sender.packets_sent - 2
        assert sender.delivery_rate() > 0.9


class TestLossyPath:
    def test_keeps_sending_under_stochastic_loss(self):
        network = single_link_network(link_rate_bps=12_000.0, loss_rate=0.2, seed=4)
        prior = single_link_prior(
            link_rate_low=8_000.0,
            link_rate_high=16_000.0,
            link_rate_points=5,
            loss_rate=0.2,
            fill_points=1,
        )
        belief = BeliefState.from_prior(prior, kernel=GaussianKernel(sigma=0.25))
        planner = ExpectedUtilityPlanner(ThroughputUtility(discount_timescale=20.0), top_k=8)
        sender = ISender(belief, planner, network.sender_receiver)
        sender.connect(network.entry)
        network.network.add(sender)
        network.network.run(until=120.0)
        goodput = network.sender_receiver.throughput_bps(30.0, 120.0)
        # A loss-blind TCP collapses here; the model-based sender should keep
        # well over half of the lossy capacity (0.8 * link rate).
        assert goodput > 0.5 * 0.8 * 12_000.0

    def test_stop_time_halts_transmissions(self):
        network = single_link_network()
        sender = build_sender(network, stop_time=10.0)
        network.network.run(until=30.0)
        assert all(record.sent_at <= 10.0 for record in sender.sent)


class TestDecisionLog:
    def test_decisions_are_recorded(self):
        network = single_link_network()
        sender = build_sender(network)
        network.network.run(until=20.0)
        assert sender.decisions
        assert all(record.hypotheses >= 1 for record in sender.decisions)
        sent_decisions = [record for record in sender.decisions if record.sent_seq is not None]
        assert len(sent_decisions) >= sender.packets_sent

    def test_policy_cache_mode_runs(self):
        network = single_link_network()
        sender = build_sender(network, policy_cache=True)
        network.network.run(until=20.0)
        assert sender.packets_sent > 5

    def test_records_hold_the_decisions_own_utilities(self):
        """A record points at its decision's mapping instead of copying it:
        with a policy cache most wake-ups replay a remembered decision, and a
        copy per record was the largest live allocation of a contention run."""
        network = single_link_network()
        sender = build_sender(network, policy_cache=True)
        network.network.run(until=40.0)
        cache = sender.policy
        assert cache.hits > 0 and len(sender.decisions) == cache.hits + cache.misses
        # One mapping per planned decision, however many wake-ups replayed it.
        distinct = {id(record.expected_utilities) for record in sender.decisions}
        assert len(distinct) == cache.misses
        assert all(record.expected_utilities for record in sender.decisions)


class TestFigure2Integration:
    def test_alpha_one_shares_with_cross_traffic(self):
        network = figure2_network(cross_gate="none", loss_rate=0.0, seed=2)
        from repro.inference import figure3_prior

        prior = figure3_prior(
            link_rate_points=3,
            cross_fraction_points=3,
            loss_points=1,
            loss_high=0.0,
            buffer_points=2,
            fill_points=1,
        )
        belief = BeliefState.from_prior(prior, kernel=GaussianKernel(sigma=0.4))
        planner = ExpectedUtilityPlanner(
            AlphaWeightedUtility(alpha=1.0, discount_timescale=20.0), top_k=12
        )
        sender = ISender(belief, planner, network.sender_receiver)
        sender.connect(network.entry)
        network.network.add(sender)
        network.network.run(until=90.0)
        own = network.sender_receiver.throughput_bps(30.0, 90.0)
        cross = network.cross_receiver.throughput_bps(30.0, 90.0, flow="cross")
        # Cross traffic offers 70% of the link; an alpha=1 sender roughly
        # fills what remains without starving it.
        assert cross > 0.5 * 0.7 * 12_000.0
        assert 0.1 * 12_000.0 < own < 0.6 * 12_000.0
        assert network.buffer.drop_count <= 2
