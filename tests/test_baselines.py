"""Tests for the TCP-like window senders and the rate senders."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import (
    AimdSender,
    CubicSender,
    FixedRateSender,
    NewRenoSender,
    RenoSender,
)
from repro.elements import Buffer, Delay, Receiver, Throughput
from repro.errors import ConfigurationError
from repro.runner.scenarios import MANY_FLOW_SENDER_KINDS
from repro.sim.element import Network
from repro.topology import single_link_network


def run_tcp(sender_cls, duration=60.0, loss_rate=0.0, link_rate=100_000.0, seed=1, **kwargs):
    """Run one window sender over a single bottleneck link and return (sender, network)."""
    network = single_link_network(
        link_rate_bps=link_rate,
        buffer_capacity_bits=20 * 12_000.0,
        loss_rate=loss_rate,
        sender_flow="tcp",
        seed=seed,
    )
    sender = sender_cls(
        network.sender_receiver, flow="tcp", name=sender_cls.__name__.lower(), **kwargs
    )
    sender.connect(network.entry)
    network.network.add(sender)
    network.network.run(until=duration)
    return sender, network


class TestWindowSenderMechanics:
    def test_validation(self):
        network = single_link_network(sender_flow="tcp")
        with pytest.raises(ConfigurationError):
            RenoSender(network.sender_receiver, packet_bits=0)
        with pytest.raises(ConfigurationError):
            RenoSender(network.sender_receiver, max_rto=0.1)  # below MIN_RTO
        with pytest.raises(ConfigurationError, match="initial_ssthresh"):
            RenoSender(network.sender_receiver, initial_ssthresh=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["packet_bits", "max_rto", "initial_ssthresh"])
    def test_non_finite_parameters_refused(self, field, value):
        # NaN used to pass every check and run with an RTO of NaN; a NaN
        # threshold ran in congestion avoidance from the first ack.
        network = single_link_network(sender_flow="tcp")
        with pytest.raises(ConfigurationError, match=field):
            RenoSender(network.sender_receiver, **{field: value})

    def test_self_clocking_fills_clean_link(self):
        sender, network = run_tcp(RenoSender, duration=60.0)
        goodput = network.sender_receiver.throughput_bps(30.0, 60.0, flow="tcp")
        assert goodput > 0.8 * 100_000.0
        assert sender.timeouts == 0

    def test_rtt_samples_collected(self):
        sender, _ = run_tcp(RenoSender, duration=20.0)
        series = sender.rtt_series()
        assert series
        assert all(rtt > 0 for _, rtt in series)
        assert [time for time, _ in series] == sorted(time for time, _ in series)

    def test_cwnd_grows_during_slow_start(self):
        sender, _ = run_tcp(RenoSender, duration=5.0)
        assert sender.cwnd > 1.0

    def test_loss_triggers_recovery_machinery(self):
        sender, _ = run_tcp(RenoSender, duration=120.0, loss_rate=0.05, seed=3)
        assert sender.retransmissions > 0
        assert sender.fast_retransmits + sender.timeouts > 0

    def test_timeout_collapses_window(self):
        sender, _ = run_tcp(RenoSender, duration=120.0, loss_rate=0.3, seed=3)
        assert sender.timeouts > 0
        assert sender.cwnd < 20.0

    def test_goodput_helper_matches_receiver(self):
        sender, network = run_tcp(RenoSender, duration=30.0)
        assert sender.goodput_bps(0.0, 30.0) == pytest.approx(
            network.sender_receiver.throughput_bps(0.0, 30.0, flow="tcp")
        )


class TestVariantBehaviour:
    @pytest.mark.parametrize(
        "sender_cls", [RenoSender, NewRenoSender, CubicSender, AimdSender]
    )
    def test_all_variants_complete_a_transfer(self, sender_cls):
        sender, network = run_tcp(sender_cls, duration=60.0, loss_rate=0.02, seed=2)
        assert network.sender_receiver.count > 20
        assert sender.packets_sent >= network.sender_receiver.count

    def test_loss_blind_senders_collapse_under_heavy_stochastic_loss(self):
        # The paper's motivation: 20% non-congestive loss confounds TCP.
        sender, network = run_tcp(NewRenoSender, duration=120.0, loss_rate=0.2, link_rate=12_000.0, seed=5)
        goodput = network.sender_receiver.throughput_bps(0.0, 120.0, flow="tcp")
        assert goodput < 0.6 * 12_000.0

    def test_cubic_grows_beyond_reno_on_long_clean_path(self):
        cubic, _ = run_tcp(CubicSender, duration=40.0, link_rate=200_000.0)
        assert cubic.cwnd > 10.0


class TestReceiveState:
    """A sender keeps only the delivered sequence numbers above its
    cumulative ACK: the set a long run holds is what is in flight."""

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        sender_cls=st.sampled_from([RenoSender, NewRenoSender, CubicSender]),
        loss_rate=st.floats(min_value=0.02, max_value=0.3),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_received_seqs_lie_above_the_cumulative_ack(self, sender_cls, loss_rate, seed):
        network = single_link_network(
            link_rate_bps=100_000.0,
            buffer_capacity_bits=20 * 12_000.0,
            loss_rate=loss_rate,
            sender_flow="tcp",
            seed=seed,
        )
        receiver = network.sender_receiver
        sender = sender_cls(receiver, flow="tcp", name="tcp")
        acknowledge = receiver.on_deliver
        delivered: set[int] = set()

        def checked(delivery):
            acknowledge(delivery)
            delivered.add(delivery.seq)
            cumulative = sender.cumulative_ack
            # Every sequence number up to the cumulative ACK was delivered,
            # the next one was not, and exactly those above it are held.
            assert set(range(cumulative + 1)) <= delivered
            assert cumulative + 1 not in delivered
            assert sender.received_seqs == {seq for seq in delivered if seq > cumulative}
            assert all(cumulative < seq < sender.next_seq for seq in sender.received_seqs)

        receiver.on_deliver = checked
        sender.connect(network.entry)
        network.network.add(sender)
        network.network.run(until=30.0)
        assert len(delivered) > 20
        assert sender.retransmissions > 0


def _bottleneck_run(network, sender_cls, duration=5.0):
    """Wire ``sender_cls`` → Buffer → Throughput(1 Mbit/s) → Delay(50 ms) → Receiver."""
    receiver = Receiver(name="rx")
    sender = sender_cls(receiver, flow="tcp", name="tcp")
    sender >> Buffer(40 * 12_000.0) >> Throughput(1_000_000.0) >> Delay(0.05) >> receiver
    network.add(sender)
    network.run(until=duration)
    return sender, receiver


def _outcome(sender, receiver):
    return (
        sender.packets_sent,
        sender.cwnd,
        sender.ssthresh,
        list(zip(receiver.seqs, receiver.sent_times, receiver.received_times)),
        sender.rtt_series(),
    )


class TestNetworkReset:
    """A run after `Network.reset()` is the run a freshly built sender makes."""

    @pytest.mark.parametrize(
        "sender_cls", MANY_FLOW_SENDER_KINDS.values(), ids=lambda cls: cls.__name__
    )
    def test_run_after_reset_equals_a_fresh_build(self, sender_cls):
        fresh = _outcome(*_bottleneck_run(Network(seed=0), sender_cls))
        network = Network(seed=0)
        sender, receiver = _bottleneck_run(network, sender_cls)
        network.reset()
        network.run(until=5.0)
        assert sender._rto_timer is None or sender._rto_timer._owner is network.sim
        assert _outcome(sender, receiver) == fresh


class TestRateSenders:
    def test_fixed_rate_validation(self):
        with pytest.raises(ConfigurationError):
            FixedRateSender(rate_pps=0.0)
        with pytest.raises(ConfigurationError):
            FixedRateSender(rate_pps=1.0, packet_bits=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["rate_pps", "packet_bits"])
    def test_fixed_rate_non_finite_parameters_refused(self, field, value):
        # A NaN rate used to build, then fail mid-run scheduling a NaN time.
        parameters = {"rate_pps": 1.0, field: value}
        with pytest.raises(ConfigurationError, match=field):
            FixedRateSender(**parameters)

    def test_fixed_rate_sender_is_isochronous(self):
        network = single_link_network(link_rate_bps=100_000.0, sender_flow="fixed")
        sender = FixedRateSender(rate_pps=2.0, flow="fixed")
        sender.connect(network.entry)
        network.network.add(sender)
        network.network.run(until=5.2)
        assert sender.packets_sent == 11
        assert sender.rate_bps == pytest.approx(24_000.0)

