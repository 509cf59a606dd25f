"""Tests for the TCP-like window senders and the rate senders."""

from __future__ import annotations

import math

import pytest

from repro.baselines import (
    AimdSender,
    CubicSender,
    FixedRateSender,
    NewRenoSender,
    OracleSender,
    RenoSender,
    TahoeSender,
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
            RenoSender(network.sender_receiver, initial_cwnd=0.5)
        with pytest.raises(ConfigurationError):
            RenoSender(network.sender_receiver, min_rto=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["packet_bits", "min_rto", "max_rto", "initial_cwnd"])
    def test_non_finite_parameters_refused(self, field, value):
        # NaN used to pass every check and run with an RTO of NaN.
        network = single_link_network(sender_flow="tcp")
        with pytest.raises(ConfigurationError):
            RenoSender(network.sender_receiver, **{field: value})

    def test_self_clocking_fills_clean_link(self):
        sender, network = run_tcp(RenoSender, duration=60.0)
        goodput = network.sender_receiver.throughput_bps(30.0, 60.0, flow="tcp")
        assert goodput > 0.8 * 100_000.0
        assert sender.timeouts == 0

    def test_rtt_samples_collected(self):
        sender, _ = run_tcp(RenoSender, duration=20.0)
        assert sender.rtt_samples
        assert sender.mean_rtt() > 0
        assert sender.rtt_series()[0][1] > 0

    def test_cwnd_grows_during_slow_start(self):
        sender, _ = run_tcp(RenoSender, duration=5.0)
        assert sender.cwnd > 1.0
        assert sender.cwnd_trace

    def test_flow_size_limits_transfer(self):
        sender, network = run_tcp(RenoSender, duration=60.0, total_packets=10)
        assert network.sender_receiver.count == 10
        assert sender.packets_sent >= 10

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
        "sender_cls", [TahoeSender, RenoSender, NewRenoSender, CubicSender, AimdSender]
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

    def test_tahoe_resets_to_one_on_dupacks(self):
        sender, _ = run_tcp(TahoeSender, duration=90.0, loss_rate=0.05, seed=4)
        assert sender.fast_retransmits > 0
        # Tahoe never inflates the window above ssthresh + 3 after a loss.
        assert all(cwnd >= 1.0 for _, cwnd in sender.cwnd_trace)

    def test_aimd_validation(self):
        network = single_link_network(sender_flow="tcp")
        with pytest.raises(ConfigurationError):
            AimdSender(network.sender_receiver, increase=0.0)
        with pytest.raises(ConfigurationError):
            AimdSender(network.sender_receiver, decrease=1.5)

    def test_cubic_grows_beyond_reno_on_long_clean_path(self):
        cubic, _ = run_tcp(CubicSender, duration=40.0, link_rate=200_000.0)
        assert cubic.cwnd > 10.0


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
        sender.cwnd_trace,
        [(d.seq, d.sent_at, d.received_at) for d in receiver.deliveries],
        [(sample.time, sample.rtt) for sample in sender.rtt_samples],
    )


class TestNetworkReset:
    """A run after `Network.reset()` is the run a freshly built sender makes."""

    @pytest.mark.parametrize(
        "sender_cls", [*MANY_FLOW_SENDER_KINDS.values(), TahoeSender], ids=lambda cls: cls.__name__
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

    def test_fixed_rate_sender_is_isochronous(self):
        network = single_link_network(link_rate_bps=100_000.0, sender_flow="fixed")
        sender = FixedRateSender(rate_pps=2.0, flow="fixed")
        sender.connect(network.entry)
        network.network.add(sender)
        network.network.run(until=5.2)
        assert sender.packets_sent == 11
        assert sender.rate_bps == pytest.approx(24_000.0)

    def test_fixed_rate_stop_time(self):
        network = single_link_network(link_rate_bps=100_000.0, sender_flow="fixed")
        sender = FixedRateSender(rate_pps=1.0, flow="fixed", stop_time=3.0)
        sender.connect(network.entry)
        network.network.add(sender)
        network.network.run(until=10.0)
        assert sender.packets_sent == 4

    def test_oracle_matches_link_rate(self):
        network = single_link_network(link_rate_bps=12_000.0, sender_flow="oracle")
        sender = OracleSender(link_rate_bps=12_000.0, flow="oracle")
        sender.connect(network.entry)
        network.network.add(sender)
        network.network.run(until=60.0)
        goodput = network.sender_receiver.throughput_bps(10.0, 60.0, flow="oracle")
        assert goodput == pytest.approx(12_000.0, rel=0.05)
        assert network.buffer.drop_count == 0

    def test_oracle_validation(self):
        with pytest.raises(ConfigurationError):
            OracleSender(link_rate_bps=12_000.0, utilization=0.0)
