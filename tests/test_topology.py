"""Tests for topology validation and the preset networks."""

from __future__ import annotations

import pytest

from repro.elements import Buffer, Collector, Delay, GateElement, Receiver, Throughput
from repro.errors import ConfigurationError, WiringError
from repro.sim.element import Network
from repro.sim.packet import Packet
from repro.topology import figure2_network, single_link_network, validate_network


class TestValidation:
    def test_clean_network_has_no_problems(self):
        network = Network(seed=0)
        buffer = Buffer(capacity_bits=10_000, name="buf")
        link = Throughput(rate_bps=1_000, name="link")
        sink = Receiver(name="rx")
        buffer >> link >> sink
        network.add(buffer)
        assert validate_network(network) == []

    def test_unterminated_path_is_reported(self):
        network = Network(seed=0)
        buffer = Buffer(capacity_bits=10_000, name="buf")
        link = Throughput(rate_bps=1_000, name="link")
        buffer.connect(link)
        network.add(buffer)
        problems = validate_network(network)
        assert any("link" in problem for problem in problems)

    def test_cycle_is_reported(self):
        network = Network(seed=0)
        a = Delay(0.1, name="a")
        b = Delay(0.1, name="b")
        a.connect(b)
        b.connect(a)
        network.add(a)
        problems = validate_network(network)
        assert any("cycle" in problem for problem in problems)


class TestFigure2Preset:
    def test_structure_and_parameters(self):
        net = figure2_network()
        assert net.link.rate_bps == pytest.approx(12_000)
        assert net.loss.rate == pytest.approx(0.2)
        assert net.buffer.capacity_bits == pytest.approx(96_000)
        assert net.pinger.rate_bps == pytest.approx(0.7 * 12_000)
        assert isinstance(net.pinger.downstream, GateElement)
        assert validate_network(net.network) == []

    def test_invalid_cross_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            figure2_network(cross_fraction=1.5)

    def test_cross_traffic_reaches_cross_receiver(self):
        # A square wave longer than the run: cross traffic stays on.
        net = figure2_network(loss_rate=0.0, switch_interval=1_000.0)
        net.network.run(until=30.0)
        assert net.cross_receiver.count("cross") > 10
        assert net.sender_receiver.count == 0

    def test_sender_packets_reach_sender_receiver(self):
        net = figure2_network(loss_rate=0.0, cross_fraction=0.0, switch_interval=1_000.0)
        net.network.start()
        net.entry.receive(Packet(seq=0, flow=net.sender_flow, size_bits=12_000, sent_at=0.0))
        net.network.run(until=10.0)
        assert net.sender_receiver.count == 1
        assert net.sender_receiver.received_times[0] == pytest.approx(1.0)

    def test_squarewave_gating_shapes_cross_traffic(self):
        net = figure2_network(loss_rate=0.0, switch_interval=10.0, seed=3)
        net.network.run(until=40.0)
        arrivals = [p.delivered_at for p in net.cross_receiver.packets if p.flow == "cross"]
        on_phase = [t for t in arrivals if t < 10.0 or 20.0 <= t < 30.0]
        off_phase = [t for t in arrivals if 11.0 <= t < 20.0 or 31.0 <= t < 40.0]
        assert len(on_phase) > 0
        assert len(off_phase) <= 1  # at most a queued straggler right after shut-off


class TestSingleLinkPreset:
    def test_minimal_configuration(self):
        net = single_link_network()
        assert net.loss is None
        assert net.pinger is None
        net.network.start()
        net.entry.receive(Packet(seq=0, flow=net.sender_flow, size_bits=12_000, sent_at=0.0))
        net.network.run()
        assert net.sender_receiver.count == 1

    def test_with_loss_and_cross_traffic(self):
        net = single_link_network(loss_rate=0.5, cross_rate_pps=0.5, seed=2)
        assert net.loss is not None
        assert net.pinger is not None
        net.network.run(until=60.0)
        assert net.cross_receiver is not None
        assert net.cross_receiver.count("cross") > 5

    def test_initial_fill_drains_before_new_traffic(self):
        net = single_link_network(buffer_initial_fill_bits=24_000)
        net.network.start()
        net.entry.receive(Packet(seq=0, flow=net.sender_flow, size_bits=12_000, sent_at=0.0))
        net.network.run()
        assert net.sender_receiver.received_times[0] == pytest.approx(3.0)
