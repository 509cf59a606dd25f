"""Tests for LOSS, JITTER, INTERMITTENT, SQUAREWAVE, EITHER, and PINGER."""

from __future__ import annotations

import pytest

from repro.elements import (
    Collector,
    Either,
    Intermittent,
    Jitter,
    Loss,
    Pinger,
    SquareWave,
)
from repro.errors import ConfigurationError
from repro.sim.element import Network
from repro.sim.packet import Packet


class TestLoss:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Loss(rate=-0.1)
        with pytest.raises(ConfigurationError):
            Loss(rate=1.5)

    def test_zero_rate_passes_everything(self, network):
        loss = Loss(rate=0.0, name="loss")
        sink = Collector(name="sink")
        loss.connect(sink)
        network.add(loss)
        network.start()
        for seq in range(100):
            loss.receive(Packet(seq=seq, flow="f"))
        assert sink.count() == 100
        assert loss.drop_count == 0

    def test_full_rate_drops_everything(self, network):
        loss = Loss(rate=1.0, name="loss")
        sink = Collector(name="sink")
        loss.connect(sink)
        network.add(loss)
        network.start()
        for seq in range(50):
            loss.receive(Packet(seq=seq, flow="f"))
        assert sink.count() == 0
        assert loss.drop_count == 50

    def test_intermediate_rate_statistics(self, network):
        loss = Loss(rate=0.2, name="loss")
        sink = Collector(name="sink")
        loss.connect(sink)
        network.add(loss)
        network.start()
        total = 5000
        for seq in range(total):
            loss.receive(Packet(seq=seq, flow="f"))
        assert loss.drop_count / total == pytest.approx(0.2, abs=0.03)
        assert sink.count() + loss.drop_count == total

    def test_reproducible_given_seed(self):
        outcomes = []
        for _ in range(2):
            network = Network(seed=42)
            loss = Loss(rate=0.5, name="loss")
            sink = Collector(name="sink")
            loss.connect(sink)
            network.add(loss)
            network.start()
            for seq in range(20):
                loss.receive(Packet(seq=seq, flow="f"))
            outcomes.append([p.seq for p in sink.packets])
        assert outcomes[0] == outcomes[1]


class TestJitter:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Jitter(delay=-1, probability=0.5)
        with pytest.raises(ConfigurationError):
            Jitter(delay=1, probability=2.0)

    def test_zero_probability_never_delays(self, network):
        jitter = Jitter(delay=1.0, probability=0.0, name="jitter")
        sink = Collector(name="sink")
        jitter.connect(sink)
        network.add(jitter)
        network.start()
        jitter.receive(Packet(seq=0, flow="f", sent_at=0.0))
        network.run()
        assert sink.packets[0].delivered_at == pytest.approx(0.0)

    def test_certain_probability_always_delays(self, network):
        jitter = Jitter(delay=0.7, probability=1.0, name="jitter")
        sink = Collector(name="sink")
        jitter.connect(sink)
        network.add(jitter)
        network.start()
        jitter.receive(Packet(seq=0, flow="f", sent_at=0.0))
        network.run()
        assert sink.packets[0].delivered_at == pytest.approx(0.7)
        assert sink.packets[0].meta["jittered"] == 1

    def test_counts_split(self, network):
        jitter = Jitter(delay=0.1, probability=0.5, name="jitter")
        sink = Collector(name="sink")
        jitter.connect(sink)
        network.add(jitter)
        network.start()
        for seq in range(200):
            jitter.receive(Packet(seq=seq, flow="f"))
        network.run()
        assert jitter.jittered_count + jitter.untouched_count == 200
        assert 40 < jitter.jittered_count < 160


class TestPinger:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Pinger(rate_pps=0)
        with pytest.raises(ConfigurationError):
            Pinger(rate_pps=1, packet_bits=0)

    def test_isochronous_schedule(self, network):
        pinger = Pinger(rate_pps=2.0, packet_bits=8_000, flow="cross", name="pinger")
        sink = Collector(name="sink")
        pinger.connect(sink)
        network.add(pinger)
        network.run(until=2.6)
        arrivals = [p.sent_at for p in sink.packets]
        assert arrivals == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0, 2.5])
        assert all(p.flow == "cross" for p in sink.packets)

    def test_rate_bps_property(self):
        pinger = Pinger(rate_pps=0.7, packet_bits=12_000)
        assert pinger.rate_bps == pytest.approx(8_400)


class TestIntermittent:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Intermittent(mean_time_to_switch=0)

    def test_blocks_when_disconnected(self, network):
        """A packet passes iff the gate has switched an even number of times."""
        gate = Intermittent(mean_time_to_switch=1.0, name="gate")
        sink = Collector(name="sink")
        gate.connect(sink)
        network.add(gate)
        network.start()
        connected = []
        for at in range(1, 21):
            network.sim.run(until=float(at))
            connected.append(len(gate.switch_times) % 2 == 0)
            passed = sink.count()
            gate.receive(Packet(seq=at, flow="f"))
            assert sink.count() - passed == int(connected[-1])
        assert gate.blocked_count == connected.count(False) > 0
        assert True in connected

    def test_passes_when_connected(self, network):
        gate = Intermittent(mean_time_to_switch=1e9, name="gate")
        sink = Collector(name="sink")
        gate.connect(sink)
        network.add(gate)
        network.start()
        gate.receive(Packet(seq=0, flow="f"))
        assert sink.count() == 1

    def test_switches_over_time(self, network):
        gate = Intermittent(mean_time_to_switch=1.0, name="gate")
        sink = Collector(name="sink")
        gate.connect(sink)
        network.add(gate)
        network.run(until=50.0)
        assert len(gate.switch_times) > 10

    def test_switch_probability(self):
        gate = Intermittent(mean_time_to_switch=100.0)
        assert gate.switch_probability(0.0) == 0.0
        assert gate.switch_probability(100.0) == pytest.approx(0.632, abs=0.01)
        assert gate.switch_probability(1e9) == pytest.approx(1.0)


class TestSquareWave:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SquareWave(switch_interval=0)

    def test_deterministic_toggling(self, network):
        gate = SquareWave(switch_interval=100.0, name="gate")
        sink = Collector(name="sink")
        gate.connect(sink)
        network.add(gate)
        network.run(until=350.0)
        assert gate.switch_times == pytest.approx([100.0, 200.0, 300.0])

    @pytest.mark.parametrize(
        "at, passes",
        [(50.0, True), (150.0, False), (250.0, True), (350.0, False)],
    )
    def test_a_packet_passes_only_in_a_connected_half_period(self, network, at, passes):
        gate = SquareWave(switch_interval=100.0)
        sink = Collector()
        gate.connect(sink)
        network.add(gate)
        network.run(until=at)
        packet = Packet(seq=0, flow="f")
        gate.receive(packet)
        assert sink.count() == int(passes)
        assert gate.blocked_count == int(not passes)
        assert packet.dropped_at == (None if passes else at)

    def test_gating_traffic(self, network):
        gate = SquareWave(switch_interval=1.0, name="gate")
        sink = Collector(name="sink")
        pinger = Pinger(rate_pps=10.0, name="pinger", flow="cross")
        pinger.connect(gate)
        gate.connect(sink)
        network.add(pinger)
        network.run(until=2.0)
        # Connected during [0, 1), disconnected during [1, 2): roughly half pass.
        assert 8 <= sink.count() <= 12
        assert gate.blocked_count >= 8


class TestEither:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Either(Collector(), Collector(), mean_time_to_switch=0)

    def test_routes_to_active_branch(self, network):
        first = Collector(name="first")
        second = Collector(name="second")
        either = Either(first, second, mean_time_to_switch=1.0, name="either")
        network.add(either)
        network.start()
        for seq in range(40):
            network.run(until=0.5 * seq)
            active = either.active_branch
            before = active.count()
            either.receive(Packet(seq=seq, flow="f"))
            assert active.count() == before + 1
        assert first.count() and second.count()
        assert first.count() + second.count() == 40

    def test_switches_over_time(self, network):
        either = Either(Collector(name="a"), Collector(name="b"), mean_time_to_switch=0.5)
        network.add(either)
        network.run(until=20.0)
        assert len(either.switch_times) > 5
