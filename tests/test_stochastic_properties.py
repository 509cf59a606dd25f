"""Statistical-property tests for the stochastic elements.

Under a fixed seed the empirical behaviour of LOSS, JITTER, and
INTERMITTENT must sit within tight tolerances of their configured
parameters — the properties the paper's inference engine relies on when it
treats these elements as likelihood terms.
"""

from __future__ import annotations

import math

import pytest

from repro.elements.collector import Collector
from repro.elements.intermittent import Intermittent
from repro.elements.jitter import Jitter
from repro.elements.loss import Loss
from repro.sim.element import Network
from repro.sim.packet import Packet


def _feed(element, sim, count: int, packet_bits: float = 8_000.0) -> None:
    for seq in range(count):
        element.receive(Packet(seq=seq, flow="probe", size_bits=packet_bits, created_at=sim.now))


class TestLossRates:
    @pytest.mark.parametrize("rate", [0.05, 0.2, 0.5])
    def test_empirical_rate_matches_configured(self, rate):
        network = Network(seed=42)
        loss = Loss(rate=rate, name="loss-under-test")
        sink = Collector(name="sink")
        loss.connect(sink)
        network.add(loss)

        trials = 20_000
        _feed(loss, network.sim, trials)

        observed = loss.drop_count / trials
        # Three-sigma band of a binomial with n=20k.
        sigma = math.sqrt(rate * (1.0 - rate) / trials)
        assert abs(observed - rate) < 3.0 * sigma + 1e-12
        assert loss.drop_count + loss.pass_count == trials

    def test_zero_and_one_are_exact(self):
        network = Network(seed=1)
        never = Loss(rate=0.0, name="never")
        always = Loss(rate=1.0, name="always")
        sink_a, sink_b = Collector(name="sink-a"), Collector(name="sink-b")
        never.connect(sink_a)
        always.connect(sink_b)
        network.add(never, always)

        _feed(never, network.sim, 500)
        _feed(always, network.sim, 500)
        assert never.drop_count == 0
        assert always.drop_count == 500

    def test_same_seed_same_drops_different_seed_different_drops(self):
        def drops(seed: int) -> int:
            network = Network(seed=seed)
            loss = Loss(rate=0.3, name="loss-under-test")
            loss.connect(Collector(name="sink"))
            network.add(loss)
            _feed(loss, network.sim, 2_000)
            return loss.drop_count

        assert drops(7) == drops(7)
        assert drops(7) != drops(8)


class TestJitterProbability:
    @pytest.mark.parametrize("probability", [0.1, 0.5])
    def test_empirical_jitter_fraction(self, probability):
        network = Network(seed=13)
        jitter = Jitter(delay=0.05, probability=probability, name="jitter-under-test")
        sink = Collector(name="sink")
        jitter.connect(sink)
        network.add(jitter)

        trials = 20_000
        _feed(jitter, network.sim, trials)

        observed = jitter.jittered_count / trials
        sigma = math.sqrt(probability * (1.0 - probability) / trials)
        assert abs(observed - probability) < 3.0 * sigma + 1e-12
        assert jitter.jittered_count + jitter.untouched_count == trials

    def test_jittered_packets_are_delayed_by_configured_amount(self):
        network = Network(seed=13)
        jitter = Jitter(delay=0.5, probability=1.0, name="always-jitter")
        sink = Collector(name="sink")
        jitter.connect(sink)
        network.add(jitter)

        jitter.receive(Packet(seq=0, flow="probe", size_bits=8_000.0, created_at=0.0))
        assert sink.count("probe") == 0  # held back until the delay elapses
        network.run()
        assert sink.count("probe") == 1
        assert network.sim.now == pytest.approx(0.5)


class RecordingIntermittent(Intermittent):
    """Intermittent gate that records the time of every switch."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.switch_log: list[float] = []

    def _switch(self) -> None:
        self.switch_log.append(self.sim.now)
        super()._switch()


class TestIntermittentSwitching:
    def test_mean_dwell_time_matches_configuration(self):
        mean = 2.0
        network = Network(seed=21)
        gate = RecordingIntermittent(mean_time_to_switch=mean, name="gate-under-test")
        network.add(gate)
        horizon = 6_000.0
        network.run(until=horizon)

        dwells = [
            later - earlier for earlier, later in zip(gate.switch_log, gate.switch_log[1:])
        ]
        assert len(dwells) > 1_000
        observed_mean = sum(dwells) / len(dwells)
        # Exponential dwell: sd of the sample mean is mean/sqrt(n).
        assert abs(observed_mean - mean) < 4.0 * mean / math.sqrt(len(dwells))

    def test_dwell_times_look_memoryless(self):
        network = Network(seed=22)
        gate = RecordingIntermittent(mean_time_to_switch=1.5, name="gate-under-test")
        network.add(gate)
        network.run(until=4_500.0)

        dwells = [
            later - earlier for earlier, later in zip(gate.switch_log, gate.switch_log[1:])
        ]
        mean = sum(dwells) / len(dwells)
        variance = sum((dwell - mean) ** 2 for dwell in dwells) / (len(dwells) - 1)
        # An exponential's coefficient of variation is 1.
        assert 0.9 < math.sqrt(variance) / mean < 1.1

    def test_switch_probability_matches_empirical_dwell_cdf(self):
        mean = 2.0
        network = Network(seed=23)
        gate = RecordingIntermittent(mean_time_to_switch=mean, name="gate-under-test")
        network.add(gate)
        network.run(until=6_000.0)

        dwells = [
            later - earlier for earlier, later in zip(gate.switch_log, gate.switch_log[1:])
        ]
        for interval in (0.5, 1.0, 3.0):
            predicted = gate.switch_probability(interval)
            empirical = sum(1 for dwell in dwells if dwell <= interval) / len(dwells)
            assert abs(predicted - empirical) < 0.04
