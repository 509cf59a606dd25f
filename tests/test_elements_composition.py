"""Tests for SERIES, DIVERTER, RECEIVER, COLLECTOR, and element wiring."""

from __future__ import annotations

import math

import pytest

from repro.elements import (
    Buffer,
    Collector,
    Delay,
    Diverter,
    Loss,
    Receiver,
    Series,
    Throughput,
)
from repro.errors import ConfigurationError, WiringError
from repro.sim.element import Element, Network, SourceElement
from repro.sim.packet import Packet

NON_FINITE = [math.nan, math.inf, -math.inf]


class TestNonFiniteParametersRefused:
    """Each check fails on NaN, and ±inf is refused, as `Buffer` already does."""

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_throughput_rate(self, value):
        with pytest.raises(ConfigurationError):
            Throughput(rate_bps=value)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_delay(self, value):
        with pytest.raises(ConfigurationError):
            Delay(value)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_receiver_ack_delay(self, value):
        with pytest.raises(ConfigurationError):
            Receiver(ack_delay=value)


class TestWiring:
    def test_rshift_chains(self):
        a = Delay(0.1, name="a")
        b = Delay(0.1, name="b")
        c = Collector(name="c")
        a >> b >> c
        assert a.downstream is b
        assert b.downstream is c

    def test_self_connection_rejected(self):
        a = Delay(0.1, name="a")
        with pytest.raises(WiringError):
            a.connect(a)

    def test_unattached_sim_access_raises(self):
        a = Delay(0.1, name="a")
        with pytest.raises(WiringError):
            _ = a.sim

    def test_double_attach_to_other_simulator_rejected(self):
        a = Delay(0.1, name="a")
        first = Network(seed=0)
        second = Network(seed=0)
        first.add(a)
        with pytest.raises(WiringError):
            second.add(a)

    def test_source_element_rejects_input(self, network):
        class Dummy(SourceElement):
            pass

        dummy = Dummy(name="dummy")
        network.add(dummy)
        with pytest.raises(WiringError):
            dummy.receive(Packet(seq=0, flow="f"))

    def test_emit_without_downstream_counts_exit(self, network):
        class PassThrough(Element):
            def receive(self, packet):
                self.emit(packet)

        element = PassThrough(name="edge")
        network.add(element)
        network.start()
        element.receive(Packet(seq=0, flow="f"))
        assert element.emitted_count == 1

    def test_network_element_lookup(self, network):
        a = Delay(0.1, name="the-delay")
        network.add(a)
        assert network.element("the-delay") is a
        with pytest.raises(KeyError):
            network.element("missing")


class TestSeries:
    def test_requires_a_stage(self):
        with pytest.raises(WiringError):
            Series()

    def test_packets_traverse_all_stages(self, network):
        series = Series(Delay(0.25, name="d1"), Delay(0.25, name="d2"), name="series")
        sink = Collector(name="sink")
        series.connect(sink)
        network.add(series)
        network.start()
        series.receive(Packet(seq=0, flow="f", sent_at=0.0))
        network.run()
        assert sink.packets[0].delivered_at == pytest.approx(0.5)

    def test_series_composes_with_queueing(self, network):
        buffer = Buffer(capacity_bits=48_000, name="buf")
        link = Throughput(rate_bps=12_000, name="link")
        series = Series(buffer, link, name="series")
        sink = Collector(name="sink")
        series.connect(sink)
        network.add(series)
        network.start()
        for seq in range(2):
            series.receive(Packet(seq=seq, flow="f", size_bits=12_000, sent_at=0.0))
        network.run()
        assert [p.delivered_at for p in sink.packets] == pytest.approx([1.0, 2.0])

    def test_nested_series(self, network):
        inner = Series(Delay(0.1, name="i1"), Delay(0.1, name="i2"), name="inner")
        outer = Series(inner, Delay(0.1, name="o1"), name="outer")
        sink = Collector(name="sink")
        outer.connect(sink)
        network.add(outer)
        network.start()
        outer.receive(Packet(seq=0, flow="f", sent_at=0.0))
        network.run()
        assert sink.packets[0].delivered_at == pytest.approx(0.3)


class TestDiverter:
    def test_routes_by_flow_name(self, network):
        ours = Collector(name="ours")
        theirs = Collector(name="theirs")
        diverter = Diverter("isender", ours, theirs, name="div")
        network.add(diverter)
        network.start()
        diverter.receive(Packet(seq=0, flow="isender"))
        diverter.receive(Packet(seq=1, flow="cross"))
        diverter.receive(Packet(seq=2, flow="cross"))
        assert ours.count() == 1
        assert theirs.count() == 2
        assert diverter.matched_count == 1
        assert diverter.other_count == 2

    def test_routes_by_callable(self, network):
        small = Collector(name="small")
        large = Collector(name="large")
        diverter = Diverter(lambda p: p.size_bits < 1_000, small, large, name="div")
        network.add(diverter)
        network.start()
        diverter.receive(Packet(seq=0, flow="f", size_bits=100))
        diverter.receive(Packet(seq=1, flow="f", size_bits=10_000))
        assert small.count() == 1
        assert large.count() == 1


class TestReceiver:
    def test_records_delivery_and_invokes_callback(self, network):
        seen = []
        receiver = Receiver(name="rx", on_deliver=seen.append)
        network.add(receiver)
        network.start()
        receiver.receive(Packet(seq=7, flow="f", size_bits=12_000, sent_at=0.0, created_at=0.0))
        assert receiver.count == 1
        assert seen[0].seq == 7
        assert seen[0].delay == pytest.approx(0.0)
        assert receiver.bits_received == pytest.approx(12_000)

    def test_ack_delay_defers_callback(self, network):
        seen = []
        receiver = Receiver(name="rx", on_deliver=seen.append, ack_delay=0.5)
        network.add(receiver)
        network.start()
        receiver.receive(Packet(seq=0, flow="f", sent_at=0.0))
        assert seen == []
        network.run()
        assert len(seen) == 1

    def test_accept_flows_filters(self, network):
        receiver = Receiver(name="rx", accept_flows={"isender"})
        network.add(receiver)
        network.start()
        receiver.receive(Packet(seq=0, flow="isender"))
        receiver.receive(Packet(seq=1, flow="cross"))
        assert receiver.count == 1
        assert receiver.ignored_count == 1

    def test_sequence_series_and_throughput(self, network):
        receiver = Receiver(name="rx")
        network.add(receiver)
        network.start()
        for seq in range(4):
            network.sim.schedule(float(seq), receiver.receive, Packet(seq=seq, flow="f", size_bits=8_000, sent_at=float(seq)))
        network.run()
        series = receiver.sequence_series()
        assert series[-1] == (3.0, 4)
        assert receiver.throughput_bps(0.0, 4.0) == pytest.approx(8_000)
        assert receiver.mean_delay() == pytest.approx(0.0)

    def test_mean_delay_none_when_empty(self, network):
        receiver = Receiver(name="rx")
        network.add(receiver)
        assert receiver.mean_delay() is None


class TestCollector:
    def test_per_flow_tallies(self, network):
        collector = Collector(name="sink")
        network.add(collector)
        network.start()
        collector.receive(Packet(seq=0, flow="a", size_bits=1_000, sent_at=0.0))
        collector.receive(Packet(seq=1, flow="b", size_bits=2_000, sent_at=0.0))
        collector.receive(Packet(seq=2, flow="b", size_bits=2_000, sent_at=0.0))
        assert collector.count("a") == 1
        assert collector.count("b") == 2
        assert collector.bits() == pytest.approx(5_000)
        assert collector.bits("b") == pytest.approx(4_000)
        assert collector.flows["b"].mean_delay is not None

    def test_throughput_window(self, network):
        collector = Collector(name="sink")
        network.add(collector)
        network.start()
        for second in range(4):
            network.sim.schedule(
                float(second), collector.receive, Packet(seq=second, flow="f", size_bits=6_000)
            )
        network.run()
        assert collector.throughput_bps(0.0, 4.0) == pytest.approx(6_000)
        assert collector.throughput_bps(2.0, 4.0, flow="f") == pytest.approx(6_000)
        assert collector.throughput_bps(4.0, 4.0) == 0.0
