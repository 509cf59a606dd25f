"""Unit tests for packets, random streams, and tracing."""

from __future__ import annotations

import pytest

from repro.elements import Buffer, Collector, Throughput
from repro.runner.scenarios import many_flow_contention
from repro.sim.element import Network
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.random import RngRegistry
from repro.sim.trace import TraceRecorder
from repro.units import (
    DEFAULT_PACKET_BITS,
    bytes_to_bits,
    bits_to_bytes,
    from_ms,
    kbps,
    mbps,
    packets_to_bits,
    to_ms,
    transmission_time,
)


class TestPacket:
    def test_defaults(self):
        packet = Packet(seq=1, flow="isender")
        assert packet.size_bits == DEFAULT_PACKET_BITS
        assert packet.in_flight
        assert packet.delay is None

    def test_delay_uses_sent_at_when_available(self):
        packet = Packet(seq=0, flow="f", created_at=1.0, sent_at=2.0)
        packet.delivered_at = 5.0
        assert packet.delay == pytest.approx(3.0)

    def test_delay_falls_back_to_created_at(self):
        packet = Packet(seq=0, flow="f", created_at=1.0)
        packet.delivered_at = 4.0
        assert packet.delay == pytest.approx(3.0)

    def test_mark_dropped(self):
        packet = Packet(seq=0, flow="f")
        packet.mark_dropped(3.0, "buffer")
        assert not packet.in_flight
        assert packet.drop_reason == "buffer"

    def test_unique_uids(self):
        a = Packet(seq=0, flow="f")
        b = Packet(seq=0, flow="f")
        assert a.uid != b.uid

    def test_copy_is_independent(self):
        original = Packet(seq=3, flow="f")
        original.meta["key"] = "value"
        duplicate = original.copy()
        duplicate.meta["key"] = "changed"
        assert original.meta["key"] == "value"
        assert duplicate.seq == 3

    def test_size_bytes(self):
        packet = Packet(seq=0, flow="f", size_bits=8000)
        assert packet.size_bytes == pytest.approx(1000)


class TestRngRegistry:
    def test_same_name_same_stream_object(self, rng_registry):
        assert rng_registry.stream("a") is rng_registry.stream("a")

    def test_different_names_different_sequences(self, rng_registry):
        a = [rng_registry.stream("a").random() for _ in range(5)]
        b = [rng_registry.stream("b").random() for _ in range(5)]
        assert a != b

    def test_same_seed_reproducible_across_registries(self):
        first = RngRegistry(seed=99).stream("loss").random()
        second = RngRegistry(seed=99).stream("loss").random()
        assert first == second

    def test_different_seed_differs(self):
        first = RngRegistry(seed=1).stream("loss").random()
        second = RngRegistry(seed=2).stream("loss").random()
        assert first != second

    def test_spawn_is_deterministic(self):
        parent = RngRegistry(seed=5)
        child_a = parent.spawn("trial-1").stream("x").random()
        child_b = RngRegistry(seed=5).spawn("trial-1").stream("x").random()
        assert child_a == child_b

    def test_names_lists_created_streams(self, rng_registry):
        rng_registry.stream("b")
        rng_registry.stream("a")
        assert list(rng_registry.names()) == ["a", "b"]


class TestTraceRecorder:
    def test_records_and_filters_by_kind(self):
        trace = TraceRecorder()
        trace.record(1.0, "buffer", "enqueue", seq=1)
        trace.record(2.0, "buffer", "drop", seq=2)
        assert len(trace) == 2
        assert [row.get("seq") for row in trace.filter(kind="drop")] == [2]

    def test_kind_filter_drops_unwanted(self):
        trace = TraceRecorder(kinds={"drop"})
        trace.record(1.0, "buffer", "enqueue", seq=1)
        trace.record(2.0, "buffer", "drop", seq=2)
        assert len(trace) == 1

    def test_series_extraction(self):
        trace = TraceRecorder()
        trace.record(1.0, "buffer", "enqueue", occupancy=10)
        trace.record(2.0, "buffer", "enqueue", occupancy=20)
        assert trace.series("enqueue", "occupancy") == [(1.0, 10), (2.0, 20)]

    def test_listener_invoked(self):
        trace = TraceRecorder()
        seen = []
        trace.add_listener(lambda row: seen.append(row.kind))
        trace.record(0.0, "x", "ping")
        assert seen == ["ping"]

    def test_clear(self):
        trace = TraceRecorder()
        trace.record(0.0, "x", "ping")
        trace.clear()
        assert len(trace) == 0


def _bottleneck(capacity_packets: int):
    """Buffer -> 12 kbit/s link -> sink, with room for ``capacity_packets``."""
    buffer = Buffer(capacity_bits=12_000 * capacity_packets, name="buf")
    link = Throughput(rate_bps=12_000, name="link")
    sink = Collector(name="sink")
    buffer.connect(link)
    link.connect(sink)
    return buffer


class TestElementTracing:
    """Elements record only when someone asked for it."""

    def test_default_network_records_nothing(self, monkeypatch):
        networks, calls = [], []
        network_init = Network.__init__

        def spy_init(self, *args, **kwargs):
            network_init(self, *args, **kwargs)
            networks.append(self)

        monkeypatch.setattr(Network, "__init__", spy_init)
        monkeypatch.setattr(
            TraceRecorder, "record", lambda self, *args, **fields: calls.append(args)
        )
        metrics = many_flow_contention(flows=16, isender_flows=0, duration=4.0)
        assert metrics["events_processed"] > 1_000
        assert calls == []
        assert [len(network.trace) for network in networks] == [0]

    def test_trace_kinds_records_exactly_those_rows(self):
        network = Network(trace_kinds={"drop"})
        buffer = _bottleneck(capacity_packets=2)
        network.add(buffer)
        # t=0: seq 0 goes into service, 1-2 fill the buffer, 3-4 are dropped;
        # t=1.5: one slot has drained, so 5 fits and 6 is dropped.
        network.sim.schedule(0.0, lambda: [buffer.receive(Packet(seq, "f")) for seq in range(5)])
        network.sim.schedule(1.5, lambda: [buffer.receive(Packet(seq, "f")) for seq in (5, 6)])
        network.run()
        assert [(row.time, row.element, row.kind, row.fields) for row in network.trace] == [
            (0.0, "buf", "drop", {"seq": 3, "flow": "f", "occupancy": 24_000.0}),
            (0.0, "buf", "drop", {"seq": 4, "flow": "f", "occupancy": 24_000.0}),
            (1.5, "buf", "drop", {"seq": 6, "flow": "f", "occupancy": 24_000.0}),
        ]
        assert buffer.drop_count == 3

    def test_hand_attached_recorder_records_every_kind(self):
        sim, trace = Simulator(), TraceRecorder()
        buffer = _bottleneck(capacity_packets=1)
        for element in (buffer, buffer.downstream, buffer.downstream.downstream):
            element.attach(sim, trace=trace)
        sim.schedule(0.0, lambda: [buffer.receive(Packet(seq, "f")) for seq in range(3)])
        sim.run()
        assert [(row.element, row.kind, row.get("seq")) for row in trace] == [
            ("buf", "enqueue", 0),
            ("buf", "dequeue", 0),
            ("link", "tx_start", 0),
            ("buf", "enqueue", 1),
            ("buf", "drop", 2),
            ("link", "tx_done", 0),
            ("sink", "collect", 0),
            ("buf", "dequeue", 1),
            ("link", "tx_start", 1),
            ("link", "tx_done", 1),
            ("sink", "collect", 1),
        ]


class TestUnits:
    def test_byte_bit_roundtrip(self):
        assert bits_to_bytes(bytes_to_bits(1500)) == pytest.approx(1500)

    def test_rate_helpers(self):
        assert kbps(12) == pytest.approx(12_000)
        assert mbps(1.5) == pytest.approx(1_500_000)

    def test_time_helpers(self):
        assert from_ms(250) == pytest.approx(0.25)
        assert to_ms(0.25) == pytest.approx(250)

    def test_transmission_time(self):
        assert transmission_time(12_000, 12_000) == pytest.approx(1.0)

    def test_transmission_time_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            transmission_time(100, 0)

    def test_packets_to_bits(self):
        assert packets_to_bits(2) == pytest.approx(24_000)
