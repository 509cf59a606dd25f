"""Tests for the BUFFER + THROUGHPUT queueing pair and the DELAY element."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.elements import Buffer, Collector, Delay, Throughput
from repro.errors import ConfigurationError
from repro.sim.element import Network
from repro.sim.packet import Packet


def make_chain(network, capacity_bits=48_000, rate_bps=12_000, initial_fill=0.0):
    """Buffer -> Throughput -> Collector attached to ``network``."""
    buffer = Buffer(capacity_bits=capacity_bits, initial_fill_bits=initial_fill, name="buf")
    link = Throughput(rate_bps=rate_bps, name="link")
    sink = Collector(name="sink")
    buffer.connect(link)
    link.connect(sink)
    network.add(buffer)
    return buffer, link, sink


class TestThroughput:
    def test_single_packet_takes_serialization_time(self, network):
        link = Throughput(rate_bps=12_000, name="link")
        sink = Collector(name="sink")
        link.connect(sink)
        network.add(link)
        network.start()
        link.receive(Packet(seq=0, flow="f", size_bits=12_000, sent_at=0.0))
        network.run()
        assert sink.count() == 1
        assert sink.packets[0].delivered_at == pytest.approx(1.0)

    def test_back_to_back_packets_queue_internally(self, network):
        link = Throughput(rate_bps=12_000, name="link")
        sink = Collector(name="sink")
        link.connect(sink)
        network.add(link)
        network.start()
        for seq in range(3):
            link.receive(Packet(seq=seq, flow="f", size_bits=12_000, sent_at=0.0))
        network.run()
        deliveries = [p.delivered_at for p in sink.packets]
        assert deliveries == pytest.approx([1.0, 2.0, 3.0])
        assert link.packets_transmitted == 3
        assert link.bits_transmitted == pytest.approx(36_000)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ConfigurationError):
            Throughput(rate_bps=0)

    def test_idle_flag(self, network):
        link = Throughput(rate_bps=1_000, name="link")
        link.connect(Collector(name="sink"))
        network.add(link)
        network.start()
        assert link.idle
        link.receive(Packet(seq=0, flow="f", size_bits=1_000))
        assert not link.idle
        network.run()
        assert link.idle


class TestBuffer:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Buffer(capacity_bits=0)
        with pytest.raises(ConfigurationError):
            Buffer(capacity_bits=100, initial_fill_bits=200)

    def test_packets_flow_through_fifo(self, network):
        buffer, link, sink = make_chain(network)
        network.start()
        for seq in range(3):
            buffer.receive(Packet(seq=seq, flow="f", size_bits=12_000, sent_at=0.0))
        network.run()
        assert [p.seq for p in sink.packets] == [0, 1, 2]
        assert buffer.drop_count == 0

    def test_tail_drop_when_full(self, network):
        # Capacity of 24,000 bits holds two 12,000-bit packets in the queue;
        # one more is in service at the link, so the 4th and later arrivals
        # of an instantaneous burst are dropped.
        buffer, link, sink = make_chain(network, capacity_bits=24_000)
        network.start()
        packets = [Packet(seq=seq, flow="f", size_bits=12_000, sent_at=0.0) for seq in range(6)]
        for packet in packets:
            buffer.receive(packet)
        assert buffer.drop_count == 3
        assert buffer.drops_by_flow == {"f": 3}
        network.run()
        assert sink.count() == 3
        assert [p.seq for p in sink.packets] == [0, 1, 2]
        dropped = [p for p in packets if p.dropped_at is not None]
        assert [p.seq for p in dropped] == [3, 4, 5]
        assert {p.drop_reason for p in dropped} == {buffer.name}

    def test_occupancy_tracks_queue(self, network):
        buffer, link, sink = make_chain(network, capacity_bits=48_000)
        network.start()
        assert buffer.peak_occupancy_bits == 0
        for seq in range(3):
            buffer.receive(Packet(seq=seq, flow="f", size_bits=12_000, sent_at=0.0))
        # One packet is in service, two remain queued.
        assert buffer.peak_occupancy_bits == pytest.approx(24_000)
        network.run()
        assert buffer.pull() is None
        assert [p.seq for p in sink.packets] == [0, 1, 2]

    def test_initial_fill_delays_first_packet(self, network):
        # 24,000 bits of background fill ahead of us on a 12,000 bit/s link
        # delays our first packet by 2 seconds of drain plus its own
        # serialization time.
        buffer, link, sink = make_chain(network, capacity_bits=96_000, initial_fill=24_000)
        network.start()
        buffer.receive(Packet(seq=0, flow="f", size_bits=12_000, sent_at=0.0))
        network.run()
        ours = [p for p in sink.packets if p.flow == "f"]
        assert len(ours) == 1
        assert ours[0].delivered_at == pytest.approx(3.0)
        background = [p for p in sink.packets if p.flow == "background"]
        assert sum(p.size_bits for p in background) == pytest.approx(24_000)

    def test_pass_through_without_draining_link(self, network):
        buffer = Buffer(capacity_bits=12_000, name="buf")
        sink = Collector(name="sink")
        buffer.connect(sink)
        network.add(buffer)
        network.start()
        for seq in range(5):
            buffer.receive(Packet(seq=seq, flow="f", size_bits=12_000))
        assert sink.count() == 5
        assert buffer.drop_count == 0


    def test_flows_share_one_fifo(self, network):
        buffer, link, sink = make_chain(network, capacity_bits=48_000)
        network.start()
        arrivals = ["a", "b", "b", "a"]
        for seq, flow in enumerate(arrivals):
            buffer.receive(Packet(seq=seq, flow=flow, size_bits=12_000, sent_at=0.0))
        network.run()
        assert [(p.flow, p.seq) for p in sink.packets] == list(zip(arrivals, range(4)))
        assert sink.count("a") == 2 and sink.count("b") == 2

    def test_initial_fill_is_queued_as_the_filler_cut(self, network):
        buffer = Buffer(capacity_bits=48_000, initial_fill_bits=30_000)
        link = Throughput(rate_bps=12_000)
        sink = Collector()
        buffer.connect(link)
        link.connect(sink)
        network.add(buffer)
        network.run()
        assert [p.size_bits for p in sink.packets] == pytest.approx([12_000, 12_000, 6_000])
        assert {p.flow for p in sink.packets} == {"background"}
        assert [p.delivered_at for p in sink.packets] == pytest.approx([1.0, 2.0, 2.5])


class TestDelay:
    def test_fixed_delay(self, network):
        delay = Delay(delay=0.5, name="delay")
        sink = Collector(name="sink")
        delay.connect(sink)
        network.add(delay)
        network.start()
        delay.receive(Packet(seq=0, flow="f", sent_at=0.0))
        network.run()
        assert sink.packets[0].delivered_at == pytest.approx(0.5)

    def test_zero_delay_is_synchronous(self, network):
        delay = Delay(delay=0.0, name="delay")
        sink = Collector(name="sink")
        delay.connect(sink)
        network.add(delay)
        network.start()
        delay.receive(Packet(seq=0, flow="f"))
        assert sink.count() == 1

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            Delay(delay=-1.0)

    def test_preserves_order(self, network):
        delay = Delay(delay=0.25, name="delay")
        sink = Collector(name="sink")
        delay.connect(sink)
        network.add(delay)
        network.start()
        network.sim.schedule(0.0, delay.receive, Packet(seq=0, flow="f"))
        network.sim.schedule(0.1, delay.receive, Packet(seq=1, flow="f"))
        network.run()
        assert [p.seq for p in sink.packets] == [0, 1]


class TestQueueingProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=1_000, max_value=20_000), min_size=1, max_size=20),
        capacity=st.integers(min_value=10_000, max_value=200_000),
    )
    def test_conservation_delivered_plus_dropped_equals_offered(self, sizes, capacity):
        network = Network(seed=1)
        buffer = Buffer(capacity_bits=capacity, name="buf")
        link = Throughput(rate_bps=10_000, name="link")
        sink = Collector(name="sink")
        buffer.connect(link)
        link.connect(sink)
        network.add(buffer)
        network.start()
        packets = [
            Packet(seq=seq, flow="f", size_bits=size, sent_at=0.0) for seq, size in enumerate(sizes)
        ]
        for packet in packets:
            buffer.receive(packet)
        network.run()
        assert sink.count() + buffer.drop_count == len(sizes)
        assert buffer.drops_by_flow == ({"f": buffer.drop_count} if buffer.drop_count else {})
        delivered_bits = sum(p.size_bits for p in sink.packets)
        dropped_bits = sum(p.size_bits for p in packets if p.dropped_at is not None)
        assert delivered_bits + dropped_bits == pytest.approx(sum(sizes))

    @settings(max_examples=30, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=1_000, max_value=20_000), min_size=1, max_size=20),
    )
    def test_occupancy_never_exceeds_capacity(self, sizes):
        capacity = 50_000
        network = Network(seed=1)
        buffer = Buffer(capacity_bits=capacity, name="buf")
        link = Throughput(rate_bps=5_000, name="link")
        buffer.connect(link)
        link.connect(Collector(name="sink"))
        network.add(buffer)
        network.start()
        for seq, size in enumerate(sizes):
            buffer.receive(Packet(seq=seq, flow="f", size_bits=size, sent_at=0.0))
            assert buffer.peak_occupancy_bits <= capacity + 1e-6
        network.run()
        assert buffer.pull() is None
