"""Tests for SERIES, DIVERTER, RECEIVER, COLLECTOR, and element wiring."""

from __future__ import annotations

import math
from collections import Counter

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.cellular import CellularLink
from repro.corpus import LinkTrace
from repro.elements import (
    Buffer,
    Collector,
    Delay,
    Diverter,
    Either,
    Intermittent,
    Jitter,
    Loss,
    Pinger,
    Receiver,
    Series,
    SquareWave,
    Throughput,
)
from repro.errors import ConfigurationError, WiringError
from repro.metrics.fairness import flow_rate_matrix
from repro.sim.element import Element, Network, SourceElement
from repro.sim.packet import Packet

NON_FINITE = [math.nan, math.inf, -math.inf]

TRACE = LinkTrace.constant(12_000.0, 10.0)

#: ``build(value)`` sets only ``field``.  Each used to construct with some
#: non-finite value and then hang, divide by zero or fail mid-run.
NON_FINITE_FIELDS = [
    pytest.param(field, build, id=f"{owner}.{field}")
    for owner, field, build in [
        ("Pinger", "rate_pps", lambda value: Pinger(rate_pps=value)),
        ("Pinger", "packet_bits", lambda value: Pinger(rate_pps=1.0, packet_bits=value)),
        ("Jitter", "delay", lambda value: Jitter(delay=value, probability=0.5)),
        ("SquareWave", "switch_interval", lambda value: SquareWave(switch_interval=value)),
        ("Intermittent", "mean_time_to_switch", lambda value: Intermittent(value)),
        ("Either", "mean_time_to_switch", lambda value: Either(Delay(0.0), Delay(0.0), value)),
        ("CellularLink", "buffer_bits", lambda value: CellularLink(TRACE, value)),
        (
            "CellularLink",
            "retransmit_delay",
            lambda value: CellularLink(TRACE, 1.0, retransmit_delay=value),
        ),
        (
            "CellularLink",
            "propagation_delay",
            lambda value: CellularLink(TRACE, 1.0, propagation_delay=value),
        ),
    ]
]


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
    @pytest.mark.parametrize("field, build", NON_FINITE_FIELDS)
    def test_sources_gates_and_links_name_the_field(self, field, build, value):
        """Refused at construction, naming the field, except that a buffer
        may be unbounded."""
        if field == "buffer_bits" and value == math.inf:
            assert build(value).buffer_bits == math.inf
            return
        with pytest.raises(ConfigurationError, match=field):
            build(value)


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

    def test_a_link_drains_one_buffer(self):
        # A second buffer used to replace the first as the link's upstream
        # queue, and every packet the first one queued stayed there.
        link = Throughput(rate_bps=12_000, name="link")
        first = Buffer(capacity_bits=48_000, name="first")
        first.connect(link)
        first.connect(link)  # the same buffer again is the same wiring
        with pytest.raises(WiringError, match="already drains a buffer"):
            Buffer(capacity_bits=48_000, name="second").connect(link)

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
        receiver = Receiver(name="rx")
        receiver.on_deliver = seen.append
        network.add(receiver)
        network.start()
        receiver.receive(Packet(seq=7, flow="f", size_bits=12_000, sent_at=0.0, created_at=0.0))
        assert receiver.count == 1
        assert seen[0].seq == 7
        assert seen[0].received_at - seen[0].sent_at == pytest.approx(0.0)
        assert receiver.bits_received == pytest.approx(12_000)

    def test_accept_flows_filters(self, network):
        receiver = Receiver(name="rx", accept_flows={"isender"})
        network.add(receiver)
        network.start()
        receiver.receive(Packet(seq=0, flow="isender"))
        receiver.receive(Packet(seq=1, flow="cross"))
        assert receiver.count == 1
        assert receiver.ignored_count == 1

    def test_delivery_columns_and_throughput(self, network):
        receiver = Receiver(name="rx")
        network.add(receiver)
        network.start()
        for seq in range(4):
            network.sim.schedule(float(seq), receiver.receive, Packet(seq=seq, flow="f", size_bits=8_000, sent_at=float(seq)))
        network.run()
        assert receiver.count == 4
        assert list(receiver.received_times) == [0.0, 1.0, 2.0, 3.0]
        assert receiver.throughput_bps(0.0, 4.0) == pytest.approx(8_000)
        assert receiver.mean_delay() == pytest.approx(0.0)

    def test_columns_pin_the_read_off_of_a_shared_receiver(self, network):
        # One receiver for two flows: (received_at, seq, flow, size_bits, sent_at).
        receiver = Receiver(name="rx")
        network.add(receiver)
        network.start()
        arrivals = [
            (0.5, 0, "a", 8_000.0, 0.25),
            (1.0, 0, "b", 4_000.0, 0.5),
            (1.5, 1, "a", 8_000.0, 1.0),
            (2.5, 1, "b", 4_000.0, 1.5),
            (3.5, 2, "a", 16_000.0, 3.0),
        ]
        for at, seq, flow, size, sent in arrivals:
            packet = Packet(seq=seq, flow=flow, size_bits=size, sent_at=sent)
            network.sim.schedule_at(at, receiver.receive, packet)
        network.run()
        assert receiver.count == 5
        assert list(receiver.seqs) == [0, 0, 1, 1, 2]
        assert list(receiver.flow_codes) == [0, 1, 0, 1, 0]
        assert list(receiver.sizes) == [size for _, _, _, size, _ in arrivals]
        assert list(receiver.sent_times) == [sent for *_, sent in arrivals]
        assert list(receiver.received_times) == [at for at, *_ in arrivals]
        assert receiver.throughput_bps(0.0, 2.0, flow="a") == 8_000.0
        assert receiver.throughput_bps(0.0, 2.0, flow="b") == 2_000.0
        assert receiver.throughput_bps(0.0, 4.0) == 10_000.0
        assert receiver.throughput_bps(0.0, 4.0, flow="c") == 0.0
        assert receiver.throughput_bps(2.0, 2.0) == 0.0
        assert receiver.mean_delay() == sum([0.25, 0.5, 0.5, 1.0, 0.5]) / 5
        windows, rates = flow_rate_matrix(
            {flow: receiver.arrivals(flow) for flow in ("a", "b")},
            start=0.0,
            end=4.0,
            window=2.0,
        )
        assert windows == [0.0, 2.0]
        assert rates == {"a": [8_000.0, 8_000.0], "b": [2_000.0, 2_000.0]}
        assert list(receiver.arrivals()) == [(at, size) for at, _, _, size, _ in arrivals]

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
        assert collector.flows["b"].bits == pytest.approx(4_000)
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


FLOWS = ("a", "b")


@st.composite
def leaves(draw):
    kind = draw(st.sampled_from(("buffer", "throughput", "delay", "loss", "jitter")))
    if kind == "buffer":
        return Buffer(capacity_bits=draw(st.integers(12_000, 120_000)))
    if kind == "throughput":
        return Throughput(rate_bps=draw(st.integers(20_000, 400_000)))
    if kind == "delay":
        return Delay(delay=draw(st.floats(0.0, 0.5)))
    if kind == "loss":
        return Loss(rate=draw(st.floats(0.0, 0.5)))
    return Jitter(delay=draw(st.floats(0.0, 0.5)), probability=draw(st.floats(0.0, 1.0)))


def wired(elements):
    """``(head, tails)`` of ``elements`` connected in order."""
    for upstream, downstream in zip(elements, elements[1:]):
        upstream.connect(downstream)
    return elements[0], [elements[-1]]


@st.composite
def stages(draw):
    """One element, or an EITHER / DIVERTER over two short chains."""
    kind = draw(st.sampled_from(("leaf", "leaf", "either", "diverter")))
    if kind == "leaf":
        return wired([draw(leaves())])
    first, first_tails = wired(draw(st.lists(leaves(), min_size=1, max_size=2)))
    second, second_tails = wired(draw(st.lists(leaves(), min_size=1, max_size=2)))
    if kind == "either":
        head = Either(first, second, mean_time_to_switch=draw(st.floats(0.1, 5.0)))
    else:
        head = Diverter("a", first, second)
    return head, first_tails + second_tails


class TestPacketConservation:
    """Every packet a finite source offers is delivered or dropped, whatever
    the graph: offered = delivered + dropped, flow by flow."""

    @seed(20261018)
    @settings(max_examples=60, deadline=None)
    @given(
        graph=st.lists(stages(), min_size=1, max_size=4),
        sends=st.lists(
            st.tuples(
                st.sampled_from(FLOWS), st.floats(0.0, 5.0), st.sampled_from((6_000, 12_000))
            ),
            min_size=1,
            max_size=40,
        ),
        network_seed=st.integers(0, 2**16),
    )
    def test_composed_graphs_conserve_packets(self, graph, sends, network_seed):
        sink = Collector(name="sink")
        for (_, tails), (head, _) in zip(graph, graph[1:] + [(sink, [])]):
            for index, tail in enumerate(tails):
                try:
                    tail.connect(head)
                except WiringError:
                    # Refused, not stranded: two buffers on one link.
                    assert isinstance(head, Throughput)
                    assert sum(isinstance(t, Buffer) for t in tails[: index + 1]) >= 2
                    return
        network = Network(seed=network_seed)
        source = graph[0][0]
        network.add(source)
        network.start()
        offered = []
        for seq, (flow, at, size) in enumerate(sends):
            packet = Packet(seq=seq, flow=flow, size_bits=size, created_at=at, sent_at=at)
            offered.append(packet)
            network.sim.schedule_at(at, source.receive, packet)
        # An EITHER keeps switching for good, so the run stops once the
        # graph has drained: every packet delivered or dropped.
        for _ in range(100):
            if all(p.delivered_at is not None or p.dropped_at is not None for p in offered):
                break
            network.run(until=network.sim.now + 10.0)
        dropped = Counter(p.flow for p in offered if p.dropped_at is not None)
        for flow, count in Counter(p.flow for p in offered).items():
            assert count == sink.count(flow) + dropped[flow], flow
