"""Tests for the synthetic cellular link substrate."""

from __future__ import annotations

import pytest

from repro.baselines import NewRenoSender
from repro.cellular import CellularLink, TraceDrivenLink
from repro.corpus import LinkTrace, RandomWalkLink
from repro.elements import Collector, Receiver
from repro.errors import ConfigurationError
from repro.sim.element import Network
from repro.sim.packet import Packet


def rate_at(trace, time):
    """The trace's rate at ``time``: the first segment ``segments_from`` yields."""
    return next(trace.segments_from(time))[0]


class TestRateProcess:
    """Figure 1's random walk, now the corpus's ``random_walk`` family (the
    class name keeps the test ids the walk had before it moved)."""

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RandomWalkLink(nominal_bps=0, min_bps=1, max_bps=2).build()
        with pytest.raises(ConfigurationError):
            RandomWalkLink(nominal_bps=5, min_bps=10, max_bps=20).build()
        with pytest.raises(ConfigurationError):
            RandomWalkLink(nominal_bps=15, min_bps=10, max_bps=20, step_interval=0).build()
        with pytest.raises(ConfigurationError):
            RandomWalkLink(nominal_bps=15, min_bps=10, max_bps=20, reversion=2.0).build()

    def test_rates_stay_within_bounds(self):
        trace = RandomWalkLink(nominal_bps=1e6, min_bps=2e5, max_bps=4e6, duration=120.0).build(3)
        for _, rate in trace.samples():
            assert 2e5 <= rate <= 4e6

    def test_rate_at_is_piecewise_constant_and_clamped(self):
        trace = RandomWalkLink(
            nominal_bps=1e6, min_bps=1e5, max_bps=4e6, step_interval=1.0, duration=10.0
        ).build()
        assert rate_at(trace, -5.0) == rate_at(trace, 0.0)
        assert rate_at(trace, 0.2) == rate_at(trace, 0.8)
        assert rate_at(trace, 1e9) == trace.samples()[-1][1]

    def test_deterministic_given_seed(self):
        family = RandomWalkLink(nominal_bps=1e6, min_bps=1e5, max_bps=4e6, duration=50.0)
        assert family.build(9).samples() == family.build(9).samples()
        assert family.build(9).samples() != family.build(10).samples()

    def test_reproduces_the_walk_it_replaced(self):
        # Computed at the parent of the PR that deleted cellular/trace.py:
        # LinkTrace.from_rate_process(RateProcess(4e6, 4e5, 1e7,
        # duration=40.0, seed=7)) — its digest and first/last three samples.
        trace = RandomWalkLink(4e6, 4e5, 1e7, duration=40.0).build(7)
        assert (
            trace.digest
            == "8c38cd2de7c9df05234686c6caf9054625441f20e49880f9604273c98b775bc0"
        )
        samples = trace.samples()
        assert len(samples) == 80
        assert samples[:3] == [
            (0.0, 3999999.9999999986),
            (0.5, 3657340.559338687),
            (1.0, 4433418.711855851),
        ]
        assert samples[-3:] == [
            (38.5, 926197.5579228594),
            (39.0, 1623941.997543431),
            (39.5, 2733813.093299906),
        ]

    def test_constant_process(self):
        trace = LinkTrace.constant(5e5, 30.0)
        assert trace.mean_rate() == pytest.approx(5e5)
        assert trace.min_rate() == pytest.approx(5e5)
        assert len(trace) > 0

    def test_constant_process_is_single_segment(self):
        # A fixed-rate link is one segment at any duration — a 600 s trace
        # must not materialize ~1,200 identical samples.
        trace = LinkTrace.constant(5e5, 600.0)
        assert len(trace) == 1
        assert rate_at(trace, 0.0) == pytest.approx(5e5)
        assert rate_at(trace, 599.9) == pytest.approx(5e5)

    def test_mean_and_min_are_cached_at_construction(self):
        # One meaning of mean_rate(): time-weighted over the duration, which
        # closes the last (here half-length) step at 30.25 s.
        trace = RandomWalkLink(nominal_bps=1e6, min_bps=1e5, max_bps=4e6, duration=30.25).build(4)
        rates = [rate for _, rate in trace.samples()]
        expected_mean = (sum(rates[:-1]) * 0.5 + rates[-1] * 0.25) / 30.25
        assert trace.mean_rate() == pytest.approx(expected_mean)
        assert trace.mean_rate() != pytest.approx(sum(rates) / len(rates))
        assert trace.min_rate() == min(rates)


class TestCellularLink:
    def make_link(self, **overrides):
        defaults = dict(
            rate_process=LinkTrace.constant(1_200_000.0, 300.0),
            buffer_bits=1_200_000.0,
            loss_rate=0.0,
            propagation_delay=0.0,
        )
        defaults.update(overrides)
        return CellularLink(**defaults)

    def test_validation(self):
        process = LinkTrace.constant(1e6, 600.0)
        with pytest.raises(ConfigurationError):
            CellularLink(process, buffer_bits=0)
        with pytest.raises(ConfigurationError):
            CellularLink(process, buffer_bits=1, loss_rate=1.0)

    def test_serves_packets_at_link_rate(self):
        network = Network(seed=0)
        link = self.make_link()
        sink = Collector(name="sink")
        link.connect(sink)
        network.add(link)
        network.start()
        for seq in range(3):
            link.receive(Packet(seq=seq, flow="f", size_bits=12_000, sent_at=0.0))
        network.run()
        assert [p.delivered_at for p in sink.packets] == pytest.approx([0.01, 0.02, 0.03])

    def test_deep_buffer_builds_queueing_delay(self):
        network = Network(seed=0)
        link = self.make_link(buffer_bits=2_400_000.0)
        sink = Collector(name="sink")
        link.connect(sink)
        network.add(link)
        network.start()
        for seq in range(100):
            link.receive(Packet(seq=seq, flow="f", size_bits=12_000, sent_at=0.0))
        assert link.peak_occupancy_bits == pytest.approx(99 * 12_000)
        network.run()
        assert sink.packets[-1].delivered_at == pytest.approx(1.0, rel=0.05)

    def test_tail_drop_when_buffer_full(self):
        network = Network(seed=0)
        link = self.make_link(buffer_bits=24_000.0)
        sink = Collector(name="sink")
        link.connect(sink)
        network.add(link)
        network.start()
        for seq in range(10):
            link.receive(Packet(seq=seq, flow="f", size_bits=12_000, sent_at=0.0))
        assert link.drop_count > 0

    def test_loss_is_hidden_behind_retransmission(self):
        network = Network(seed=1)
        link = self.make_link(loss_rate=0.3, retransmit_delay=0.05)
        sink = Collector(name="sink")
        link.connect(sink)
        network.add(link)
        network.start()
        for seq in range(200):
            network.sim.schedule(seq * 0.02, link.receive, Packet(seq=seq, flow="f", size_bits=12_000, sent_at=seq * 0.02))
        network.run()
        # Nothing is lost end-to-end...
        assert sink.count() == 200
        # ...but the loss shows up as link-layer retransmissions (delay).
        assert link.link_layer_retransmissions > 20

    def test_gives_up_after_max_attempts(self):
        network = Network(seed=1)
        link = self.make_link(loss_rate=0.9)
        sink = Collector(name="sink")
        link.connect(sink)
        network.add(link)
        network.start()
        for seq in range(50):
            link.receive(Packet(seq=seq, flow="f", size_bits=12_000, sent_at=0.0))
        network.run()
        assert link.abandoned_packets > 0
        assert sink.count() + link.abandoned_packets + link.drop_count == 50


class TestBufferbloatMechanism:
    def test_tcp_inflates_rtt_on_deep_buffer(self):
        """The Figure-1 mechanism in miniature: RTT grows with the queue."""
        network = Network(seed=2)
        process = LinkTrace.constant(1_000_000.0, 200.0)
        link = CellularLink(
            rate_process=process,
            buffer_bits=8.0 * 1_000_000.0,
            loss_rate=0.02,
            propagation_delay=0.03,
        )
        receiver = Receiver(name="rx", accept_flows={"tcp"})
        sender = NewRenoSender(receiver, flow="tcp", initial_ssthresh=1e9)
        sender.connect(link)
        link.connect(receiver)
        network.add(sender)
        network.run(until=60.0)
        rtts = [rtt for _, rtt in sender.rtt_series()]
        assert min(rtts) < 0.2
        assert max(rtts) > 10 * min(rtts)


class TestTraceDrivenLink:
    def test_service_rate_follows_the_trace(self):
        from repro.elements import Buffer

        # 1 Mbps for 6 s, then 4 Mbps: draining the same backlog speeds up 4x.
        # 2000 x 12 kbit = 24 Mbit of backlog keeps the link busy past 10 s.
        trace = LinkTrace(times=[0.0, 6.0], rates=[1e6, 4e6], duration=60.0)
        network = Network(seed=0)
        buffer = Buffer(capacity_bits=30e6, name="buf")
        link = TraceDrivenLink(trace, name="link")
        sink = Collector(name="sink")
        buffer.connect(link)
        link.connect(sink)
        network.add(buffer)
        network.start()
        for seq in range(2000):
            buffer.receive(Packet(seq=seq, flow="f", size_bits=12_000, sent_at=0.0))
        network.run(until=12.0)
        slow = sink.throughput_bps(0.0, 6.0)
        fast = sink.throughput_bps(6.0, 10.0)
        assert slow == pytest.approx(1e6, rel=0.05)
        assert fast == pytest.approx(4e6, rel=0.05)


class TestSegmentIterators:
    """`segments_from`: the iterator `service_time` integrates across."""

    def test_link_trace_segments_cover_and_clamp(self):
        trace = LinkTrace(times=[0.0, 1.0, 2.0], rates=[8e6, 1e5, 4e6], duration=3.0)
        assert list(trace.segments_from(0.5)) == [
            (8e6, 1.0),
            (1e5, 2.0),
            (4e6, float("inf")),
        ]
        # Starting past the last sample yields only the unbounded tail.
        assert list(trace.segments_from(9.0)) == [(4e6, float("inf"))]
        # The first yielded rate is the one in force at `start`.
        for start, rate in ((0.0, 8e6), (0.9999, 8e6), (1.0, 1e5), (1.5, 1e5), (100.0, 4e6)):
            assert rate_at(trace, start) == rate

    def test_rate_process_segments_match_rate_at(self):
        trace = RandomWalkLink(
            nominal_bps=1e6, min_bps=1e5, max_bps=1e7, duration=5.0
        ).build(4)
        segments = list(trace.segments_from(0.0))
        assert len(segments) == 10
        assert segments[-1][1] == float("inf")
        assert segments[0][0] == trace.samples()[0][1]
        # A fixed-rate link is one unbounded segment.
        constant = LinkTrace.constant(5e6, 600.0)
        assert list(constant.segments_from(0.0)) == [(5e6, float("inf"))]


class TestTraceDrivenLinkSatellites:
    """Regressions for the trace-link hot-path fixes: segment-integrated
    service, the deep-fade rate floor, and the mean-rate nominal."""

    def test_packet_straddling_sharp_rate_drop_pays_for_it(self):
        # 1 Mbps for 10 ms, then 10 kbps.  A 12 kbit packet starting at t=0
        # drains 10 kbit in the fast segment and the remaining 2 kbit at
        # 10 kbps: delivery at 0.01 + 2000/1e4 = 0.21 s.  The old one-sample
        # service time would have finished the whole packet at the stale
        # 1 Mbps (0.012 s), skipping the drop entirely.
        trace = LinkTrace(times=[0.0, 0.01], rates=[1e6, 1e4], duration=10.0)
        network = Network(seed=0)
        link = TraceDrivenLink(trace, name="link")
        sink = Collector(name="sink")
        link.connect(sink)
        network.add(link)
        network.start()
        link.receive(Packet(seq=0, flow="f", size_bits=12_000, sent_at=0.0))
        network.run(until=5.0)
        assert [p.delivered_at for p in sink.packets] == pytest.approx([0.21])

    def test_cellular_link_packet_straddling_sharp_rate_drop_pays_for_it(self):
        # The same trace and arithmetic through CellularLink, which used to
        # divide by the rate sampled when the attempt began (0.012 s).
        trace = LinkTrace(times=[0.0, 0.01], rates=[1e6, 1e4], duration=10.0)
        network = Network(seed=0)
        link = CellularLink(trace, buffer_bits=1e6, propagation_delay=0.0)
        sink = Collector(name="sink")
        link.connect(sink)
        network.add(link)
        network.start()
        link.receive(Packet(seq=0, flow="f", size_bits=12_000, sent_at=0.0))
        network.run(until=5.0)
        assert [p.delivered_at for p in sink.packets] == pytest.approx([0.21])

    def test_constant_trace_service_is_bit_identical_to_single_rate(self):
        process = LinkTrace.constant(1_200_000.0, 300.0)
        network = Network(seed=0)
        link = TraceDrivenLink(process, name="link")
        sink = Collector(name="sink")
        link.connect(sink)
        network.add(link)
        network.start()
        for seq in range(3):
            link.receive(Packet(seq=seq, flow="f", size_bits=12_000, sent_at=0.0))
        network.run()
        assert [p.delivered_at for p in sink.packets] == [
            12_000 / 1_200_000.0 * n for n in (1, 2, 3)
        ]

    def test_deep_fade_loss_burst_trace_is_floored(self):
        from repro.corpus.generators import CorrelatedLossBurstLink
        from repro.corpus.trace import MIN_SERVICE_RATE_BPS

        # Good for 0.5 s at 4 Mbps, then a micro-bps fade forever: without
        # the rate floor the first fade packet would serialize for ~3e9 s,
        # silently stalling the link.  With the floor each fade packet takes
        # size / MIN_SERVICE_RATE_BPS = 12 s.
        trace = CorrelatedLossBurstLink(
            bad_rate_fraction=1e-9,
            p_good_to_bad=1.0,
            p_bad_to_good=0.0,
            step_interval=0.5,
            duration=2.0,
        ).build(seed=0)
        assert trace.min_rate() < MIN_SERVICE_RATE_BPS  # hazard is real
        network = Network(seed=0)
        link = TraceDrivenLink(trace, name="link")
        sink = Collector(name="sink")
        link.connect(sink)
        network.add(link)
        network.start()
        for seq in range(300):
            link.receive(Packet(seq=seq, flow="f", size_bits=12_000, sent_at=0.0))
        network.run(until=40.0)
        fade_deliveries = [p for p in sink.packets if p.delivered_at > 0.5]
        assert len(fade_deliveries) >= 2

    def test_cellular_link_floors_fade_divisions(self):
        from repro.corpus.generators import CorrelatedLossBurstLink

        trace = CorrelatedLossBurstLink(
            bad_rate_fraction=1e-9,
            p_good_to_bad=1.0,
            p_bad_to_good=0.0,
            step_interval=0.5,
            duration=2.0,
        ).build(seed=0)
        network = Network(seed=0)
        link = CellularLink(trace, buffer_bits=4e6, propagation_delay=0.0)
        sink = Collector(name="sink")
        link.connect(sink)
        network.add(link)
        network.start()
        for seq in range(300):
            link.receive(Packet(seq=seq, flow="f", size_bits=12_000, sent_at=0.0))
        network.run(until=40.0)
        # Fade-segment service attempts complete at the floored rate too.
        fade_deliveries = [p for p in sink.packets if p.delivered_at > 0.5]
        assert len(fade_deliveries) >= 2

    def test_nominal_rate_reports_trace_mean_not_first_sample(self):
        # A trace that *starts* in an outage: the first sample would
        # advertise a misleading ~0 nominal rate.
        trace = LinkTrace(times=[0.0, 1.0], rates=[1e4, 4e6], duration=2.0)
        link = TraceDrivenLink(trace, name="link")
        assert link.rate_bps == trace.mean_rate()
        assert link.rate_bps != trace.samples()[0][1]
        # Constant traces are unchanged: mean == first sample.
        process = LinkTrace.constant(5e6, 600.0)
        assert TraceDrivenLink(process, name="c").rate_bps == 5e6
