"""Tests for the fast link model, including agreement with the element simulator."""

from __future__ import annotations

import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.elements import Buffer, Collector, Pinger, Throughput
from repro.errors import ConfigurationError, InferenceError
from repro.inference.linkmodel import CROSS, LinkModel, LinkModelParams
from repro.sim.element import Network
from repro.sim.packet import Packet
from repro.units import MAX_FILLER_PACKETS, filler_packet_sizes


def simple_params(**overrides) -> LinkModelParams:
    defaults = dict(
        link_rate_bps=12_000.0,
        buffer_capacity_bits=96_000.0,
        initial_fill_bits=0.0,
        loss_rate=0.0,
        cross_rate_pps=0.0,
    )
    defaults.update(overrides)
    return LinkModelParams(**defaults)


class TestParamsValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            LinkModelParams(link_rate_bps=0, buffer_capacity_bits=1)
        with pytest.raises(ConfigurationError):
            LinkModelParams(link_rate_bps=1, buffer_capacity_bits=0)
        with pytest.raises(ConfigurationError):
            LinkModelParams(link_rate_bps=1, buffer_capacity_bits=1, loss_rate=2.0)
        with pytest.raises(ConfigurationError):
            LinkModelParams(link_rate_bps=1, buffer_capacity_bits=1, initial_fill_bits=2)
        with pytest.raises(ConfigurationError):
            LinkModelParams(link_rate_bps=1, buffer_capacity_bits=1, mean_time_to_switch=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("filler_packet_bits", 0.0),
            ("filler_packet_bits", -1.0),
            ("filler_packet_bits", math.nan),
            ("filler_packet_bits", math.inf),
            ("cross_packet_bits", 0.0),
            ("cross_packet_bits", math.nan),
            ("link_rate_bps", math.nan),
            ("link_rate_bps", math.inf),
            ("buffer_capacity_bits", math.inf),
            ("initial_fill_bits", math.nan),
            ("loss_rate", math.nan),
            ("cross_rate_pps", math.nan),
            ("cross_rate_pps", math.inf),
            ("mean_time_to_switch", math.nan),
            ("mean_time_to_switch", math.inf),
        ],
    )
    def test_rejects_non_finite_and_empty_packets(self, field, value):
        """NaN passes every ``<= 0`` check, and a 0-bit filler packet made
        ``LinkModel`` append packets until memory ran out."""
        with pytest.raises(ConfigurationError, match=field):
            simple_params(**{"initial_fill_bits": 5_000.0, field: value})

    def test_derived_properties(self):
        params = simple_params(cross_rate_pps=0.5, cross_packet_bits=10_000)
        assert params.cross_rate_bps == pytest.approx(5_000)
        assert params.has_cross_traffic


class TestHostileFills:
    @pytest.mark.parametrize("filler", [0.0, math.nan, 1e-300])
    def test_a_fill_in_hostile_filler_packets_is_refused_at_once(self, filler):
        """A 0-bit or NaN filler once built a ``Buffer`` without error, and
        a 1e-300-bit one made the fill rule, hence ``LinkModel`` and the
        started ``Buffer``, cut packets forever."""
        builds = [
            lambda: LinkModel(simple_params(initial_fill_bits=5_000.0, filler_packet_bits=filler)),
            lambda: Buffer(capacity_bits=96_000, initial_fill_bits=5_000, filler_packet_bits=filler),
        ]
        for build in builds:
            started = time.monotonic()
            with pytest.raises(ConfigurationError, match="filler"):
                build()
            assert time.monotonic() - started < 1.0

    def test_the_fill_rule_counts_packets_before_it_cuts_them(self):
        with pytest.raises(ConfigurationError, match=str(MAX_FILLER_PACKETS)):
            filler_packet_sizes(5_000.0, 5_000.0 / (2 * MAX_FILLER_PACKETS))
        assert len(filler_packet_sizes(float(MAX_FILLER_PACKETS), 1.0)) == MAX_FILLER_PACKETS
        for fill, filler in ((5_000.0, 0.0), (5_000.0, math.nan), (math.nan, 1.0), (-1.0, 1.0)):
            with pytest.raises(ConfigurationError):
                filler_packet_sizes(fill, filler)


class TestOwnTraffic:
    def test_single_packet_service_time(self):
        model = LinkModel(simple_params())
        model.send_own(0, 12_000, 0.0)
        model.advance(5.0)
        prediction = model.predictions[0]
        assert prediction.delivered
        assert prediction.time == pytest.approx(1.0)
        assert prediction.survival == pytest.approx(1.0)

    def test_back_to_back_packets_queue(self):
        model = LinkModel(simple_params())
        for seq in range(3):
            model.send_own(seq, 12_000, 0.0)
        model.advance(10.0)
        times = [model.predictions[seq].time for seq in range(3)]
        assert times == pytest.approx([1.0, 2.0, 3.0])

    def test_send_in_past_rejected(self):
        model = LinkModel(simple_params())
        model.advance(5.0)
        with pytest.raises(InferenceError):
            model.send_own(0, 12_000, 1.0)

    def test_advance_backwards_rejected(self):
        model = LinkModel(simple_params())
        model.advance(5.0)
        with pytest.raises(InferenceError):
            model.advance(1.0)

    def test_loss_rate_sets_survival(self):
        model = LinkModel(simple_params(loss_rate=0.2))
        model.send_own(0, 12_000, 0.0)
        model.advance(2.0)
        assert model.predictions[0].survival == pytest.approx(0.8)

    def test_tail_drop_of_own_packet(self):
        model = LinkModel(simple_params(buffer_capacity_bits=24_000))
        for seq in range(6):
            model.send_own(seq, 12_000, 0.0)
        dropped = [seq for seq, pred in model.predictions.items() if not pred.delivered]
        assert dropped == [3, 4, 5]

    def test_initial_fill_delays_first_packet(self):
        model = LinkModel(simple_params(initial_fill_bits=24_000))
        model.send_own(0, 12_000, 0.0)
        model.advance(10.0)
        assert model.predictions[0].time == pytest.approx(3.0)
        assert model.cross.delivered_bits() == pytest.approx(24_000)

    def test_projected_delivery_for_queued_packet(self):
        model = LinkModel(simple_params())
        for seq in range(3):
            model.send_own(seq, 12_000, 0.0)
        assert model.projected_delivery(0) == pytest.approx(1.0)
        assert model.projected_delivery(2) == pytest.approx(3.0)
        assert model.projected_delivery(99) is None

    def test_predicted_delivery_if_sent_now(self):
        model = LinkModel(simple_params())
        assert model.predicted_delivery_if_sent_now(12_000) == pytest.approx(1.0)
        model.send_own(0, 12_000, 0.0)
        assert model.predicted_delivery_if_sent_now(12_000) == pytest.approx(2.0)


class TestCrossTraffic:
    def test_isochronous_cross_deliveries(self):
        model = LinkModel(simple_params(cross_rate_pps=0.5, cross_packet_bits=12_000))
        model.advance(10.0)
        # Arrivals at 0, 2, 4, 6, 8 -> deliveries at 1, 3, 5, 7, 9.
        assert [t for t, _ in model.cross.deliveries] == pytest.approx([1.0, 3.0, 5.0, 7.0, 9.0])

    def test_gate_off_stops_cross_traffic(self):
        model = LinkModel(
            simple_params(cross_rate_pps=0.5, mean_time_to_switch=100.0, cross_initially_on=False)
        )
        model.advance(10.0)
        assert model.cross.deliveries == []

    def test_set_gate_on_resumes_arrivals(self):
        model = LinkModel(
            simple_params(cross_rate_pps=1.0, mean_time_to_switch=100.0, cross_initially_on=False)
        )
        model.advance(5.0)
        model.set_gate(True)
        model.advance(8.0)
        assert len(model.cross.deliveries) == 3

    def test_cross_drops_when_buffer_full(self):
        model = LinkModel(
            simple_params(buffer_capacity_bits=12_000, cross_rate_pps=2.0, cross_packet_bits=12_000)
        )
        model.advance(3.0)
        assert len(model.cross.drops) > 0

    def test_cross_backlog_bits(self):
        model = LinkModel(simple_params(initial_fill_bits=36_000))
        assert model.cross_backlog_bits() == pytest.approx(36_000)
        model.advance(1.0)
        assert model.cross_backlog_bits() == pytest.approx(24_000)

    def test_own_and_cross_share_fifo(self):
        model = LinkModel(simple_params(cross_rate_pps=1.0, cross_packet_bits=12_000))
        model.advance(0.5)
        model.send_own(0, 12_000, 0.5)
        model.advance(5.0)
        # Cross packet at t=0 is in service until t=1; ours follows at t=2.
        assert model.predictions[0].time == pytest.approx(2.0)


class TestCloneAndSignature:
    def test_clone_is_independent(self):
        model = LinkModel(simple_params())
        model.send_own(0, 12_000, 0.0)
        duplicate = model.clone()
        duplicate.advance(5.0)
        assert 0 in duplicate.predictions
        assert 0 not in model.predictions
        assert model.time == pytest.approx(0.0)

    def test_clone_without_history_drops_tallies(self):
        model = LinkModel(simple_params(initial_fill_bits=12_000))
        model.advance(5.0)
        assert model.cross.deliveries
        bare = model.clone(keep_history=False)
        assert bare.cross.deliveries == []
        assert bare.time == model.time

    def test_clone_shares_immutable_entries_and_never_changes_the_original(self):
        model = LinkModel(simple_params(initial_fill_bits=36_000.0))
        model.send_own(0, 12_000, 0.0)
        before = model.export_state()
        duplicate = model.clone()
        assert duplicate._in_service is model._in_service
        assert all(a is b for a, b in zip(duplicate._queue, model._queue))
        duplicate._queue.popleft()
        duplicate._queue.append((CROSS, 99, 1.0))
        duplicate.advance(10.0)
        assert model.export_state() == before
        with pytest.raises(TypeError):
            model._queue[0][2] = 0.0
        with pytest.raises(AttributeError):
            model._in_service.seq = 5

    def test_export_and_rebuild_share_entries(self):
        model = LinkModel(simple_params(initial_fill_bits=30_000.0))
        state = model.export_state()
        assert state["queue"] == [(CROSS, -2, 12_000.0), (CROSS, -3, 6_000.0)]
        assert state["in_service"] == (CROSS, -1, 12_000.0)
        rebuilt = LinkModel.from_state(model.params, state)
        assert list(rebuilt._queue) == state["queue"]
        assert rebuilt._queue[0] is model._queue[0]
        rebuilt._queue.pop()
        assert len(model._queue) == 2

    def test_signatures_match_for_identical_states(self):
        first = LinkModel(simple_params(cross_rate_pps=0.5))
        second = LinkModel(simple_params(cross_rate_pps=0.5))
        first.advance(3.0)
        second.advance(3.0)
        assert first.signature() == second.signature()

    def test_signatures_differ_for_different_gate_states(self):
        params = simple_params(cross_rate_pps=0.5, mean_time_to_switch=10.0)
        first = LinkModel(params)
        second = LinkModel(params)
        second.set_gate(False)
        assert first.signature() != second.signature()


class TestAgreementWithElementSimulator:
    """The fast model must agree with the element-level simulator on
    deterministic scenarios — this is the fidelity test DESIGN.md promises."""

    @settings(max_examples=25, deadline=None)
    @given(
        send_gaps=st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=1, max_size=12),
        link_rate=st.sampled_from([8_000.0, 12_000.0, 16_000.0]),
        capacity=st.sampled_from([24_000.0, 48_000.0, 96_000.0]),
    )
    def test_own_flow_delivery_times_match(self, send_gaps, link_rate, capacity):
        send_times = []
        current = 0.0
        for gap in send_gaps:
            current += gap
            send_times.append(current)

        # Element-level simulation.
        network = Network(seed=0)
        buffer = Buffer(capacity_bits=capacity, name="buf")
        link = Throughput(rate_bps=link_rate, name="link")
        sink = Collector(name="sink")
        buffer.connect(link)
        link.connect(sink)
        network.add(buffer)
        network.start()
        for seq, time in enumerate(send_times):
            network.sim.schedule_at(
                time,
                buffer.receive,
                Packet(seq=seq, flow="own", size_bits=12_000, sent_at=time),
            )
        network.run()
        element_deliveries = {p.seq: p.delivered_at for p in sink.packets}

        # Fast model.
        model = LinkModel(
            LinkModelParams(link_rate_bps=link_rate, buffer_capacity_bits=capacity)
        )
        for seq, time in enumerate(send_times):
            model.send_own(seq, 12_000, time)
        model.advance(send_times[-1] + 200.0)
        model_deliveries = {
            seq: pred.time for seq, pred in model.predictions.items() if pred.delivered
        }

        assert set(model_deliveries) == set(element_deliveries)
        for seq, expected in element_deliveries.items():
            assert model_deliveries[seq] == pytest.approx(expected, abs=1e-6)

    def test_cross_traffic_delivery_times_match(self):
        link_rate, capacity, cross_pps = 12_000.0, 96_000.0, 0.7
        network = Network(seed=0)
        pinger = Pinger(rate_pps=cross_pps, packet_bits=12_000, flow="cross", name="pinger")
        buffer = Buffer(capacity_bits=capacity, name="buf")
        link = Throughput(rate_bps=link_rate, name="link")
        sink = Collector(name="sink")
        pinger.connect(buffer)
        buffer.connect(link)
        link.connect(sink)
        network.add(pinger)
        network.run(until=30.0)
        element_times = sorted(p.delivered_at for p in sink.packets)

        model = LinkModel(
            LinkModelParams(
                link_rate_bps=link_rate,
                buffer_capacity_bits=capacity,
                cross_rate_pps=cross_pps,
                cross_packet_bits=12_000,
            )
        )
        model.advance(30.0)
        model_times = sorted(t for t, _ in model.cross.deliveries)
        assert len(model_times) == len(element_times)
        for ours, theirs in zip(model_times, element_times):
            assert ours == pytest.approx(theirs, abs=1e-6)


class TestAdvanceComposes:
    """advance(t₁+t₂) ≡ advance(t₁)∘advance(t₂): where the clock pauses on
    the way to a time must not change what has happened by that time."""

    @settings(max_examples=60, deadline=None)
    @given(
        send_gaps=st.lists(st.floats(min_value=0.0, max_value=3.0), max_size=12),
        pauses=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6),
        tail=st.floats(min_value=0.0, max_value=30.0),
        link_rate=st.floats(min_value=6_000.0, max_value=30_000.0),
        capacity=st.sampled_from([24_000.0, 36_000.0, 96_000.0]),
        fill=st.sampled_from([0.0, 12_000.0, 24_000.0]),
        cross_rate=st.sampled_from([0.0, 0.4, 1.1, 2.0]),
        cross_on=st.booleans(),
    )
    def test_pausing_on_the_way_changes_nothing(
        self, send_gaps, pauses, tail, link_rate, capacity, fill, cross_rate, cross_on
    ):
        params = simple_params(
            link_rate_bps=link_rate,
            buffer_capacity_bits=capacity,
            initial_fill_bits=fill,
            cross_rate_pps=cross_rate,
            cross_initially_on=cross_on,
        )
        sends, now = [], 0.0
        for seq, gap in enumerate(send_gaps):
            now += gap
            sends.append((now, seq))
        horizon = now + tail

        one_step = LinkModel(params)
        for at, seq in sends:
            one_step.send_own(seq, 12_000.0, at)
        one_step.advance(horizon)

        paused = LinkModel(params)
        pause_steps = [(fraction * horizon, None) for fraction in pauses]
        steps = sorted(sends + pause_steps, key=lambda step: step[0])
        for at, seq in steps:
            if seq is None:
                paused.advance(at)
            else:
                paused.send_own(seq, 12_000.0, at)
        paused.advance(horizon)

        # Queue contents, service state, predictions and clock...
        assert paused.export_state() == one_step.export_state()
        # ...and what became of the cross traffic.
        assert paused.cross.deliveries == one_step.cross.deliveries
        assert paused.cross.drops == one_step.cross.drops


class TestCrossTallyTrim:
    def test_trim_drops_entries_before_cutoff(self):
        model = LinkModel(simple_params(cross_rate_pps=0.5, cross_packet_bits=12_000.0))
        model.advance(20.0)
        total = len(model.cross.deliveries)
        assert total > 0
        removed = model.cross.trim(10.0)
        assert removed == total - len(model.cross.deliveries)
        assert all(time >= 10.0 for time, _ in model.cross.deliveries)
        assert model.cross.delivered_bits(10.0, 20.0) > 0

    def test_trim_is_a_noop_when_nothing_is_old(self):
        model = LinkModel(simple_params(cross_rate_pps=0.5, cross_packet_bits=12_000.0))
        model.advance(20.0)
        before = list(model.cross.deliveries)
        assert model.cross.trim(0.0) == 0
        assert model.cross.deliveries == before

    def test_trim_covers_drops_too(self):
        # A tiny buffer with dense cross traffic accumulates drop entries.
        model = LinkModel(
            simple_params(
                buffer_capacity_bits=12_000.0,
                cross_rate_pps=4.0,
                cross_packet_bits=12_000.0,
            )
        )
        model.advance(20.0)
        assert model.cross.drops
        model.cross.trim(19.0)
        assert all(time >= 19.0 for time, _ in model.cross.drops)
