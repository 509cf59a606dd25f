"""Unit tests for packets, random streams and the initial-fill cut."""

from __future__ import annotations

import random

import pytest

from repro.sim.packet import Packet
from repro.sim.random import RngRegistry, derive_seed
from repro.units import DEFAULT_PACKET_BITS, filler_packet_sizes


class TestPacket:
    def test_defaults(self):
        packet = Packet(seq=1, flow="isender")
        assert packet.size_bits == DEFAULT_PACKET_BITS
        assert packet.delivered_at is None and packet.dropped_at is None
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
        assert packet.dropped_at == 3.0
        assert packet.drop_reason == "buffer"

    def test_copy_is_independent(self):
        original = Packet(seq=3, flow="f")
        original.meta["key"] = "value"
        duplicate = original.copy()
        duplicate.meta["key"] = "changed"
        assert original.meta["key"] == "value"
        assert duplicate.seq == 3


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

    def test_names_lists_created_streams(self, rng_registry):
        rng_registry.stream("b")
        rng_registry.stream("a")
        assert list(rng_registry.names()) == ["a", "b"]

    def test_a_stream_is_seeded_from_the_registry_seed_and_its_name(self):
        # A worker process recomputes any stream from (seed, name) alone.
        drawn = RngRegistry(seed=5).stream("loss").random()
        assert drawn == random.Random(derive_seed(5, "loss")).random()

    def test_creation_order_does_not_change_a_stream(self):
        first = RngRegistry(seed=3)
        first.stream("a").random()
        later = first.stream("b").random()
        assert RngRegistry(seed=3).stream("b").random() == later

    def test_draws_from_one_stream_do_not_perturb_another(self):
        busy = RngRegistry(seed=3)
        for _ in range(100):
            busy.stream("jitter").random()
        assert busy.stream("loss").random() == RngRegistry(seed=3).stream("loss").random()


class TestFillerCut:
    @pytest.mark.parametrize(
        "fill, filler, sizes",
        [
            (0.0, 12_000.0, []),
            (12_000.0, 12_000.0, [12_000.0]),
            (30_000.0, 12_000.0, [12_000.0, 12_000.0, 6_000.0]),
            (2.5, 1.0, [1.0, 1.0, 0.5]),
            (5e-10, 1.0, []),
        ],
        ids=["empty", "one-full", "remainder-last", "small-units", "below-the-floor"],
    )
    def test_a_fill_is_cut_into_full_packets_then_the_remainder(self, fill, filler, sizes):
        cut = filler_packet_sizes(fill, filler)
        assert cut == pytest.approx(sizes)
        assert sum(cut) == pytest.approx(fill, abs=1e-9)

