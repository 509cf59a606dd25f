"""Unit tests for packets, random streams, and units."""

from __future__ import annotations

import pytest

from repro.sim.packet import Packet
from repro.sim.random import RngRegistry
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
