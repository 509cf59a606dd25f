"""Collector — a measurement sink for arbitrary traffic.

Unlike :class:`~repro.elements.receiver.Receiver`, the collector never
acknowledges anything; it simply terminates a path and keeps per-flow
statistics.  Experiments use it for cross traffic and background filler
packets, and tests use it to observe what comes out the end of a chain of
elements.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.element import Element
from repro.sim.packet import Packet


@dataclass(slots=True)
class FlowTally:
    """Aggregate statistics for one flow observed at the collector."""

    packets: int = 0
    bits: float = 0.0
    total_delay: float = 0.0

    @property
    def mean_delay(self) -> float | None:
        """Mean one-way delay, or ``None`` if nothing arrived."""
        if self.packets == 0:
            return None
        return self.total_delay / self.packets


class Collector(Element):
    """Terminal element that tallies everything it receives, per flow."""

    def __init__(self, name: str | None = None) -> None:
        super().__init__(name)
        self.flows: dict[str, FlowTally] = {}
        self.packets: list[Packet] = []

    def receive(self, packet: Packet) -> None:
        self.received_count += 1
        now = self.sim.now
        packet.delivered_at = now
        tally = self.flows.setdefault(packet.flow, FlowTally())
        tally.packets += 1
        tally.bits += packet.size_bits
        sent_at = packet.sent_at if packet.sent_at is not None else packet.created_at
        tally.total_delay += now - sent_at
        self.packets.append(packet)

    def count(self, flow: str | None = None) -> int:
        """Number of packets received (optionally for a single flow)."""
        if flow is None:
            return len(self.packets)
        tally = self.flows.get(flow)
        return tally.packets if tally is not None else 0

    def bits(self) -> float:
        """Bits received, every flow's (``flows[flow].bits`` is one flow's)."""
        return sum(tally.bits for tally in self.flows.values())

    def throughput_bps(self, start: float, end: float, flow: str | None = None) -> float:
        """Average received rate over ``[start, end)`` in bits per second."""
        if end <= start:
            return 0.0
        total = 0.0
        for packet in self.packets:
            if packet.delivered_at is None:
                continue
            if flow is not None and packet.flow != flow:
                continue
            if start <= packet.delivered_at < end:
                total += packet.size_bits
        return total / (end - start)

    def reset(self) -> None:
        super().reset()
        self.flows = {}
        self.packets = []
