"""RECEIVER — the terminal element that records deliveries and issues ACKs.

The paper (§3.4): "The RECEIVER accumulates packets and wakes up the SENDER
for each one, notifying it of the received time and sequence number of the
packet."  The preliminary experiments assume synchronized clocks and a
lossless, instantaneous return path, which here is a callback the sender
assigns, invoked synchronously at delivery time.

Deliveries are kept as columns, one array entry per accepted packet in
arrival order, not as one object each: a long many-flow run accumulates
hundreds of thousands of them.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Iterator, Optional

from repro.sim.element import Element
from repro.sim.packet import Packet


@dataclass(slots=True)
class Delivery:
    """One packet delivery, as handed to the ``on_deliver`` callback."""

    seq: int
    flow: str
    size_bits: float
    sent_at: float
    received_at: float


class Receiver(Element):
    """Accumulates packets and optionally notifies a sender of each delivery.

    Parameters
    ----------
    accept_flows:
        If given, only packets whose flow is in this collection are recorded
        and acknowledged; others are counted as ``ignored``.

    Each accepted delivery appends one entry to five columns: ``seqs``,
    ``flow_codes`` (an index into the flows in first-arrival order),
    ``sizes``, ``sent_times`` and ``received_times``.  A sender assigns
    ``on_deliver``, called as ``on_deliver(delivery)`` for every accepted
    packet at its arrival.
    """

    def __init__(
        self,
        name: str | None = None,
        accept_flows: Optional[set[str]] = None,
    ) -> None:
        super().__init__(name)
        self.on_deliver: Optional[Callable[[Delivery], None]] = None
        self.accept_flows = set(accept_flows) if accept_flows is not None else None
        self._clear()

    def _clear(self) -> None:
        self._code_of: dict[str, int] = {}
        self.seqs = array("q")
        self.flow_codes = array("I")
        self.sizes = array("d")
        self.sent_times = array("d")
        self.received_times = array("d")
        self.ignored_count = 0
        self.bits_received = 0.0

    def receive(self, packet: Packet) -> None:
        self.received_count += 1
        flow = packet.flow
        if self.accept_flows is not None and flow not in self.accept_flows:
            self.ignored_count += 1
            return
        now = self.sim.now
        packet.delivered_at = now
        sent_at = packet.sent_at if packet.sent_at is not None else packet.created_at
        code = self._code_of.get(flow)
        if code is None:
            code = self._code_of[flow] = len(self._code_of)
        self.seqs.append(packet.seq)
        self.flow_codes.append(code)
        self.sizes.append(packet.size_bits)
        self.sent_times.append(sent_at)
        self.received_times.append(now)
        self.bits_received += packet.size_bits
        if self.on_deliver is not None:
            self.on_deliver(
                Delivery(
                    seq=packet.seq,
                    flow=flow,
                    size_bits=packet.size_bits,
                    sent_at=sent_at,
                    received_at=now,
                )
            )

    # ------------------------------------------------------------------ stats

    @property
    def count(self) -> int:
        """Number of accepted deliveries."""
        return len(self.received_times)

    def _rows(self, flow: str | None, *columns: array) -> Iterator[tuple]:
        """``columns`` zipped, in arrival order, for ``flow`` or every flow."""
        rows = zip(*columns)
        if flow is None:
            return rows
        code = self._code_of.get(flow)
        if code is None:
            return iter(())
        return compress(rows, map(code.__eq__, self.flow_codes))

    def arrivals(self, flow: str | None = None) -> Iterator[tuple[float, float]]:
        """``(received_at, size_bits)`` of each delivery of ``flow`` (or of all)."""
        return self._rows(flow, self.received_times, self.sizes)

    def delays(self) -> Iterator[float]:
        """One-way delay of each delivery, in arrival order."""
        return (received - sent for sent, received in zip(self.sent_times, self.received_times))

    def throughput_bps(self, start: float, end: float, flow: str | None = None) -> float:
        """Average goodput in bits per second over ``[start, end)``."""
        if end <= start:
            return 0.0
        bits = sum(size for at, size in self.arrivals(flow) if start <= at < end)
        return bits / (end - start)

    def mean_delay(self) -> float | None:
        """Mean one-way delay of accepted packets, or ``None`` if no deliveries."""
        if not self.count:
            return None
        return sum(self.delays()) / self.count

    def reset(self) -> None:
        super().reset()
        self._clear()
