"""RECEIVER — the terminal element that records deliveries and issues ACKs.

The paper (§3.4): "The RECEIVER accumulates packets and wakes up the SENDER
for each one, notifying it of the received time and sequence number of the
packet."  The preliminary experiments assume synchronized clocks and a
lossless, instantaneous return path, which here is an optional callback
invoked synchronously at delivery time.  An explicit acknowledgement delay
can be configured to model a non-instant return path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import ConfigurationError
from repro.sim.element import Element
from repro.sim.packet import Packet


@dataclass(slots=True)
class Delivery:
    """One recorded packet delivery."""

    seq: int
    flow: str
    size_bits: float
    sent_at: float
    received_at: float

    @property
    def delay(self) -> float:
        """One-way delay experienced by the packet."""
        return self.received_at - self.sent_at


class Receiver(Element):
    """Accumulates packets and optionally notifies a sender of each delivery.

    Parameters
    ----------
    on_deliver:
        Callback invoked as ``on_deliver(delivery)`` for every accepted
        packet, after the acknowledgement delay (zero by default).
    ack_delay:
        Seconds between packet arrival and the callback firing, modelling the
        return path.  The paper's experiments use zero.
    accept_flows:
        If given, only packets whose flow is in this collection are recorded
        and acknowledged; others are counted as ``ignored``.
    """

    def __init__(
        self,
        name: str | None = None,
        on_deliver: Optional[Callable[[Delivery], None]] = None,
        ack_delay: float = 0.0,
        accept_flows: Optional[set[str]] = None,
    ) -> None:
        if not 0.0 <= ack_delay < math.inf:  # NaN fails it too
            raise ConfigurationError(
                f"ack_delay must be non-negative and finite, got {ack_delay!r}"
            )
        super().__init__(name)
        self.on_deliver = on_deliver
        self.ack_delay = float(ack_delay)
        self.accept_flows = set(accept_flows) if accept_flows is not None else None
        self.deliveries: list[Delivery] = []
        self.ignored_count = 0
        self.bits_received = 0.0

    def receive(self, packet: Packet) -> None:
        self.received_count += 1
        if self.accept_flows is not None and packet.flow not in self.accept_flows:
            self.ignored_count += 1
            return
        now = self.sim.now
        packet.delivered_at = now
        sent_at = packet.sent_at if packet.sent_at is not None else packet.created_at
        delivery = Delivery(
            seq=packet.seq,
            flow=packet.flow,
            size_bits=packet.size_bits,
            sent_at=sent_at,
            received_at=now,
        )
        self.deliveries.append(delivery)
        self.bits_received += packet.size_bits
        if self.on_deliver is not None:
            if self.ack_delay > 0:
                self.sim.schedule(self.ack_delay, self.on_deliver, delivery)
            else:
                self.on_deliver(delivery)

    # ------------------------------------------------------------------ stats

    @property
    def count(self) -> int:
        """Number of accepted deliveries."""
        return len(self.deliveries)

    def deliveries_for(self, flow: str) -> list[Delivery]:
        """Deliveries belonging to ``flow``."""
        return [delivery for delivery in self.deliveries if delivery.flow == flow]

    def sequence_series(self, flow: str | None = None) -> list[tuple[float, int]]:
        """``(time, cumulative packet count)`` pairs, the paper's Figure-3 y-axis."""
        rows = self.deliveries if flow is None else self.deliveries_for(flow)
        return [(delivery.received_at, index + 1) for index, delivery in enumerate(rows)]

    def throughput_bps(self, start: float, end: float, flow: str | None = None) -> float:
        """Average goodput in bits per second over ``[start, end)``."""
        if end <= start:
            return 0.0
        rows = self.deliveries if flow is None else self.deliveries_for(flow)
        bits = sum(d.size_bits for d in rows if start <= d.received_at < end)
        return bits / (end - start)

    def mean_delay(self, flow: str | None = None) -> float | None:
        """Mean one-way delay of accepted packets, or ``None`` if no deliveries."""
        rows = self.deliveries if flow is None else self.deliveries_for(flow)
        if not rows:
            return None
        return sum(d.delay for d in rows) / len(rows)

    def reset(self) -> None:
        super().reset()
        self.deliveries = []
        self.ignored_count = 0
        self.bits_received = 0.0
