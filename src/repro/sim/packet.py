"""The packet data type moved between network elements.

The paper assumes the sender always transmits packets of uniform length
(§3.2); nevertheless the packet carries its size explicitly so that cross
traffic, acknowledgements, and future extensions can use different sizes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.units import DEFAULT_PACKET_BITS

_packet_counter = itertools.count()


@dataclass(slots=True)
class Packet:
    """A data packet.

    Attributes
    ----------
    seq:
        Per-flow sequence number, assigned by the sender.
    flow:
        Name of the flow the packet belongs to (e.g. ``"isender"``,
        ``"cross"``).  Elements such as the Diverter route on this field.
    size_bits:
        Payload size in bits.
    created_at:
        Simulation time at which the sender created the packet.
    sent_at:
        Time the packet actually entered the network (usually equal to
        ``created_at`` for our senders).
    delivered_at:
        Time the packet reached a Receiver, or ``None`` if still in flight
        or dropped.
    dropped_at:
        Time the packet was dropped (by a Buffer overflow or Loss element),
        or ``None``.
    drop_reason:
        Short string identifying the dropping element, or ``None``.
    hops:
        Number of elements the packet has traversed (incremented by
        :meth:`repro.sim.element.Element.emit`).
    uid:
        Globally unique packet id, useful for tracing.
    meta:
        Free-form annotations (e.g. link-layer retransmission count).
    """

    seq: int
    flow: str
    size_bits: float = DEFAULT_PACKET_BITS
    created_at: float = 0.0
    sent_at: float | None = None
    delivered_at: float | None = None
    dropped_at: float | None = None
    drop_reason: str | None = None
    hops: int = 0
    uid: int = field(default_factory=_packet_counter.__next__)
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def size_bytes(self) -> float:
        """Payload size in bytes."""
        return self.size_bits / 8.0

    @property
    def in_flight(self) -> bool:
        """Whether the packet has neither been delivered nor dropped."""
        return self.delivered_at is None and self.dropped_at is None

    @property
    def delay(self) -> float | None:
        """One-way delay experienced by the packet, if delivered."""
        if self.delivered_at is None:
            return None
        origin = self.sent_at if self.sent_at is not None else self.created_at
        return self.delivered_at - origin

    def mark_dropped(self, time: float, reason: str) -> None:
        """Record that the packet was dropped at ``time`` by ``reason``."""
        self.dropped_at = time
        self.drop_reason = reason

    def copy(self) -> "Packet":
        """Return an independent copy of this packet (fresh uid, copied meta)."""
        return Packet(
            seq=self.seq,
            flow=self.flow,
            size_bits=self.size_bits,
            created_at=self.created_at,
            sent_at=self.sent_at,
            delivered_at=self.delivered_at,
            dropped_at=self.dropped_at,
            drop_reason=self.drop_reason,
            hops=self.hops,
            meta=dict(self.meta),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet(flow={self.flow!r}, seq={self.seq}, size={self.size_bits:g}b, "
            f"created={self.created_at:.3f})"
        )
