"""THROUGHPUT — a link that serializes packets at a fixed bit rate.

The element transmits one packet at a time; a packet of ``s`` bits takes
``s / rate`` seconds to cross the link.  Packets that arrive while the link
is busy wait in an internal (unbounded) queue unless an upstream
:class:`~repro.elements.buffer.Buffer` has registered itself, in which case
the link *pulls* the next packet from that buffer when it goes idle.  This
pull protocol is what gives the BUFFER element its tail-drop semantics: the
bounded queue lives in the buffer, the link only ever holds the packet in
service.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Optional, Protocol

from repro.errors import ConfigurationError, WiringError
from repro.sim.element import Element
from repro.sim.packet import Packet


class PacketSource(Protocol):
    """Anything a :class:`Throughput` can pull packets from when idle."""

    def pull(self) -> Optional[Packet]:
        """Return the next packet to transmit, or ``None`` if empty."""
        ...


class Throughput(Element):
    """A throughput-limited link operating at ``rate_bps`` bits per second."""

    def __init__(self, rate_bps: float, name: str | None = None) -> None:
        if not 0.0 < rate_bps < math.inf:  # NaN fails it too
            raise ConfigurationError(f"link rate must be positive and finite, got {rate_bps!r}")
        super().__init__(name)
        self.rate_bps = float(rate_bps)
        self._busy = False
        self._internal_queue: deque[Packet] = deque()
        self._upstream_queue: Optional[PacketSource] = None
        self.bits_transmitted = 0.0
        self.packets_transmitted = 0

    # ------------------------------------------------------------- interface

    @property
    def idle(self) -> bool:
        """Whether the link is currently not transmitting."""
        return not self._busy

    @property
    def backlog(self) -> int:
        """Packets waiting in the internal queue (excluding the one in service)."""
        return len(self._internal_queue)

    def register_upstream_queue(self, source: PacketSource) -> None:
        """Register a buffer to pull from whenever the link goes idle.

        A link drains one buffer: a second one would never be pulled from,
        and every packet it queued would stay there for good.
        """
        if self._upstream_queue is not None and self._upstream_queue is not source:
            raise WiringError(f"link {self.name!r} already drains a buffer")
        self._upstream_queue = source

    def service_time(self, packet: Packet) -> float:
        """Seconds needed to serialize ``packet`` onto this link."""
        return packet.size_bits / self.rate_bps

    # ------------------------------------------------------------- data path

    def receive(self, packet: Packet) -> None:
        self.received_count += 1
        if self._busy:
            self._internal_queue.append(packet)
        else:
            self._begin(packet)

    def kick(self) -> None:
        """Start transmitting if idle and a packet is available upstream."""
        if self._busy:
            return
        nxt = self._next_packet()
        if nxt is not None:
            self._begin(nxt)

    def _next_packet(self) -> Optional[Packet]:
        if self._internal_queue:
            return self._internal_queue.popleft()
        if self._upstream_queue is not None:
            return self._upstream_queue.pull()
        return None

    def _begin(self, packet: Packet) -> None:
        self._busy = True
        self.sim.schedule(self.service_time(packet), self._complete, packet)

    def _complete(self, packet: Packet) -> None:
        self._busy = False
        self.bits_transmitted += packet.size_bits
        self.packets_transmitted += 1
        self.emit(packet)
        self.kick()

    def reset(self) -> None:
        super().reset()
        self._busy = False
        self._internal_queue.clear()
        self.bits_transmitted = 0.0
        self.packets_transmitted = 0
