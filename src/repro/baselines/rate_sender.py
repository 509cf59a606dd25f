"""Open-loop reference sender.

:class:`FixedRateSender` transmits at a constant packet rate regardless of
feedback — the simplest possible sender, useful as a lower/upper reference
in comparisons.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError
from repro.sim.element import SourceElement
from repro.sim.packet import Packet
from repro.units import DEFAULT_PACKET_BITS


class FixedRateSender(SourceElement):
    """Sends fixed-size packets at a constant rate, open loop."""

    def __init__(
        self,
        rate_pps: float,
        flow: str = "fixed",
        packet_bits: float = DEFAULT_PACKET_BITS,
        name: str | None = None,
        start_time: float = 0.0,
        stop_time: Optional[float] = None,
    ) -> None:
        if rate_pps <= 0:
            raise ConfigurationError(f"rate_pps must be positive, got {rate_pps!r}")
        if packet_bits <= 0:
            raise ConfigurationError(f"packet_bits must be positive, got {packet_bits!r}")
        super().__init__(name)
        self.rate_pps = float(rate_pps)
        self.packet_bits = float(packet_bits)
        self.flow = flow
        self.start_time = float(start_time)
        self.stop_time = stop_time
        self.next_seq = 0
        self.packets_sent = 0

    @property
    def rate_bps(self) -> float:
        """Offered load in bits per second."""
        return self.rate_pps * self.packet_bits

    def start(self) -> None:
        self.sim.schedule_at(max(self.start_time, self.sim.now), self._send)

    def _send(self) -> None:
        now = self.sim.now
        if self.stop_time is not None and now > self.stop_time:
            return
        packet = Packet(
            seq=self.next_seq,
            flow=self.flow,
            size_bits=self.packet_bits,
            created_at=now,
            sent_at=now,
        )
        self.next_seq += 1
        self.packets_sent += 1
        self.emit(packet)
        self.sim.schedule(1.0 / self.rate_pps, self._send)

    def reset(self) -> None:
        super().reset()
        self.next_seq = 0
        self.packets_sent = 0

