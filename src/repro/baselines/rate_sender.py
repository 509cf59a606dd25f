"""Open-loop reference sender.

:class:`FixedRateSender` transmits at a constant packet rate regardless of
feedback — the simplest possible sender, useful as a lower/upper reference
in comparisons.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError
from repro.sim.element import SourceElement
from repro.sim.packet import Packet
from repro.units import DEFAULT_PACKET_BITS


class FixedRateSender(SourceElement):
    """Sends fixed-size packets at a constant rate, open loop, from its start."""

    def __init__(
        self,
        rate_pps: float,
        flow: str = "fixed",
        packet_bits: float = DEFAULT_PACKET_BITS,
        name: str | None = None,
    ) -> None:
        # Each check fails on NaN: a NaN rate used to fail mid-run scheduling
        # a NaN time, and an infinite one to send forever at one instant.
        if not 0.0 < rate_pps < math.inf:
            raise ConfigurationError(f"rate_pps must be positive and finite, got {rate_pps!r}")
        if not 0.0 < packet_bits < math.inf:
            raise ConfigurationError(
                f"packet_bits must be positive and finite, got {packet_bits!r}"
            )
        super().__init__(name)
        self.rate_pps = float(rate_pps)
        self.packet_bits = float(packet_bits)
        self.flow = flow
        self.next_seq = 0
        self.packets_sent = 0

    @property
    def rate_bps(self) -> float:
        """Offered load in bits per second."""
        return self.rate_pps * self.packet_bits

    def start(self) -> None:
        self.sim.schedule_at(self.sim.now, self._send)

    def _send(self) -> None:
        now = self.sim.now
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

