"""PINGER — an isochronous source of cross traffic.

The paper (§3.1): "An isochronous sender of cross traffic at a particular
rate."  The pinger transmits fixed-size packets at exact intervals of
``1 / rate_pps`` seconds.  A non-isochronous source can be modelled, as the
paper suggests, by following a PINGER with one or more JITTER elements.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError
from repro.sim.element import SourceElement
from repro.sim.packet import Packet
from repro.units import DEFAULT_PACKET_BITS


class Pinger(SourceElement):
    """Sends a packet every ``1 / rate_pps`` seconds.

    Parameters
    ----------
    rate_pps:
        Sending rate in packets per second.
    packet_bits:
        Size of every generated packet.
    flow:
        Flow name stamped on generated packets (defaults to ``"cross"``).

    The first packet leaves when the pinger starts.
    """

    def __init__(
        self,
        rate_pps: float,
        packet_bits: float = DEFAULT_PACKET_BITS,
        flow: str = "cross",
        name: str | None = None,
    ) -> None:
        # Each check is written so that NaN fails it.
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
        self._next_seq = 0

    @property
    def interval(self) -> float:
        """Seconds between consecutive transmissions."""
        return 1.0 / self.rate_pps

    @property
    def rate_bps(self) -> float:
        """Offered load in bits per second."""
        return self.rate_pps * self.packet_bits

    def start(self) -> None:
        self.sim.schedule_at(self.sim.now, self._send)

    def _send(self) -> None:
        now = self.sim.now
        packet = Packet(
            seq=self._next_seq,
            flow=self.flow,
            size_bits=self.packet_bits,
            created_at=now,
            sent_at=now,
        )
        self._next_seq += 1
        self.emit(packet)
        self.sim.schedule(self.interval, self._send)

    def reset(self) -> None:
        super().reset()
        self._next_seq = 0
