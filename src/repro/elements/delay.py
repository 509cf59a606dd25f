"""DELAY — a fixed propagation delay.

Every packet is emitted exactly ``delay`` seconds after it is received.
Because the delay is constant the element never reorders packets.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError
from repro.sim.element import Element
from repro.sim.packet import Packet


class Delay(Element):
    """Delays every packet by a fixed number of seconds."""

    def __init__(self, delay: float, name: str | None = None) -> None:
        if not 0.0 <= delay < math.inf:  # NaN fails it too
            raise ConfigurationError(f"delay must be non-negative and finite, got {delay!r}")
        super().__init__(name)
        self.delay = float(delay)
        self.in_transit = 0

    def receive(self, packet: Packet) -> None:
        self.received_count += 1
        self.in_transit += 1
        if self.delay == 0:
            self._deliver(packet)
        else:
            self.sim.schedule(self.delay, self._deliver, packet)

    def _deliver(self, packet: Packet) -> None:
        self.in_transit -= 1
        self.emit(packet)

    def reset(self) -> None:
        super().reset()
        self.in_transit = 0
