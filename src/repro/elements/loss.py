"""LOSS — independent stochastic packet loss at a fixed rate.

The paper (§3.1): "Stochastic loss, independently distributed for each
packet at a particular rate."  In the §4 experiment the loss element sits at
the "last mile", after the buffer and throughput-limited link, which is the
placement that keeps its consequences from lingering in the sender's belief
state (§3.2).
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.sim.element import Element
from repro.sim.packet import Packet


class Loss(Element):
    """Drops each packet independently with probability ``rate``.

    Parameters
    ----------
    rate:
        Per-packet loss probability in ``[0, 1]``.
    """

    def __init__(self, rate: float, name: str | None = None) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ConfigurationError(f"loss rate must be within [0, 1], got {rate!r}")
        super().__init__(name)
        self.rate = float(rate)
        self.drop_count = 0
        self.pass_count = 0

    def receive(self, packet: Packet) -> None:
        self.received_count += 1
        if self.rate > 0.0 and self.rng("loss").random() < self.rate:
            self.drop_count += 1
            packet.mark_dropped(self.sim.now, self.name)
            return
        self.pass_count += 1
        self.emit(packet)

    def reset(self) -> None:
        super().reset()
        self.drop_count = 0
        self.pass_count = 0
