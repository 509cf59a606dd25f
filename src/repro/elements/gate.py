"""Connectivity gates: the shared machinery behind INTERMITTENT and SQUAREWAVE.

Both elements "connect input and output" only some of the time.  While
connected they forward packets unchanged; while disconnected they drop
them (the subnetwork is simply not there).  The two concrete subclasses
differ only in *when* they toggle: INTERMITTENT switches according to a
memoryless process, SQUAREWAVE on a fixed schedule.
"""

from __future__ import annotations

from repro.sim.element import Element
from repro.sim.packet import Packet


class GateElement(Element):
    """Base class for elements that alternate between connected and disconnected.

    A gate starts connected.
    """

    def __init__(self, name: str | None = None) -> None:
        super().__init__(name)
        self._connected = True
        self.passed_count = 0
        self.blocked_count = 0
        self.switch_times: list[float] = []

    def receive(self, packet: Packet) -> None:
        self.received_count += 1
        if self._connected:
            self.passed_count += 1
            self.emit(packet)
        else:
            self.blocked_count += 1
            packet.mark_dropped(self.sim.now, self.name)

    def _toggle(self) -> None:
        """Flip the gate state and record the switch time."""
        self._connected = not self._connected
        self.switch_times.append(self.sim.now)

    def reset(self) -> None:
        super().reset()
        self._connected = True
        self.passed_count = 0
        self.blocked_count = 0
        self.switch_times = []
