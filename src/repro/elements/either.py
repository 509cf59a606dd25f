"""EITHER — send traffic to one of two elements, switching at random times.

The paper (§3.1): "Sends traffic either to one element or another, switching
with a specified mean-time-to-switch."  Switching follows a memoryless
process, exactly like :class:`~repro.elements.intermittent.Intermittent`,
except that instead of connecting/disconnecting it alternates between two
downstream paths (for example a fast path and a slow path).
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.errors import ConfigurationError
from repro.sim.element import Element
from repro.sim.packet import Packet


class Either(Element):
    """Alternates between two downstream branches with exponential dwell times."""

    def __init__(
        self,
        first: Element,
        second: Element,
        mean_time_to_switch: float,
        name: str | None = None,
    ) -> None:
        if not 0.0 < mean_time_to_switch < math.inf:  # NaN fails it too
            raise ConfigurationError(
                f"mean_time_to_switch must be positive and finite, got {mean_time_to_switch!r}"
            )
        super().__init__(name)
        self.first = first
        self.second = second
        self.mean_time_to_switch = float(mean_time_to_switch)
        self._using_first = True
        self.switch_times: list[float] = []
        self.first_count = 0
        self.second_count = 0

    def children(self) -> Iterable[Element]:
        yield self.first
        yield self.second

    @property
    def active_branch(self) -> Element:
        """The branch currently receiving traffic."""
        return self.first if self._using_first else self.second

    def start(self) -> None:
        self.first.start()
        self.second.start()
        self._schedule_switch()

    def _schedule_switch(self) -> None:
        dwell = self.rng("switch").expovariate(1.0 / self.mean_time_to_switch)
        self.sim.schedule(dwell, self._switch)

    def _switch(self) -> None:
        self._using_first = not self._using_first
        self.switch_times.append(self.sim.now)
        self._schedule_switch()

    def receive(self, packet: Packet) -> None:
        self.received_count += 1
        if self._using_first:
            self.first_count += 1
        else:
            self.second_count += 1
        self.active_branch.receive(packet)

    def reset(self) -> None:
        super().reset()
        self._using_first = True
        self.switch_times = []
        self.first_count = 0
        self.second_count = 0
