"""INTERMITTENT — a gate that switches on/off according to a memoryless process.

The paper (§3.1): "Connects input and output only intermittently, and
switches from connected to disconnected according to a memoryless process
with particular interarrival time (mean-time-to-switch)."
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError
from repro.elements.gate import GateElement


class Intermittent(GateElement):
    """A connectivity gate whose dwell times are exponentially distributed.

    Parameters
    ----------
    mean_time_to_switch:
        Mean of the exponential dwell time in each state, in seconds.  The
        gate starts connected.
    """

    def __init__(self, mean_time_to_switch: float, name: str | None = None) -> None:
        if not 0.0 < mean_time_to_switch < math.inf:  # NaN fails it too
            raise ConfigurationError(
                f"mean_time_to_switch must be positive and finite, got {mean_time_to_switch!r}"
            )
        super().__init__(name)
        self.mean_time_to_switch = mean_time_to_switch

    def start(self) -> None:
        self._schedule_next_switch()

    def _schedule_next_switch(self) -> None:
        dwell = self.rng("switch").expovariate(1.0 / self.mean_time_to_switch)
        self.sim.schedule(dwell, self._switch)

    def _switch(self) -> None:
        self._toggle()
        self._schedule_next_switch()

    def switch_probability(self, interval: float) -> float:
        """Probability of at least one switch within ``interval`` seconds.

        This is what the inference engine uses when it discretizes the
        memoryless switching process to wake-up boundaries.
        """
        if interval <= 0:
            return 0.0
        return 1.0 - math.exp(-interval / self.mean_time_to_switch)
