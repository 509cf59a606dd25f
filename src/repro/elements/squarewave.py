"""SQUAREWAVE — a gate that toggles connectivity on a fixed schedule.

The paper (§3.1): "Regularly alternates between connected and disconnected
with a certain period."  In the §4 experiment the cross traffic is switched
deterministically every 100 seconds — exactly this element applied to the
PINGER's output — while the sender *believes* the switching is memoryless
(an INTERMITTENT element).  That deliberate model mismatch is part of the
experiment and is reproduced in :mod:`repro.experiments.figure3`.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError
from repro.elements.gate import GateElement


class SquareWave(GateElement):
    """A connectivity gate that toggles every ``switch_interval`` seconds.

    Parameters
    ----------
    switch_interval:
        Dwell time in each state, in seconds (the full on/off cycle is twice
        this value).  The gate starts connected and first toggles after one
        interval.
    """

    def __init__(self, switch_interval: float, name: str | None = None) -> None:
        if not 0.0 < switch_interval < math.inf:  # NaN fails it too
            raise ConfigurationError(
                f"switch_interval must be positive and finite, got {switch_interval!r}"
            )
        super().__init__(name)
        self.switch_interval = switch_interval

    def start(self) -> None:
        self.sim.schedule(self.switch_interval, self._switch)

    def _switch(self) -> None:
        self._toggle()
        self.sim.schedule(self.switch_interval, self._switch)
