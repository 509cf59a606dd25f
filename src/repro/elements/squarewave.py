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
        this value).
    initially_connected:
        Whether the gate starts connected.
    offset:
        Delay before the first toggle, defaulting to ``switch_interval``.
    """

    def __init__(
        self,
        switch_interval: float,
        name: str | None = None,
        initially_connected: bool = True,
        offset: float | None = None,
    ) -> None:
        # Each check is written so that NaN fails it.
        if not 0.0 < switch_interval < math.inf:
            raise ConfigurationError(
                f"switch_interval must be positive and finite, got {switch_interval!r}"
            )
        if offset is not None and not 0.0 <= offset < math.inf:
            raise ConfigurationError(f"offset must be non-negative and finite, got {offset!r}")
        super().__init__(name, initially_connected=initially_connected)
        self.switch_interval = switch_interval
        self.offset = switch_interval if offset is None else offset

    def start(self) -> None:
        self.sim.schedule(self.offset, self._switch)

    def _switch(self) -> None:
        self._toggle()
        self.sim.schedule(self.switch_interval, self._switch)
