"""JITTER — an extra delay applied to randomly selected packets.

The paper (§3.1): "A delay of a certain amount, introduced to
randomly-selected packets with a particular probability."  Because only
some packets are delayed, the element can reorder traffic; that is inherent
to the phenomenon being modelled.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError
from repro.sim.element import Element
from repro.sim.packet import Packet


class Jitter(Element):
    """With probability ``probability``, delay a packet by ``delay`` seconds."""

    def __init__(
        self,
        delay: float,
        probability: float,
        name: str | None = None,
    ) -> None:
        if not 0.0 <= delay < math.inf:  # NaN fails it too
            raise ConfigurationError(f"delay must be non-negative and finite, got {delay!r}")
        if not 0.0 <= probability <= 1.0:
            raise ConfigurationError(
                f"jitter probability must be within [0, 1], got {probability!r}"
            )
        super().__init__(name)
        self.delay = float(delay)
        self.probability = float(probability)
        self.jittered_count = 0
        self.untouched_count = 0

    def receive(self, packet: Packet) -> None:
        self.received_count += 1
        if self.probability > 0.0 and self.rng("jitter").random() < self.probability:
            self.jittered_count += 1
            packet.meta["jittered"] = packet.meta.get("jittered", 0) + 1
            self.sim.schedule(self.delay, self.emit, packet)
        else:
            self.untouched_count += 1
            self.emit(packet)

    def reset(self) -> None:
        super().reset()
        self.jittered_count = 0
        self.untouched_count = 0
