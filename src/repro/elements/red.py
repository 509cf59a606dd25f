"""RED — a random-early-detection queue (active queue management).

The paper lists "active queue management" among the in-network behaviours
its element language will need to express (§3.5).  This element provides
the classic Floyd/Jacobson RED discipline as a drop-in alternative to the
tail-drop :class:`~repro.elements.buffer.Buffer`: it tracks an exponentially
weighted moving average of the queue occupancy and drops arriving packets
probabilistically once that average exceeds a minimum threshold, with the
drop probability rising linearly up to a maximum threshold (beyond which
every arrival is dropped).

The element exposes the same pull interface as the tail-drop buffer, so it
composes with :class:`~repro.elements.throughput.Throughput` in exactly the
same way and can be swapped into any preset topology.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.errors import ConfigurationError
from repro.sim.element import Element
from repro.sim.packet import Packet


class RedBuffer(Element):
    """A random-early-detection queue measured in bits.

    Parameters
    ----------
    capacity_bits:
        Hard limit on queued bits (arrivals beyond it are always dropped).
    min_threshold_bits / max_threshold_bits:
        Average-occupancy thresholds between which the early-drop
        probability rises linearly from 0 to ``max_drop_probability``.
    max_drop_probability:
        Early-drop probability at the maximum threshold.
    weight:
        EWMA weight applied to instantaneous occupancy samples.
    """

    def __init__(
        self,
        capacity_bits: float,
        min_threshold_bits: float,
        max_threshold_bits: float,
        max_drop_probability: float = 0.1,
        weight: float = 0.002,
        name: str | None = None,
    ) -> None:
        if capacity_bits <= 0:
            raise ConfigurationError(f"capacity must be positive, got {capacity_bits!r}")
        if not 0 < min_threshold_bits < max_threshold_bits <= capacity_bits:
            raise ConfigurationError(
                "thresholds must satisfy 0 < min < max <= capacity, got "
                f"min={min_threshold_bits!r}, max={max_threshold_bits!r}, capacity={capacity_bits!r}"
            )
        if not 0.0 < max_drop_probability <= 1.0:
            raise ConfigurationError(
                f"max_drop_probability must lie in (0, 1], got {max_drop_probability!r}"
            )
        if not 0.0 < weight <= 1.0:
            raise ConfigurationError(f"weight must lie in (0, 1], got {weight!r}")
        super().__init__(name)
        self.capacity_bits = float(capacity_bits)
        self.min_threshold_bits = float(min_threshold_bits)
        self.max_threshold_bits = float(max_threshold_bits)
        self.max_drop_probability = float(max_drop_probability)
        self.weight = float(weight)
        self._queue: deque[Packet] = deque()
        self._occupancy_bits = 0.0
        self._average_bits = 0.0
        self._pull_mode = False
        self.early_drops = 0
        self.forced_drops = 0

    # ----------------------------------------------------------------- wiring

    def connect(self, downstream: Element) -> Element:
        result = super().connect(downstream)
        register = getattr(downstream, "register_upstream_queue", None)
        if callable(register):
            register(self)
            self._pull_mode = True
        else:
            self._pull_mode = False
        return result

    # ----------------------------------------------------------------- state

    @property
    def occupancy_bits(self) -> float:
        """Bits currently queued."""
        return self._occupancy_bits

    @property
    def average_occupancy_bits(self) -> float:
        """The EWMA of the queue occupancy RED drops against."""
        return self._average_bits

    @property
    def drop_count(self) -> int:
        """Early drops plus forced (overflow) drops."""
        return self.early_drops + self.forced_drops

    def drop_probability(self) -> float:
        """Current early-drop probability given the average occupancy."""
        if self._average_bits <= self.min_threshold_bits:
            return 0.0
        if self._average_bits >= self.max_threshold_bits:
            return 1.0
        span = self.max_threshold_bits - self.min_threshold_bits
        return self.max_drop_probability * (self._average_bits - self.min_threshold_bits) / span

    # -------------------------------------------------------------- data path

    def receive(self, packet: Packet) -> None:
        self.received_count += 1
        if not self._pull_mode:
            self.emit(packet)
            return
        self._average_bits = (
            (1.0 - self.weight) * self._average_bits + self.weight * self._occupancy_bits
        )
        if self._occupancy_bits + packet.size_bits > self.capacity_bits + 1e-9:
            self.forced_drops += 1
            packet.mark_dropped(self.sim.now, self.name)
            return
        probability = self.drop_probability()
        if probability > 0.0 and self.rng("red").random() < probability:
            self.early_drops += 1
            packet.mark_dropped(self.sim.now, self.name)
            return
        self._queue.append(packet)
        self._occupancy_bits += packet.size_bits
        kick = getattr(self.downstream, "kick", None)
        if callable(kick):
            kick()

    def pull(self) -> Optional[Packet]:
        """Hand the head-of-line packet to the draining link (or ``None``)."""
        if not self._queue:
            return None
        packet = self._queue.popleft()
        self._occupancy_bits -= packet.size_bits
        if self._occupancy_bits < 1e-9:
            self._occupancy_bits = 0.0
        return packet

    def reset(self) -> None:
        super().reset()
        self._queue.clear()
        self._occupancy_bits = 0.0
        self._average_bits = 0.0
        self.early_drops = 0
        self.forced_drops = 0
