"""BUFFER — a tail-drop FIFO queue with bounded capacity in bits.

The paper (§3.1): "A tail-drop queue, whose unknown parameters are the size
of the queue and its current fullness."

The buffer is usually placed immediately in front of a
:class:`~repro.elements.throughput.Throughput` link.  When it is, the link
registers itself as the buffer's drain: the buffer enqueues arriving packets
(dropping the newcomer if it would exceed capacity) and the link pulls the
head of the queue whenever it goes idle.  Connected to anything else, the
buffer degenerates to a pass-through element, which keeps unit tests of
other elements simple.

The paper's "initial fullness" parameter is modelled by pre-loading the
queue with filler packets of a background flow at start-up, so the first
packets of the measured flows experience exactly the queueing delay a
partially full buffer would impose.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.errors import ConfigurationError
from repro.sim.element import Element
from repro.sim.packet import Packet
from repro.units import DEFAULT_PACKET_BITS, filler_packet_sizes


class Buffer(Element):
    """A bounded tail-drop FIFO queue.

    Parameters
    ----------
    capacity_bits:
        Maximum number of bits the queue may hold.
    initial_fill_bits:
        Bits of background traffic pre-loaded into the queue at start-up
        (must not exceed the capacity), cut into ``DEFAULT_PACKET_BITS``
        filler packets of the ``background`` flow.
    """

    def __init__(
        self,
        capacity_bits: float,
        initial_fill_bits: float = 0.0,
        name: str | None = None,
    ) -> None:
        # Written so that NaN fails every test, as in LinkModelParams.
        if not 0.0 < capacity_bits:
            raise ConfigurationError(f"buffer capacity must be positive, got {capacity_bits!r}")
        if not 0.0 <= initial_fill_bits <= capacity_bits:
            raise ConfigurationError(
                f"initial fill ({initial_fill_bits!r}) must lie in [0, capacity]"
            )
        # Cut here, not at start-up, so a fill the one fill rule refuses
        # (too many packets) fails at construction.
        filler_sizes = filler_packet_sizes(float(initial_fill_bits), DEFAULT_PACKET_BITS)
        super().__init__(name)
        self.capacity_bits = float(capacity_bits)
        self.initial_fill_bits = float(initial_fill_bits)
        self._filler_sizes = filler_sizes
        self._queue: deque[Packet] = deque()
        self._occupancy_bits = 0.0
        self._pull_mode = False
        #: The downstream's ``kick``, resolved once by :meth:`connect`.
        self._kick: Optional[Callable[[], None]] = None
        self.drop_count = 0
        self.drops_by_flow: dict[str, int] = {}
        self.peak_occupancy_bits = 0.0

    # ----------------------------------------------------------------- wiring

    def connect(self, downstream: Element) -> Element:
        result = super().connect(downstream)
        register = getattr(downstream, "register_upstream_queue", None)
        if callable(register):
            register(self)
            self._pull_mode = True
        else:
            self._pull_mode = False
        kick = getattr(downstream, "kick", None)
        self._kick = kick if callable(kick) else None
        return result

    # ------------------------------------------------------------- life cycle

    def start(self) -> None:
        if self.initial_fill_bits <= 0 or not self._pull_mode:
            return
        for seq, size in enumerate(self._filler_sizes):
            filler = Packet(
                seq=seq,
                flow="background",
                size_bits=size,
                created_at=self.sim.now,
                sent_at=self.sim.now,
            )
            self._enqueue(filler)
        self._kick_downstream()

    # ------------------------------------------------------------- data path

    def receive(self, packet: Packet) -> None:
        self.received_count += 1
        if not self._pull_mode:
            self.emit(packet)
            return
        if self._occupancy_bits + packet.size_bits > self.capacity_bits + 1e-9:
            self.drop_count += 1
            drops = self.drops_by_flow
            drops[packet.flow] = drops.get(packet.flow, 0) + 1
            packet.mark_dropped(self.sim.now, self.name)
            return
        self._enqueue(packet)
        self._kick_downstream()

    def pull(self) -> Optional[Packet]:
        """Hand the head-of-line packet to the draining link (or ``None``)."""
        if not self._queue:
            return None
        packet = self._queue.popleft()
        self._occupancy_bits -= packet.size_bits
        if self._occupancy_bits < 1e-9:
            self._occupancy_bits = 0.0
        return packet

    # ---------------------------------------------------------------- helpers

    def _enqueue(self, packet: Packet) -> None:
        self._queue.append(packet)
        self._occupancy_bits += packet.size_bits
        if self._occupancy_bits > self.peak_occupancy_bits:
            self.peak_occupancy_bits = self._occupancy_bits

    def _kick_downstream(self) -> None:
        if self._kick is not None:
            self._kick()

    def reset(self) -> None:
        super().reset()
        self._queue.clear()
        self._occupancy_bits = 0.0
        self.drop_count = 0
        self.drops_by_flow = {}
        self.peak_occupancy_bits = 0.0
