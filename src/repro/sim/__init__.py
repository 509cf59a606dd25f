"""Discrete-event simulation substrate.

This package provides the event-driven engine on which both the "real"
network of every experiment and the sender's hypothetical networks run:

* :class:`repro.sim.engine.Simulator` — the event loop.
* :class:`repro.sim.events.Event` — a scheduled callback.
* :class:`repro.sim.packet.Packet` — the unit of data moved between elements.
* :class:`repro.sim.element.Element` — base class for all network elements.
* :class:`repro.sim.random.RngRegistry` — named, seeded random streams.
"""

from repro.sim.element import Element, Network, SourceElement
from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.sim.packet import Packet
from repro.sim.random import RngRegistry

__all__ = [
    "Element",
    "Event",
    "Network",
    "Packet",
    "RngRegistry",
    "Simulator",
    "SourceElement",
]
