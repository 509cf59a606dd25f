"""Element-graph validation.

The simulator itself never needs a global view of the topology — packets
simply follow downstream links — but experiments and tests benefit from
being able to check that a hand-built graph is sane (terminated, acyclic).
"""

from __future__ import annotations

from repro.elements.collector import Collector
from repro.elements.receiver import Receiver
from repro.sim.element import Element, Network


def validate_network(network: Network) -> list[str]:
    """Check an attached network for common wiring mistakes.

    Returns a list of human-readable problem descriptions (empty when the
    network looks sane).  Problems detected:

    * downstream cycles (a packet could loop forever),
    * paths that end at an element with no downstream which is neither a
      :class:`Receiver` nor a :class:`Collector` (packets silently vanish).
    """
    problems: list[str] = []
    elements = network.elements

    # Cycle detection over downstream links only (children are containment).
    colors: dict[int, int] = {}

    def visit(element: Element, trail: list[str]) -> None:
        state = colors.get(id(element), 0)
        if state == 1:
            problems.append("downstream cycle involving: " + " -> ".join(trail + [element.name]))
            return
        if state == 2:
            return
        colors[id(element)] = 1
        if element.downstream is not None:
            visit(element.downstream, trail + [element.name])
        colors[id(element)] = 2

    for element in elements:
        visit(element, [])

    for element in elements:
        if element.downstream is None and not isinstance(element, (Receiver, Collector)):
            if element.children() or type(element).__name__.startswith("_"):
                continue
            problems.append(
                f"element {element.name!r} ({type(element).__name__}) has no downstream "
                "and is not a Receiver/Collector"
            )
    return problems
