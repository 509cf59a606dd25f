"""DIVERTER — route packets to one of two elements based on a predicate.

The paper (§3.1): "Routes packets from one source (such as the cross
traffic) to one network element, and all other traffic to a different
element."  The most common use is routing by flow name, so the predicate
argument accepts either a flow-name string or an arbitrary callable on the
packet.
"""

from __future__ import annotations

from typing import Callable, Iterable, Union

from repro.sim.element import Element
from repro.sim.packet import Packet

Predicate = Union[str, Callable[[Packet], bool]]


class Diverter(Element):
    """Sends matching packets to ``match_branch`` and the rest to ``other_branch``.

    Parameters
    ----------
    predicate:
        Either a flow name (packets of that flow match) or a callable
        ``packet -> bool``.
    match_branch:
        Element receiving matching packets.
    other_branch:
        Element receiving all other packets.
    """

    def __init__(
        self,
        predicate: Predicate,
        match_branch: Element,
        other_branch: Element,
        name: str | None = None,
    ) -> None:
        super().__init__(name)
        if isinstance(predicate, str):
            flow_name = predicate
            self._predicate: Callable[[Packet], bool] = lambda packet: packet.flow == flow_name
            self.predicate_description = f"flow == {flow_name!r}"
        else:
            self._predicate = predicate
            self.predicate_description = getattr(predicate, "__name__", repr(predicate))
        self.match_branch = match_branch
        self.other_branch = other_branch
        self.matched_count = 0
        self.other_count = 0

    def children(self) -> Iterable[Element]:
        yield self.match_branch
        yield self.other_branch

    def start(self) -> None:
        self.match_branch.start()
        self.other_branch.start()

    def receive(self, packet: Packet) -> None:
        self.received_count += 1
        if self._predicate(packet):
            self.matched_count += 1
            if self._trace is not None:
                self.trace("route", seq=packet.seq, flow=packet.flow, branch="match")
            self.match_branch.receive(packet)
        else:
            self.other_count += 1
            if self._trace is not None:
                self.trace("route", seq=packet.seq, flow=packet.flow, branch="other")
            self.other_branch.receive(packet)

    def reset(self) -> None:
        super().reset()
        self.matched_count = 0
        self.other_count = 0


class FlowDemux(Element):
    """Route each packet to the branch registered for its flow name.

    The N-way generalization of :class:`Diverter` that many-flow scenarios
    need: after a shared bottleneck, packets fan out to the per-flow
    :class:`~repro.elements.receiver.Receiver` that owns each sender's ACK
    clock.  Packets whose flow has no branch are counted on ``ignored_count``
    and dropped silently (cross traffic that nobody measures).

    Parameters
    ----------
    branches:
        Mapping of flow name to downstream element.  Several flows may
        share one element; ``children()``/``start()`` visit each distinct
        element once.
    """

    def __init__(
        self, branches: dict[str, Element], name: str | None = None
    ) -> None:
        super().__init__(name)
        self.branches = dict(branches)
        self.ignored_count = 0

    def _unique_branches(self) -> Iterable[Element]:
        # Keyed by identity; a dict keeps each element's first position.
        return {id(element): element for element in self.branches.values()}.values()

    def children(self) -> Iterable[Element]:
        yield from self._unique_branches()

    def start(self) -> None:
        for element in self._unique_branches():
            element.start()

    def receive(self, packet: Packet) -> None:
        self.received_count += 1
        branch = self.branches.get(packet.flow)
        if branch is None:
            self.ignored_count += 1
            if self._trace is not None:
                self.trace("ignore", seq=packet.seq, flow=packet.flow)
            return
        if self._trace is not None:
            self.trace("route", seq=packet.seq, flow=packet.flow)
        branch.receive(packet)

    def reset(self) -> None:
        super().reset()
        self.ignored_count = 0
