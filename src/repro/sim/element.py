"""Base classes for network elements and the :class:`Network` container.

The paper's model is "a language of network elements" (§3.1).  Every element
in :mod:`repro.elements` derives from :class:`Element`: it receives packets
from an upstream element, does something to them (queues, delays, drops,
duplicates ...), and emits them downstream.  Elements that originate traffic
(PINGER, the senders) additionally derive from :class:`SourceElement` and are
started when the enclosing :class:`Network` begins to run.

Wiring is single-output by default: ``a.connect(b)`` (or ``a >> b``) makes
``b`` the downstream of ``a``.  Fan-out and routing are modelled explicitly
with the combinator elements (SERIES, DIVERTER, EITHER) rather than with a
generic multi-port mechanism, mirroring the paper's vocabulary.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator, Optional

from repro.errors import WiringError
from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.random import RngRegistry
from repro.sim.trace import TraceRecorder


class _UnattachedSim:
    """``Element.sim`` before :meth:`Element.attach`: reading it is a wiring error.

    A non-data descriptor, so the instance attribute that ``attach`` sets
    shadows it and an attached element's ``self.sim`` is a plain attribute
    load — it is read on every packet.
    """

    def __get__(self, element: "Element | None", owner: type | None = None):
        if element is None:
            return self
        raise WiringError(f"element {element.name!r} is not attached to a simulator")


class Element:
    """Base class for every network element.

    Subclasses implement :meth:`receive`.  They may also override
    :meth:`start` (called once when the network starts running),
    :meth:`children` (combinators must yield their internal elements so they
    get attached too), and :meth:`reset`.
    """

    #: Class-level counter used to generate unique default names.
    _instance_counter = 0

    def __init__(self, name: str | None = None) -> None:
        cls = type(self)
        cls._instance_counter += 1
        self.name = name or f"{cls.__name__.lower()}-{cls._instance_counter}"
        self._downstream: Optional[Element] = None
        self._rng_registry: Optional[RngRegistry] = None
        self._trace: Optional[TraceRecorder] = None
        self._attached = False
        self.emitted_count = 0
        self.received_count = 0

    # ----------------------------------------------------------------- wiring

    def connect(self, downstream: "Element") -> "Element":
        """Make ``downstream`` the next hop and return it (for chaining)."""
        if downstream is self:
            raise WiringError(f"element {self.name!r} cannot be connected to itself")
        self._downstream = downstream
        return downstream

    def __rshift__(self, downstream: "Element") -> "Element":
        """``a >> b`` is shorthand for ``a.connect(b)``."""
        return self.connect(downstream)

    @property
    def downstream(self) -> Optional["Element"]:
        """The element packets are emitted to, or ``None`` at the graph edge."""
        return self._downstream

    def children(self) -> Iterable["Element"]:
        """Internal elements owned by this one (combinators override this)."""
        return ()

    # ----------------------------------------------------------------- attach

    def attach(
        self,
        sim: Simulator,
        rng: RngRegistry | None = None,
        trace: TraceRecorder | None = None,
    ) -> None:
        """Bind the element (and its children) to a simulator.

        Attaching twice to different simulators is an error; attaching twice
        to the same simulator is a harmless no-op, which lets a
        :class:`Network` attach a graph that shares elements.
        """
        if self._attached and self.sim is not sim:
            raise WiringError(f"element {self.name!r} is already attached to another simulator")
        self.sim = sim
        self._rng_registry = rng
        self._trace = trace
        self._attached = True
        for child in self.children():
            child.attach(sim, rng=rng, trace=trace)

    #: The simulator this element is attached to (a :class:`WiringError`
    #: until :meth:`attach` sets it).
    sim: Simulator = _UnattachedSim()  # type: ignore[assignment]

    @property
    def attached(self) -> bool:
        """Whether :meth:`attach` has been called."""
        return self._attached

    def rng(self, purpose: str = "default"):
        """Return this element's named random stream for ``purpose``."""
        if self._rng_registry is None:
            # Elements used stand-alone (e.g. in unit tests) still need
            # deterministic behaviour, so fall back to a private registry.
            self._rng_registry = RngRegistry(seed=0)
        return self._rng_registry.stream(f"{self.name}/{purpose}")

    # ------------------------------------------------------------------ trace

    def trace(self, kind: str, **fields) -> None:
        """Record a trace row if a recorder is attached.

        Without one this is a no-op, but the caller has still built
        ``fields``; per-packet call sites test ``self._trace is not None``
        first so an untraced run pays nothing.
        """
        if self._trace is not None:  # a recorder is only set by attach
            self._trace.record(self.sim.now, self.name, kind, **fields)

    # -------------------------------------------------------------- data path

    def receive(self, packet: Packet) -> None:
        """Handle an incoming packet.  Subclasses must override."""
        raise NotImplementedError

    def emit(self, packet: Packet) -> None:
        """Forward ``packet`` to the downstream element.

        Packets emitted past the edge of the graph (no downstream) are
        counted and traced but otherwise silently discarded; experiments
        always terminate paths with an explicit Receiver or Collector, so a
        missing downstream in practice indicates a mis-wired test graph.
        """
        packet.hops += 1
        self.emitted_count += 1
        if self._downstream is None:
            self.trace("exit", seq=packet.seq, flow=packet.flow)
            return
        self._downstream.receive(packet)

    # ------------------------------------------------------------- life cycle

    def start(self) -> None:
        """Called once when the enclosing network starts running."""

    def reset(self) -> None:
        """Return the element to its initial state (counters, queues, timers)."""
        self.emitted_count = 0
        self.received_count = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


class SourceElement(Element):
    """Base class for elements that originate packets (senders, PINGER)."""

    def receive(self, packet: Packet) -> None:
        raise WiringError(f"source element {self.name!r} does not accept incoming packets")


class Network:
    """A container that owns a simulator, its elements, and shared services.

    The network walks the element graph from the registered roots, attaches
    every reachable element, and starts all sources when :meth:`run` is
    called.

    Parameters
    ----------
    seed:
        Base seed for the per-element random streams.
    trace_kinds:
        The trace kinds to record into :attr:`trace`.  ``None`` (the default)
        records nothing: no recorder is attached to the elements and
        :attr:`trace` stays empty.  To record every kind, attach a recorder
        by hand: ``element.attach(sim, trace=TraceRecorder())``.
    """

    def __init__(self, seed: int = 0, trace_kinds: Iterable[str] | None = None) -> None:
        self.sim = Simulator()
        self.rng = RngRegistry(seed)
        self.trace = TraceRecorder(kinds=trace_kinds)
        self._element_trace = self.trace if trace_kinds is not None else None
        #: Attached elements keyed by ``id``, in registration/walk order.
        self._elements: dict[int, Element] = {}
        self._started = False

    def add(self, *elements: Element) -> None:
        """Register root elements (their downstream graphs are attached too)."""
        for element in elements:
            for reachable in _walk(element):
                if id(reachable) not in self._elements:
                    self._elements[id(reachable)] = reachable
                    reachable.attach(self.sim, rng=self.rng, trace=self._element_trace)

    @property
    def elements(self) -> list[Element]:
        """All attached elements, in registration/walk order."""
        return list(self._elements.values())

    def element(self, name: str) -> Element:
        """Look up an attached element by name."""
        for candidate in self._elements.values():
            if candidate.name == name:
                return candidate
        raise KeyError(f"no element named {name!r} in network")

    def start(self) -> None:
        """Start all sources (idempotent)."""
        if self._started:
            return
        self._started = True
        for element in self._elements.values():
            element.start()

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Start sources if needed and run the event loop."""
        self.start()
        return self.sim.run(until=until, max_events=max_events)

    def reset(self) -> None:
        """Reset every element; the simulator and traces are replaced."""
        self.sim = Simulator()
        self.trace.clear()
        self._started = False
        for element in self._elements.values():
            element.reset()
            element.sim = self.sim  # re-bind without tripping the double-attach guard


def _element_classes() -> list[type[Element]]:
    """:class:`Element` and every (transitive) subclass."""
    classes: list[type[Element]] = []
    stack: list[type[Element]] = [Element]
    while stack:
        cls = stack.pop()
        classes.append(cls)
        stack.extend(cls.__subclasses__())
    return classes


def reset_instance_counters() -> None:
    """Zero the default-name counters of :class:`Element` and every subclass.

    Default element names ("loss-3", "buffer-7", ...) come from per-class
    instance counters, and an element's random streams are keyed by its name.
    A scenario built from default-named elements therefore draws different
    random numbers depending on how many elements earlier scenarios created
    in the same process.  The scenario runner executes each point with these
    counters zeroed so a point's results depend only on its spec and seed —
    identically in a fresh worker process and in a long-lived serial one.
    """
    for cls in _element_classes():
        cls._instance_counter = 0


@contextmanager
def fresh_instance_counters():
    """Run a block with zeroed name counters, then restore the caller's.

    The scenario runner wraps every point in this so points are
    deterministic (counters start at zero) *without* leaking the reset into
    the calling process — elements the caller creates after an in-process
    serial sweep keep counting from where they left off.
    """
    snapshot = {cls: cls._instance_counter for cls in _element_classes()}
    reset_instance_counters()
    try:
        yield
    finally:
        for cls, count in snapshot.items():
            cls._instance_counter = count


def _walk(root: Element) -> Iterator[Element]:
    """Yield ``root`` and every element reachable via downstream links/children."""
    seen: set[int] = set()
    stack = [root]
    while stack:
        element = stack.pop()
        if id(element) in seen:
            continue
        seen.add(id(element))
        yield element
        if element.downstream is not None:
            stack.append(element.downstream)
        stack.extend(element.children())
