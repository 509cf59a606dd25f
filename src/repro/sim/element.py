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

    def attach(self, sim: Simulator, rng: RngRegistry | None = None) -> None:
        """Bind the element (and its children) to a simulator and, when
        given, the registry its random streams are drawn from.

        Attaching twice to different simulators is an error; attaching twice
        to the same simulator is a harmless no-op, which lets a
        :class:`Network` attach a graph that shares elements.
        """
        if self._attached and self.sim is not sim:
            raise WiringError(f"element {self.name!r} is already attached to another simulator")
        self.sim = sim
        self._rng_registry = rng
        self._attached = True
        for child in self.children():
            child.attach(sim, rng=rng)

    #: The simulator this element is attached to (a :class:`WiringError`
    #: until :meth:`attach` sets it).
    sim: Simulator = _UnattachedSim()  # type: ignore[assignment]

    def rng(self, purpose: str = "default"):
        """Return this element's named random stream for ``purpose``."""
        if self._rng_registry is None:
            # Elements used stand-alone (e.g. in unit tests) still need
            # deterministic behaviour, so fall back to a private registry.
            self._rng_registry = RngRegistry(seed=0)
        return self._rng_registry.stream(f"{self.name}/{purpose}")

    # -------------------------------------------------------------- data path

    def receive(self, packet: Packet) -> None:
        """Handle an incoming packet.  Subclasses must override."""
        raise NotImplementedError

    def emit(self, packet: Packet) -> None:
        """Forward ``packet`` to the downstream element.

        Packets emitted past the edge of the graph (no downstream) are
        counted but otherwise silently discarded; experiments
        always terminate paths with an explicit Receiver or Collector, so a
        missing downstream in practice indicates a mis-wired test graph.
        """
        packet.hops += 1
        self.emitted_count += 1
        if self._downstream is not None:
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

    The network records nothing of its own: a run leaves behind only what
    its elements keep for a metric to read.
    """

    def __init__(self, seed: int = 0) -> None:
        self.sim = Simulator()
        self.rng = RngRegistry(seed)
        #: Attached elements keyed by ``id``, in registration/walk order.
        self._elements: dict[int, Element] = {}
        self._started = False

    def add(self, *elements: Element) -> None:
        """Register root elements (their downstream graphs are attached too).

        The walk stops at an element already attached here: all it reaches
        was attached with it, so many senders sharing one bottleneck walk
        the shared graph once, not once per sender.  Wire a graph before
        adding it: a link made from an attached element afterwards is not
        followed by a later ``add``.
        """
        for element in elements:
            for reachable in _walk(element, self._elements):
                reachable.attach(self.sim, rng=self.rng)

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
        """Reset every element and replace the simulator.

        An element whose initial state is gone refuses: a model-based
        sender (:class:`~repro.core.isender.ISender`) has a belief that moved
        on with the run, so its ``reset`` raises
        :class:`~repro.errors.ConfigurationError` and the network must be
        rebuilt instead.
        """
        self.sim = Simulator()
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


def _walk(root: Element, known: dict[int, Element]) -> Iterator[Element]:
    """Yield ``root`` and every element reachable via downstream links/children
    that ``known`` does not hold, adding each to ``known`` as it is yielded.

    An element in ``known`` is not entered: what it reaches was walked when
    it was added.
    """
    stack = [root]
    while stack:
        element = stack.pop()
        if id(element) in known:
            continue
        known[id(element)] = element
        yield element
        if element.downstream is not None:
            stack.append(element.downstream)
        stack.extend(element.children())
