"""A fast packet-level model of the Figure-2 topology class.

One :class:`LinkModel` instance represents a single *possible configuration*
of the network between the sender and its receiver: an isochronous cross
traffic source (the PINGER) gated on/off, a shared tail-drop BUFFER, a
THROUGHPUT-limited link, and last-mile stochastic LOSS — exactly the
composition of the paper's Figure 2.

It is deterministic given its latent state: the only randomness in the real
network (stochastic loss, the gate's memoryless switching) is handled by the
layers above — last-mile loss becomes a survival probability on each
predicted delivery (folded into the acknowledgement likelihood), and gate
switching is handled by the Hypothesis layer forking model clones.

The class is deliberately lean because the belief state clones and advances
hundreds of these models on every sender wake-up.  Queue entries are
immutable ``(flow, seq, size_bits)`` tuples (:data:`QueuedPacket`), so a
clone copies the deque and shares every entry (and the packet in service)
with its original.

The initial buffer fill is :func:`initial_fill`: the shared
:func:`~repro.units.filler_packet_sizes` rule, the first packet put in
service and the rest queued behind it.  A model loads it with one
``deque.extend``, and the array engine writes the same packets straight
into its buffers
(:meth:`~repro.inference.vectorized.state.EnsembleState.from_prior`)
without building a model at all.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, fields
from functools import reduce
from itertools import repeat
from operator import add
from typing import Mapping, Optional

from repro.errors import ConfigurationError, InferenceError
from repro.units import DEFAULT_PACKET_BITS, filler_packet_sizes

#: Flow label used for the sender's own traffic inside the model.
OWN = "own"

#: Flow label used for cross traffic (and the initial buffer fill) inside the model.
CROSS = "cross"


@dataclass(frozen=True)
class LinkModelParams:
    """Static parameters of one candidate network configuration.

    These are the quantities the paper's prior ranges over (§4): link speed,
    buffer capacity and initial fullness, cross-traffic rate, stochastic loss
    rate, and the cross-traffic gate's mean time to switch.
    """

    link_rate_bps: float
    buffer_capacity_bits: float
    initial_fill_bits: float = 0.0
    loss_rate: float = 0.0
    cross_rate_pps: float = 0.0
    cross_packet_bits: float = DEFAULT_PACKET_BITS
    mean_time_to_switch: Optional[float] = None
    cross_initially_on: bool = True
    filler_packet_bits: float = DEFAULT_PACKET_BITS

    def __post_init__(self) -> None:
        # Every test is written so that NaN fails it (a NaN passed the old
        # ``<= 0`` tests), and every upper end is finite.
        if not 0.0 < self.link_rate_bps < math.inf:
            raise ConfigurationError("link_rate_bps must be positive and finite")
        if not 0.0 < self.buffer_capacity_bits < math.inf:
            raise ConfigurationError("buffer_capacity_bits must be positive and finite")
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ConfigurationError("loss_rate must lie in [0, 1]")
        if not 0.0 <= self.initial_fill_bits <= self.buffer_capacity_bits:
            raise ConfigurationError("initial_fill_bits must lie in [0, buffer capacity]")
        if not 0.0 <= self.cross_rate_pps < math.inf:
            raise ConfigurationError("cross_rate_pps must be non-negative and finite")
        # A 0-bit (or negative, or NaN) packet made filling a buffer endless.
        # A tiny positive one (1e-300 bits) passes here; the fill rule,
        # ``filler_packet_sizes``, refuses the fill it would cut into more
        # than MAX_FILLER_PACKETS packets, so the model raises as it is built.
        if not 0.0 < self.cross_packet_bits < math.inf:
            raise ConfigurationError("cross_packet_bits must be positive and finite")
        if not 0.0 < self.filler_packet_bits < math.inf:
            raise ConfigurationError("filler_packet_bits must be positive and finite")
        if self.mean_time_to_switch is not None and not 0.0 < self.mean_time_to_switch < math.inf:
            raise ConfigurationError("mean_time_to_switch must be positive and finite when given")

    @classmethod
    def from_assignment(
        cls, assignment: Mapping[str, float], **overrides: float
    ) -> "LinkModelParams":
        """The configuration a prior assignment names.

        Keys that are fields of this class are taken, then ``overrides``;
        other keys (``fill_fraction``, ``packet_bits``, …) describe the
        experiment, not the link, and are ignored.  ``cross_initially_on``
        arrives as a grid value (``0.0`` / ``1.0``) and becomes a bool.
        """
        kwargs = {key: value for key, value in assignment.items() if key in _FIELD_NAMES}
        kwargs.update(overrides)
        if "cross_initially_on" in kwargs:
            kwargs["cross_initially_on"] = bool(kwargs["cross_initially_on"])
        return cls(**kwargs)

    @property
    def has_cross_traffic(self) -> bool:
        """Whether the configuration contains a cross-traffic source at all."""
        return self.cross_rate_pps > 0


_FIELD_NAMES = frozenset(spec.name for spec in fields(LinkModelParams))


@dataclass(frozen=True, slots=True)
class Prediction:
    """The model's prediction for one of the sender's own packets."""

    seq: int
    kind: str  # "delivered" or "dropped"
    time: float
    survival: float

    @property
    def delivered(self) -> bool:
        """Whether the packet is predicted to reach the receiver (before loss)."""
        return self.kind == "delivered"


#: A packet sitting in the modelled buffer or in service on the link:
#: ``(flow, seq, size_bits)``.  A plain tuple: immutable, so clones share
#: entries instead of copying them, and the cheapest record to build — the
#: scalar engine builds one per send and per cross arrival, and a named
#: tuple or slotted dataclass costs several times as much to construct.
QueuedPacket = tuple[str, int, float]


def initial_fill(fill_bits: float, filler_bits: float) -> tuple[list[float], float]:
    """The filler packets a model with this initial fill starts with.

    Returns the sizes :func:`~repro.units.filler_packet_sizes` cuts the
    fill into and the left-to-right sum of all but the first, which is what
    enqueueing them one by one counts.  Filler packet ``k`` (from 1) has
    sequence number ``-k``; the first is in service, the rest queued behind
    it.  None is tail-dropped: :class:`LinkModelParams` keeps the fill
    within the capacity, so the queued packets hold at most the capacity
    less the one in service.
    """
    sizes = filler_packet_sizes(fill_bits, filler_bits)
    return sizes, reduce(add, sizes[1:], 0.0)


@dataclass(slots=True)
class CrossTally:
    """Cross-traffic outcomes a rollout's model accumulates (for utility)."""

    deliveries: list[tuple[float, float]] = field(default_factory=list)
    drops: list[tuple[float, float]] = field(default_factory=list)


class LinkModel:
    """Deterministic forward model of one candidate network configuration."""

    __slots__ = (
        "params",
        "time",
        "gate_on",
        "next_cross_time",
        "_next_cross_seq",
        "_queue",
        "_queue_bits",
        "_in_service",
        "_service_completion",
        "predictions",
        "cross",
        "own_sent",
    )

    def __init__(self, params: LinkModelParams, start_time: float = 0.0) -> None:
        self.params = params
        self.time = float(start_time)
        self.gate_on = params.cross_initially_on and params.has_cross_traffic
        self.next_cross_time = float(start_time) if self.gate_on else float("inf")
        self._next_cross_seq = 0
        self._queue: deque[QueuedPacket] = deque()
        self._queue_bits = 0.0
        self._in_service: Optional[QueuedPacket] = None
        self._service_completion = float("inf")
        #: Predictions for the sender's own packets, keyed by sequence number.
        self.predictions: dict[int, Prediction] = {}
        #: Cross-traffic outcomes, tallied only on a rollout's copy
        #: (``clone(keep_history=False)``): nothing reads a belief row's.
        self.cross: Optional[CrossTally] = None
        #: Times at which the sender's own packets entered this model.
        self.own_sent: dict[int, float] = {}
        self._load_initial_fill()

    # ------------------------------------------------------------------ state

    @property
    def queue_bits(self) -> float:
        """Bits waiting in the modelled buffer (excluding the packet in service)."""
        return self._queue_bits

    @property
    def busy(self) -> bool:
        """Whether the modelled link is currently transmitting."""
        return self._in_service is not None

    @property
    def backlog_bits(self) -> float:
        """Queued bits plus the size of the packet in service, if any."""
        extra = self._in_service[2] if self._in_service is not None else 0.0
        return self._queue_bits + extra

    def cross_backlog_bits(self) -> float:
        """Cross-traffic bits still queued or in service (used by latency penalties)."""
        total = sum(size for flow, _, size in self._queue if flow == CROSS)
        if self._in_service is not None and self._in_service[0] == CROSS:
            total += self._in_service[2]
        return total

    def drain_time(self) -> float:
        """Seconds needed to transmit everything currently queued or in service."""
        remaining = self._queue_bits
        if self._in_service is not None:
            remaining += max(0.0, (self._service_completion - self.time) * self.params.link_rate_bps)
            return remaining / self.params.link_rate_bps
        return remaining / self.params.link_rate_bps

    # ------------------------------------------------------------------ clone

    def clone(self, keep_history: bool = True) -> "LinkModel":
        """Return an independent copy of the model.

        With ``keep_history=False`` the resolved predictions are not copied
        and the copy starts an empty cross-traffic tally, which is what
        planner rollouts want: they only care about what happens after the
        decision time.  A full copy (a belief row's fork) tallies nothing.
        """
        duplicate = LinkModel.__new__(LinkModel)
        duplicate.params = self.params
        duplicate.time = self.time
        duplicate.gate_on = self.gate_on
        duplicate.next_cross_time = self.next_cross_time
        duplicate._next_cross_seq = self._next_cross_seq
        duplicate._queue = deque(self._queue)
        duplicate._queue_bits = self._queue_bits
        duplicate._in_service = self._in_service
        duplicate._service_completion = self._service_completion
        if keep_history:
            duplicate.predictions = dict(self.predictions)
            duplicate.cross = None
            duplicate.own_sent = dict(self.own_sent)
        else:
            duplicate.predictions = {}
            duplicate.cross = CrossTally()
            duplicate.own_sent = {}
        return duplicate

    # ----------------------------------------------------------- state export

    def export_state(self) -> dict:
        """The latent state as a plain dict of scalars and flat sequences.

        This is the batchable layout the vectorized inference backend packs
        into struct-of-arrays buffers: every entry is either a scalar or a
        list of fixed-width tuples (the queue's own immutable entries), with
        no mutable references back into the model.
        A belief row keeps no cross-traffic tally, so there is none to
        export.
        """
        return {
            "time": self.time,
            "gate_on": self.gate_on,
            "next_cross_time": self.next_cross_time,
            "next_cross_seq": self._next_cross_seq,
            "queue": list(self._queue),
            "queue_bits": self._queue_bits,
            "in_service": self._in_service,
            "service_completion": self._service_completion,
            "predictions": [
                (p.seq, p.kind, p.time, p.survival) for p in self.predictions.values()
            ],
            "own_sent": dict(self.own_sent),
        }

    @classmethod
    def from_state(cls, params: LinkModelParams, state: dict) -> "LinkModel":
        """Rebuild a model from :meth:`export_state` output (inverse operation).

        ``queue`` and ``in_service`` hold ``(flow, seq, size_bits)`` tuples;
        being immutable, they are taken as they are.
        """
        model = cls.__new__(cls)
        model.params = params
        model.time = float(state["time"])
        model.gate_on = bool(state["gate_on"])
        model.next_cross_time = float(state["next_cross_time"])
        model._next_cross_seq = int(state["next_cross_seq"])
        model._queue = deque(state["queue"])
        model._queue_bits = float(state["queue_bits"])
        model._in_service = state["in_service"]
        model._service_completion = float(state["service_completion"])
        model.predictions = {
            seq: Prediction(seq=seq, kind=kind, time=time, survival=survival)
            for seq, kind, time, survival in state["predictions"]
        }
        model.cross = None
        model.own_sent = dict(state["own_sent"])
        return model

    # ------------------------------------------------------------- gate state

    def set_gate(self, on: bool, time: Optional[float] = None) -> None:
        """Force the cross-traffic gate on or off at ``time`` (default: now)."""
        if not self.params.has_cross_traffic:
            return
        when = self.time if time is None else time
        if on and not self.gate_on:
            self.next_cross_time = max(when, self.time)
        if not on:
            self.next_cross_time = float("inf")
        self.gate_on = on

    # -------------------------------------------------------------- data path

    def send_own(self, seq: int, size_bits: float, time: float) -> None:
        """The sender transmits packet ``seq`` at ``time`` (must not be in the past)."""
        if time < self.time - 1e-9:
            raise InferenceError(
                f"cannot send at {time:.6f}: model clock is already at {self.time:.6f}"
            )
        if time > self.time:
            self.advance(time)
        self.own_sent[seq] = time
        self._enqueue((OWN, seq, size_bits))

    def advance(self, until: float) -> None:
        """Run the model forward to ``until``, processing arrivals and departures."""
        if until < self.time - 1e-9:
            raise InferenceError(
                f"cannot advance to {until:.6f}: model clock is already at {self.time:.6f}"
            )
        while True:
            next_completion = self._service_completion
            next_cross = self.next_cross_time if self.gate_on else float("inf")
            next_event = min(next_completion, next_cross)
            if next_event > until:
                break
            # Service completions are processed before arrivals at the same
            # instant so a departing packet frees buffer space for a
            # simultaneous arrival, matching the element-level simulator.
            if next_completion <= next_cross:
                self._complete_service(next_completion)
            else:
                self._cross_arrival(next_cross)
        self.time = max(self.time, until)

    # ---------------------------------------------------------------- scoring

    def projected_delivery(self, seq: int) -> Optional[float]:
        """Best-guess delivery time for an own packet still inside the model.

        Returns ``None`` if the packet is unknown or already resolved into a
        prediction.  The projection assumes the gate keeps its current state,
        which is the same assumption planner rollouts make.
        """
        if seq in self.predictions:
            return self.predictions[seq].time
        if self._in_service is not None and self._in_service[:2] == (OWN, seq):
            return self._service_completion
        ahead_bits = 0.0
        if self._in_service is not None:
            ahead_bits += max(0.0, (self._service_completion - self.time) * self.params.link_rate_bps)
        for flow, queued_seq, size_bits in self._queue:
            if flow == OWN and queued_seq == seq:
                return self.time + (ahead_bits + size_bits) / self.params.link_rate_bps
            ahead_bits += size_bits
        return None

    def signature(self) -> tuple:
        """A hashable digest of the latent state, used for belief compaction."""
        queue_key = tuple(packet[:2] for packet in self._queue)
        service_key = (
            (*self._in_service[:2], round(self._service_completion, 6))
            if self._in_service is not None
            else None
        )
        return (
            self.gate_on,
            round(self._queue_bits, 3),
            queue_key,
            service_key,
            round(self.next_cross_time, 6) if self.next_cross_time != float("inf") else None,
        )

    def rollout_key(self) -> tuple:
        """Everything a planner rollout reads from this model, unrounded.

        Unlike :meth:`signature` this is exact: equal keys mean equal
        rollouts.  Sequence numbers, predictions and tallies are left out —
        a rollout's fresh clone never reads them.
        """
        service = self._in_service
        return (
            self.params,
            self.time,
            self.gate_on,
            self.next_cross_time,
            None if service is None else (service[0], service[2]),
            self._service_completion,
            tuple((flow, size) for flow, _, size in self._queue),
            self._queue_bits,
        )

    # ---------------------------------------------------------------- helpers

    def _load_initial_fill(self) -> None:
        sizes, queue_bits = initial_fill(
            self.params.initial_fill_bits, self.params.filler_packet_bits
        )
        if sizes:
            self._start_service((CROSS, -1, sizes[0]))
        if len(sizes) > 1:
            self._queue.extend(zip(repeat(CROSS), range(-2, -len(sizes) - 1, -1), sizes[1:]))
            self._queue_bits = queue_bits

    def _enqueue(self, packet: QueuedPacket) -> None:
        if self._in_service is None:
            self._start_service(packet)
            return
        flow, seq, size_bits = packet
        if self._queue_bits + size_bits <= self.params.buffer_capacity_bits + 1e-9:
            self._queue.append(packet)
            self._queue_bits += size_bits
            return
        # Tail drop.
        if flow == OWN:
            self.predictions[seq] = Prediction(
                seq=seq, kind="dropped", time=self.time, survival=0.0
            )
        elif self.cross is not None:
            self.cross.drops.append((self.time, size_bits))

    def _start_service(self, packet: QueuedPacket) -> None:
        self._in_service = packet
        self._service_completion = self.time + packet[2] / self.params.link_rate_bps

    def _complete_service(self, when: float) -> None:
        packet = self._in_service
        assert packet is not None
        flow, seq, size_bits = packet
        self.time = when
        self._in_service = None
        self._service_completion = float("inf")
        if flow == OWN:
            self.predictions[seq] = Prediction(
                seq=seq,
                kind="delivered",
                time=when,
                survival=1.0 - self.params.loss_rate,
            )
        elif self.cross is not None:
            self.cross.deliveries.append((when, size_bits))
        if self._queue:
            nxt = self._queue.popleft()
            self._queue_bits -= nxt[2]
            if self._queue_bits < 1e-9:
                self._queue_bits = 0.0
            self._start_service(nxt)

    def _cross_arrival(self, when: float) -> None:
        self.time = when
        self._enqueue((CROSS, self._next_cross_seq, self.params.cross_packet_bits))
        self._next_cross_seq += 1
        self.next_cross_time = when + 1.0 / self.params.cross_rate_pps

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LinkModel(t={self.time:.3f}, queue={self._queue_bits:g}b, "
            f"gate={'on' if self.gate_on else 'off'}, busy={self.busy})"
        )
