"""ISENDER — the model-based sender (§3.2).

The ISender has exactly the two jobs the paper gives it:

1. maintain a probability distribution over possible network configurations
   (delegated to :class:`~repro.inference.belief.BeliefState`), and
2. at every wake-up — an acknowledgement arriving or its own timer expiring —
   take the action ("send now" or "sleep until *t*") that maximizes the
   expected utility (delegated to
   :class:`~repro.core.planner.ExpectedUtilityPlanner`).

The element plugs into the discrete-event simulator like any other source:
connect it to the entry of the network under test and give it the Receiver
whose acknowledgements it should listen to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.planner import Decision, ExpectedUtilityPlanner
from repro.elements.receiver import Delivery, Receiver
from repro.errors import ConfigurationError
from repro.inference.belief import BeliefState
from repro.inference.observation import AckObservation, SentRecord
from repro.sim.element import SourceElement
from repro.sim.events import Event
from repro.sim.packet import Packet
from repro.units import DEFAULT_PACKET_BITS

#: Safety valve on how many packets a single wake-up may emit.
MAX_SENDS_PER_WAKE = 64


@dataclass(slots=True)
class DecisionRecord:
    """One planning step taken by the sender (kept for analysis and tests).

    ``expected_utilities`` is the decision's own mapping, not a copy: with a
    policy cache most records of a run share a handful of them.  Read-only.
    """

    time: float
    delay: float
    sent_seq: Optional[int]
    hypotheses: int
    expected_utilities: dict[float, float] = field(default_factory=dict)


class ISender(SourceElement):
    """The utility-maximizing, uncertainty-tracking sender.

    Parameters
    ----------
    belief:
        The sender's belief over network configurations.
    planner:
        The expected-utility planner, or a
        :class:`~repro.core.policy.SharedPlanner` over one that senders of
        the same config share.
    policy:
        Optional decision policy consulted *instead of* the planner at each
        wake-up — anything with ``decide(belief, now)`` that falls back to
        the planner itself, i.e. a :class:`~repro.core.policy.PolicyCache`
        (runtime memoization) or a precomputed ``PolicyTable`` (§3.3, built
        by the layer above).  ``None`` plans live.
    receiver:
        The Receiver at the far end of the network; the sender registers
        itself for acknowledgement callbacks.
    flow:
        Flow name stamped on transmitted packets.
    packet_bits:
        Size of every transmitted packet (the paper assumes uniform sizes).
    start_time / stop_time:
        When the sender begins making decisions, and (optionally) when it
        stops transmitting.
    """

    def __init__(
        self,
        belief: BeliefState,
        planner: ExpectedUtilityPlanner,
        receiver: Receiver,
        flow: str = "isender",
        packet_bits: float = DEFAULT_PACKET_BITS,
        name: str | None = None,
        start_time: float = 0.0,
        stop_time: Optional[float] = None,
        policy=None,
    ) -> None:
        if packet_bits <= 0:
            raise ConfigurationError(f"packet_bits must be positive, got {packet_bits!r}")
        super().__init__(name or "isender")
        self.belief = belief
        self.planner = planner
        #: The active decision policy (cache or table), ``None`` when live.
        self.policy = policy
        self._decider = policy if policy is not None else planner
        self.receiver = receiver
        self.flow = flow
        self.packet_bits = float(packet_bits)
        self.start_time = float(start_time)
        self.stop_time = stop_time

        self.sent: list[SentRecord] = []
        self.acks: list[AckObservation] = []
        self.decisions: list[DecisionRecord] = []
        self._pending_acks: list[AckObservation] = []
        self._next_seq = 0
        self._timer: Optional[Event] = None
        self._wake_scheduled = False

        receiver.on_deliver = self._on_delivery

    # ------------------------------------------------------------- life cycle

    def start(self) -> None:
        self.sim.schedule_at(max(self.start_time, self.sim.now), self._wake)

    # ----------------------------------------------------------------- events

    def _on_delivery(self, delivery: Delivery) -> None:
        """Acknowledgement callback installed on the Receiver."""
        ack = AckObservation(
            seq=delivery.seq,
            received_at=delivery.received_at,
            ack_at=self.sim.now,
        )
        self._pending_acks.append(ack)
        self.acks.append(ack)
        if self._trace is not None:
            self.trace("ack", seq=ack.seq, received_at=ack.received_at)
        self._wake_soon()

    def _wake_soon(self) -> None:
        """Schedule an immediate wake-up, collapsing duplicates."""
        if self._wake_scheduled:
            return
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._wake_scheduled = True
        self.sim.schedule(0.0, self._wake, priority=10)

    def _wake(self) -> None:
        """One wake-up: update the belief, then act until a sleep is chosen."""
        self._wake_scheduled = False
        self._timer = None
        now = self.sim.now

        acks = self._pending_acks
        self._pending_acks = []
        self.belief.update(now, acks)

        if self.stop_time is not None and now >= self.stop_time:
            return

        sends_this_wake = 0
        while True:
            decision = self._decider.decide(self.belief, now)
            self.decisions.append(
                DecisionRecord(
                    time=now,
                    delay=decision.delay,
                    sent_seq=self._next_seq if decision.send_now else None,
                    hypotheses=decision.hypotheses_evaluated,
                    expected_utilities=decision.expected_utilities,
                )
            )
            if decision.send_now and sends_this_wake < MAX_SENDS_PER_WAKE:
                self._transmit(now)
                sends_this_wake += 1
                continue
            self._sleep(decision, now)
            break

    def _transmit(self, now: float) -> None:
        seq = self._next_seq
        self._next_seq += 1
        packet = Packet(
            seq=seq,
            flow=self.flow,
            size_bits=self.packet_bits,
            created_at=now,
            sent_at=now,
        )
        self.sent.append(SentRecord(seq=seq, size_bits=self.packet_bits, sent_at=now))
        self.belief.record_send(seq, self.packet_bits, now)
        if self._trace is not None:
            self.trace("send", seq=seq)
        self.emit(packet)

    def _sleep(self, decision: Decision, now: float) -> None:
        delay = decision.delay
        if delay <= 0.0:
            # The planner wanted to send but the per-wake budget is spent;
            # re-evaluate one believed service time later.  (The MAP
            # accessor avoids materializing a scalar Hypothesis when the
            # belief backend is vectorized.)
            delay = self.planner.packet_bits / self.belief.map_link_rate_bps()
        self._timer = self.sim.schedule(delay, self._wake)
        if self._trace is not None:
            self.trace("sleep", delay=delay)

    # ------------------------------------------------------------------ stats

    @property
    def packets_sent(self) -> int:
        """Number of packets transmitted so far."""
        return len(self.sent)

    @property
    def packets_acked(self) -> int:
        """Number of acknowledgements received so far."""
        return len(self.acks)

    def delivery_rate(self) -> float:
        """Fraction of transmitted packets acknowledged so far."""
        if not self.sent:
            return 0.0
        return len({ack.seq for ack in self.acks}) / len(self.sent)

    def sequence_series(self) -> list[tuple[float, int]]:
        """``(ack time, cumulative acked packets)`` — Figure 3's y-axis."""
        ordered = sorted(self.acks, key=lambda ack: ack.ack_at)
        return [(ack.ack_at, index + 1) for index, ack in enumerate(ordered)]

    def reset(self) -> None:
        super().reset()
        self.sent = []
        self.acks = []
        self.decisions = []
        self._pending_acks = []
        self._next_seq = 0
        self._timer = None
        self._wake_scheduled = False
