"""ISENDER — the model-based sender (§3.2).

The ISender has exactly the two jobs the paper gives it:

1. maintain a probability distribution over possible network configurations
   (delegated to :class:`~repro.inference.belief.BeliefState`), and
2. at every wake-up — an acknowledgement arriving or its own timer expiring —
   take the action ("send now" or "sleep until *t*") that maximizes the
   expected utility (delegated to
   :class:`~repro.core.planner.ExpectedUtilityPlanner`), and decide again
   after each send, at the same instant, until it chooses to sleep.

A sender that plans live asks the planner for each decision's
*follow-up* — the decision after one more send — which the array engine
values in the same kernel call; a send then acts on it instead of planning
again.  It is the very decision a fresh plan would make, so only the number
of kernel calls changes.

The element plugs into the discrete-event simulator like any other source:
connect it to the entry of the network under test and give it the Receiver
whose acknowledgements it should listen to.
"""

from __future__ import annotations

from array import array
from typing import Optional

from repro.core.planner import Decision, ExpectedUtilityPlanner
from repro.elements.receiver import Delivery, Receiver
from repro.errors import ConfigurationError
from repro.inference.belief import BeliefState
from repro.inference.observation import AckObservation
from repro.sim.element import SourceElement
from repro.sim.events import Event
from repro.sim.packet import Packet
from repro.units import DEFAULT_PACKET_BITS

#: Safety valve on how many packets a single wake-up may emit.
MAX_SENDS_PER_WAKE = 64


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

    The sender makes its first decision when it starts, and never stops.
    """

    def __init__(
        self,
        belief: BeliefState,
        planner: ExpectedUtilityPlanner,
        receiver: Receiver,
        flow: str = "isender",
        packet_bits: float = DEFAULT_PACKET_BITS,
        name: str | None = None,
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
        #: A live planner plans each send's follow-up in the same kernel
        #: call (its ``follow_up_bits``); a policy or a shared planner is
        #: asked one decision at a time.
        self._follow_up_bits = (
            float(packet_bits)
            if policy is None and isinstance(planner, ExpectedUtilityPlanner)
            else None
        )
        self.receiver = receiver
        self.flow = flow
        self.packet_bits = float(packet_bits)

        # The history the statistics read, as columns: the first send's
        # time (the send count is ``_next_seq``) and each acknowledgement's
        # sequence number and arrival time, in arrival order.
        self.first_sent_at: Optional[float] = None
        self.ack_seqs = array("q")
        self.ack_times = array("d")
        self._pending_acks: list[AckObservation] = []
        self._next_seq = 0
        self._timer: Optional[Event] = None
        self._wake_scheduled = False

        receiver.on_deliver = self._on_delivery

    # ------------------------------------------------------------- life cycle

    def start(self) -> None:
        self.sim.schedule_at(self.sim.now, self._wake)

    # ----------------------------------------------------------------- events

    def _on_delivery(self, delivery: Delivery) -> None:
        """Acknowledgement callback installed on the Receiver."""
        ack = AckObservation(
            seq=delivery.seq,
            received_at=delivery.received_at,
            ack_at=self.sim.now,
        )
        self._pending_acks.append(ack)
        self.ack_seqs.append(ack.seq)
        self.ack_times.append(ack.ack_at)
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

        sends_this_wake = 0
        decision = self._decide(now)
        while decision.send_now and sends_this_wake < MAX_SENDS_PER_WAKE:
            self._transmit(now)
            sends_this_wake += 1
            # The follow-up is the plan on the belief this send left.
            decision = decision.follow_up or self._decide(now)
        self._sleep(decision, now)

    def _decide(self, now: float) -> Decision:
        if self._follow_up_bits is None:
            return self._decider.decide(self.belief, now)
        return self._decider.decide(self.belief, now, follow_up_bits=self._follow_up_bits)

    def _transmit(self, now: float) -> None:
        seq = self._next_seq
        self._next_seq += 1
        if seq == 0:
            self.first_sent_at = now
        packet = Packet(
            seq=seq,
            flow=self.flow,
            size_bits=self.packet_bits,
            created_at=now,
            sent_at=now,
        )
        self.belief.record_send(seq, self.packet_bits, now)
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

    # ------------------------------------------------------------------ stats

    @property
    def packets_sent(self) -> int:
        """Number of packets transmitted so far."""
        return self._next_seq

    @property
    def packets_acked(self) -> int:
        """Number of acknowledgements received so far."""
        return len(self.ack_seqs)

    def delivery_rate(self) -> float:
        """Fraction of transmitted packets acknowledged so far."""
        if not self._next_seq:
            return 0.0
        return len(set(self.ack_seqs)) / self._next_seq

    def sequence_series(self) -> list[tuple[float, int]]:
        """``(ack time, cumulative acked packets)`` — Figure 3's y-axis."""
        return [(at, index + 1) for index, at in enumerate(sorted(self.ack_times))]

    def reset(self) -> None:
        """Refuse: the belief has moved on with the run and the one the
        sender was built with is gone, so a reset sender could not plan."""
        raise ConfigurationError(
            f"ISender {self.name!r} cannot be reset: its belief has moved on with "
            "the run; a model-based sender must be rebuilt"
        )
