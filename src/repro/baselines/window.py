"""Shared machinery for window-based (TCP-like) senders.

:class:`WindowSender` implements everything the classic congestion
controllers have in common — a self-clocked sliding window, per-packet
acknowledgements folded into a cumulative ACK, Jacobson/Karels RTT
estimation and retransmission timeout, duplicate-ACK counting, and
retransmission — and leaves the window adjustment policy to subclasses via
four hooks:

* :meth:`on_ack_window` — a new (non-duplicate) cumulative ACK arrived.
* :meth:`on_fast_retransmit` — three duplicate ACKs arrived.
* :meth:`on_timeout` — the retransmission timer expired.
* :meth:`on_recovery_exit` — the loss episode that triggered fast
  retransmit has been repaired.

The window is measured in packets (the paper's senders use uniform-size
packets) and may take fractional values internally, as in most analytical
treatments of TCP.
"""

from __future__ import annotations

import math
from array import array
from typing import Optional

from repro.elements.receiver import Delivery, Receiver
from repro.errors import ConfigurationError
from repro.sim.element import SourceElement
from repro.sim.events import Event
from repro.sim.packet import Packet
from repro.units import DEFAULT_PACKET_BITS

#: Initial congestion window, in packets.
INITIAL_CWND = 1.0
#: Lower bound on the retransmission timeout, in seconds.
MIN_RTO = 0.2


class WindowSender(SourceElement):
    """Base class for self-clocked, window-based senders.

    Parameters
    ----------
    receiver:
        The Receiver whose delivery callbacks act as acknowledgements.
    flow:
        Flow name stamped on transmitted packets.
    packet_bits:
        Packet size (uniform).
    initial_ssthresh:
        Initial slow-start threshold, in packets.
    max_rto:
        Upper bound on the retransmission timeout, in seconds (the lower
        one is ``MIN_RTO``).

    The sender starts with ``INITIAL_CWND`` packets in its window, sends
    from its start, and has no end: an unbounded bulk transfer.
    """

    def __init__(
        self,
        receiver: Receiver,
        flow: str = "tcp",
        packet_bits: float = DEFAULT_PACKET_BITS,
        name: str | None = None,
        initial_ssthresh: float = 64.0,
        max_rto: float = 60.0,
    ) -> None:
        # Each check is written so that NaN fails it, and every bound is finite.
        if not 0.0 < packet_bits < math.inf:
            raise ConfigurationError(
                f"packet_bits must be positive and finite, got {packet_bits!r}"
            )
        if not MIN_RTO <= max_rto < math.inf:
            raise ConfigurationError(
                f"require {MIN_RTO} <= max_rto < inf, got {max_rto!r}"
            )
        if not 0.0 < initial_ssthresh < math.inf:
            raise ConfigurationError(
                f"initial_ssthresh must be positive and finite, got {initial_ssthresh!r}"
            )
        super().__init__(name)
        self.receiver = receiver
        self.flow = flow
        self.packet_bits = float(packet_bits)
        self._initial_ssthresh = float(initial_ssthresh)
        self.max_rto = max_rto
        self._restart()
        receiver.on_deliver = self._on_delivery

    def _restart(self) -> None:
        """Set the run state to what a freshly built sender holds."""
        # Congestion state.
        self.cwnd = INITIAL_CWND
        self.ssthresh = self._initial_ssthresh
        self.in_recovery = False
        self.recovery_point = -1

        # Reliability state.
        self.next_seq = 0
        self.cumulative_ack = -1  # highest contiguously acknowledged sequence number
        # Delivered sequence numbers above `cumulative_ack`: the only ones a
        # later delivery can read (the cumulative loop, fast retransmit and
        # NewReno's partial ACK all ask about `cumulative_ack + 1`).
        self.received_seqs: set[int] = set()
        self.outstanding: dict[int, float] = {}  # seq -> last transmission time
        self.duplicate_acks = 0

        # RTT estimation (Jacobson/Karels).
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self.rto = 1.0
        # Dropped, never cancelled or moved: after `Network.reset` it belongs
        # to the discarded simulator.
        self._rto_timer: Optional[Event] = None

        # Statistics.  RTT samples are two columns, read by `rtt_series`.
        self.rtt_times = array("d")
        self.rtt_values = array("d")
        self.retransmissions = 0
        self.timeouts = 0
        self.fast_retransmits = 0
        self.packets_sent = 0

    # --------------------------------------------------------------- subclass

    def on_ack_window(self, newly_acked: int) -> None:
        """Adjust ``cwnd`` after a new cumulative ACK covering ``newly_acked`` packets."""
        raise NotImplementedError

    def on_fast_retransmit(self) -> None:
        """Adjust ``cwnd``/``ssthresh`` when three duplicate ACKs arrive."""
        raise NotImplementedError

    def on_timeout(self) -> None:
        """Adjust ``cwnd``/``ssthresh`` when the retransmission timer fires."""
        self.ssthresh = max(self.flight_size() / 2.0, 2.0)
        self.cwnd = 1.0

    def on_recovery_exit(self) -> None:
        """Called when the sender leaves fast recovery (default: deflate to ssthresh)."""
        self.cwnd = max(self.ssthresh, 1.0)

    # ------------------------------------------------------------- life cycle

    def start(self) -> None:
        self.sim.schedule_at(self.sim.now, self._send_allowed)

    # ------------------------------------------------------------- data plane

    def flight_size(self) -> int:
        """Number of packets currently unacknowledged."""
        return len(self.outstanding)

    def _send_allowed(self) -> None:
        """Transmit as many new packets as the window currently allows."""
        # Runs on every ACK, so `flight_size()` is written out inline.  `cwnd`
        # is re-read every iteration: on a zero-delay path `_transmit`
        # re-enters `_on_delivery`, which moves the window.
        while len(self.outstanding) < int(self.cwnd):
            self._transmit(self.next_seq)
            self.next_seq += 1
        self._arm_rto()

    def _transmit(self, seq: int, retransmission: bool = False) -> None:
        now = self.sim.now
        packet = Packet(
            seq=seq,
            flow=self.flow,
            size_bits=self.packet_bits,
            created_at=now,
            sent_at=now,
        )
        self.outstanding[seq] = now
        self.packets_sent += 1
        if retransmission:
            self.retransmissions += 1
        self.emit(packet)

    # ------------------------------------------------------------ ack handling

    def _on_delivery(self, delivery: Delivery) -> None:
        now = self.sim.now
        seq = delivery.seq

        # RTT sample (Karn's rule: only time packets transmitted exactly once
        # would be fully correct; timing the most recent transmission is the
        # usual simulator simplification).
        sent_at = self.outstanding.pop(seq, None)
        if sent_at is not None:
            rtt = now - sent_at
            self.rtt_times.append(now)
            self.rtt_values.append(rtt)
            self._update_rto(rtt)

        # The cumulative ACK takes each sequence number it passes out of
        # `received_seqs`, and one at or below it is never put in.
        previous_cumulative = cumulative = self.cumulative_ack
        received = self.received_seqs
        if seq == cumulative + 1:
            cumulative = seq
            while cumulative + 1 in received:
                cumulative += 1
                received.remove(cumulative)
            self.cumulative_ack = cumulative
        elif seq > cumulative:
            received.add(seq)

        if self.cumulative_ack > previous_cumulative:
            newly_acked = self.cumulative_ack - previous_cumulative
            self.duplicate_acks = 0
            if self.in_recovery and self.cumulative_ack >= self.recovery_point:
                self.in_recovery = False
                self.on_recovery_exit()
            elif not self.in_recovery:
                self.on_ack_window(newly_acked)
        else:
            # The receiver got a packet but the cumulative ACK did not move:
            # this is what TCP would report as a duplicate ACK.
            self.duplicate_acks += 1
            if self.duplicate_acks == 3 and not self.in_recovery:
                self._enter_fast_retransmit()

        self._send_allowed()

    def _enter_fast_retransmit(self) -> None:
        self.fast_retransmits += 1
        self.in_recovery = True
        self.recovery_point = self.next_seq - 1
        self.on_fast_retransmit()
        missing = self.cumulative_ack + 1
        if missing not in self.received_seqs:
            self._transmit(missing, retransmission=True)

    # ---------------------------------------------------------------- timeout

    def _update_rto(self, rtt: float) -> None:
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2.0
        else:
            assert self.rttvar is not None
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - rtt)
            self.srtt = 0.875 * self.srtt + 0.125 * rtt
        self.rto = min(self.max_rto, max(MIN_RTO, self.srtt + 4.0 * self.rttvar))

    def _arm_rto(self) -> None:
        timer = self._rto_timer
        if not self.outstanding:
            if timer is not None:
                timer.cancel()
                self._rto_timer = None
            return
        sim = self.sim
        if timer is None:
            self._rto_timer = sim.schedule(self.rto, self._handle_timeout)
        else:
            # A live timer moves to the new deadline (the same float
            # `schedule(self.rto)` computes); it is not cancelled and re-armed.
            self._rto_timer = sim.reschedule(timer, sim.now + self.rto)

    def _handle_timeout(self) -> None:
        self._rto_timer = None
        if not self.outstanding:
            return
        self.timeouts += 1
        self.duplicate_acks = 0
        self.in_recovery = False
        self.on_timeout()
        self.rto = min(self.max_rto, self.rto * 2.0)  # exponential backoff
        self._transmit(min(self.outstanding), retransmission=True)
        self._arm_rto()

    # ------------------------------------------------------------------ stats

    def goodput_bps(self, start: float, end: float) -> float:
        """Acknowledged (in-order) bits per second over ``[start, end)``."""
        return self.receiver.throughput_bps(start, end, flow=self.flow)

    def rtt_series(self) -> list[tuple[float, float]]:
        """``(time, rtt)`` samples — the series Figure 1 plots."""
        return list(zip(self.rtt_times, self.rtt_values))

    def reset(self) -> None:
        super().reset()
        self._restart()
