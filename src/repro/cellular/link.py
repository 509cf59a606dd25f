"""The two link elements that serve at a :class:`~repro.corpus.trace.LinkTrace`'s rate.

:class:`CellularLink` is the stand-in for the LTE downlink of Figure 1.  It
combines three behaviours that RFC 3819-style subnetwork engineering
encourages and that the paper argues confound TCP:

* a **very deep tail-drop buffer** (seconds of traffic at the nominal rate),
* a **time-varying service rate** (Figure 1 runs on the corpus's
  ``random_walk`` family; any corpus entry will do),
* **link-layer ARQ**: each transmission attempt fails independently with
  ``loss_rate`` and is retried after ``retransmit_delay`` rather than being
  exposed to the endpoints, so stochastic loss shows up as extra delay.

:class:`TraceDrivenLink` is the time-varying server alone.  Both take a
packet's serialization time from
:meth:`~repro.corpus.trace.LinkTrace.service_time`.
"""

from __future__ import annotations

from collections import deque

from repro.corpus.trace import MIN_SERVICE_RATE_BPS, LinkTrace
from repro.elements.throughput import Throughput
from repro.errors import ConfigurationError
from repro.sim.element import Element
from repro.sim.packet import Packet


class TraceDrivenLink(Throughput):
    """A :class:`~repro.elements.throughput.Throughput` whose rate follows a trace.

    The one override is :meth:`service_time`, which asks the trace (see
    :meth:`~repro.corpus.trace.LinkTrace.service_time`).  Unlike
    :class:`CellularLink`, this element keeps the standard buffer-pull
    protocol — pair it with an upstream
    :class:`~repro.elements.buffer.Buffer` for bounded tail-drop queueing,
    which is how the many-flow contention scenarios share one bottleneck
    across N senders.
    """

    def __init__(self, rate_process: LinkTrace, name: str | None = None) -> None:
        # The nominal Throughput rate is never used for service times, only
        # reported — so report the trace's *mean* rate (``rate_at(0.0)``
        # reads ~0 for a trace that starts inside an outage).
        super().__init__(rate_process.mean_rate(), name)
        self.rate_process = rate_process

    def service_time(self, packet: Packet) -> float:
        return self.rate_process.service_time(self.sim.now, packet.size_bits)


class CellularLink(Element):
    """A deep-buffered, variable-rate link with loss-hiding retransmission.

    Parameters
    ----------
    rate_process:
        The time-varying service-rate trace.
    buffer_bits:
        Buffer capacity in bits.  The Figure-1 default used by the
        experiment corresponds to roughly ten seconds of traffic at the
        nominal rate — deliberately bloated.
    loss_rate:
        Probability that one transmission attempt fails and is retried.
    retransmit_delay:
        Extra delay, in seconds, before a failed attempt is retried.
    max_attempts:
        Attempts before the link finally gives up and drops the packet.
    propagation_delay:
        Fixed one-way delay added after a successful transmission.
    """

    def __init__(
        self,
        rate_process: LinkTrace,
        buffer_bits: float,
        loss_rate: float = 0.0,
        retransmit_delay: float = 0.05,
        max_attempts: int = 10,
        propagation_delay: float = 0.03,
        name: str | None = None,
    ) -> None:
        if buffer_bits <= 0:
            raise ConfigurationError(f"buffer_bits must be positive, got {buffer_bits!r}")
        if not 0.0 <= loss_rate < 1.0:
            raise ConfigurationError(f"loss_rate must lie in [0, 1), got {loss_rate!r}")
        if retransmit_delay < 0 or propagation_delay < 0:
            raise ConfigurationError("delays must be non-negative")
        if max_attempts < 1:
            raise ConfigurationError(f"max_attempts must be at least 1, got {max_attempts!r}")
        super().__init__(name)
        self.rate_process = rate_process
        self.buffer_bits = float(buffer_bits)
        self.loss_rate = float(loss_rate)
        self.retransmit_delay = float(retransmit_delay)
        self.max_attempts = max_attempts
        self.propagation_delay = float(propagation_delay)

        self._queue: deque[Packet] = deque()
        self._occupancy_bits = 0.0
        self._busy = False
        self.drop_count = 0
        self.link_layer_retransmissions = 0
        self.abandoned_packets = 0
        self.peak_occupancy_bits = 0.0
        self.occupancy_trace: list[tuple[float, float]] = []

    # ------------------------------------------------------------------ state

    @property
    def occupancy_bits(self) -> float:
        """Bits currently queued (excluding the packet in service)."""
        return self._occupancy_bits

    def queueing_delay_estimate(self) -> float:
        """Current queue drain time at the instantaneous service rate.

        The rate is floored at :data:`MIN_SERVICE_RATE_BPS` so a deep fade
        yields a large-but-finite estimate rather than an absurd one.
        """
        rate = max(self.rate_process.rate_at(self.sim.now), MIN_SERVICE_RATE_BPS)
        return self._occupancy_bits / rate

    # -------------------------------------------------------------- data path

    def receive(self, packet: Packet) -> None:
        self.received_count += 1
        if not self._busy and not self._queue:
            self._begin_service(packet)
            return
        if self._occupancy_bits + packet.size_bits > self.buffer_bits + 1e-9:
            self.drop_count += 1
            packet.mark_dropped(self.sim.now, self.name)
            if self._trace is not None:
                self.trace("drop", seq=packet.seq, flow=packet.flow)
            return
        self._queue.append(packet)
        self._occupancy_bits += packet.size_bits
        if self._occupancy_bits > self.peak_occupancy_bits:
            self.peak_occupancy_bits = self._occupancy_bits
        self.occupancy_trace.append((self.sim.now, self._occupancy_bits))

    def _begin_service(self, packet: Packet, attempt: int = 1) -> None:
        self._busy = True
        service_time = self.rate_process.service_time(self.sim.now, packet.size_bits)
        self.sim.schedule(service_time, self._attempt_done, packet, attempt)

    def _attempt_done(self, packet: Packet, attempt: int) -> None:
        if self.loss_rate > 0.0 and self.rng("arq").random() < self.loss_rate:
            # The attempt failed; hide the loss behind a retransmission.
            if attempt >= self.max_attempts:
                self.abandoned_packets += 1
                packet.mark_dropped(self.sim.now, self.name)
                self.trace("abandon", seq=packet.seq, flow=packet.flow)
                self._serve_next()
                return
            self.link_layer_retransmissions += 1
            packet.meta["ll_retransmissions"] = packet.meta.get("ll_retransmissions", 0) + 1
            self.trace("ll_retransmit", seq=packet.seq, attempt=attempt)
            self.sim.schedule(self.retransmit_delay, self._begin_service, packet, attempt + 1)
            return
        if self._trace is not None:
            self.trace("tx_done", seq=packet.seq, flow=packet.flow)
        if self.propagation_delay > 0:
            self.sim.schedule(self.propagation_delay, self.emit, packet)
        else:
            self.emit(packet)
        self._serve_next()

    def _serve_next(self) -> None:
        self._busy = False
        if not self._queue:
            return
        nxt = self._queue.popleft()
        self._occupancy_bits -= nxt.size_bits
        if self._occupancy_bits < 1e-9:
            self._occupancy_bits = 0.0
        self._begin_service(nxt)

    def reset(self) -> None:
        super().reset()
        self._queue.clear()
        self._occupancy_bits = 0.0
        self._busy = False
        self.drop_count = 0
        self.link_layer_retransmissions = 0
        self.abandoned_packets = 0
        self.peak_occupancy_bits = 0.0
        self.occupancy_trace = []
