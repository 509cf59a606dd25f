"""Ready-made topologies used by the paper's experiments.

* :func:`figure2_network` — the network of Figure 2: an isochronous PINGER
  gated by a square wave, sharing a tail-drop BUFFER with the sender,
  drained by a THROUGHPUT link, followed by last-mile LOSS and a DIVERTER
  that delivers each flow to its own receiver.
* :func:`single_link_network` — the "simple configuration" of §4: a single
  sender feeding a buffer drained by a throughput-limited link, with
  optional cross traffic and optional loss.

Both constructors return a small dataclass exposing every interesting
element so experiments, tests, and benches can reach inside without
re-walking the graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.elements import (
    Buffer,
    Collector,
    Diverter,
    Loss,
    Pinger,
    Receiver,
    SquareWave,
    Throughput,
)
from repro.errors import ConfigurationError
from repro.sim.element import Element, Network
from repro.units import DEFAULT_PACKET_BITS

#: Flow name used by the model-based sender throughout the library.
SENDER_FLOW = "isender"

#: Flow name used by cross traffic throughout the library.
CROSS_FLOW = "cross"


@dataclass
class Figure2Network:
    """Handles to the elements of the Figure-2 topology."""

    network: Network
    entry: Element
    buffer: Buffer
    link: Throughput
    loss: Loss
    pinger: Pinger
    sender_receiver: Receiver
    cross_receiver: Collector
    sender_flow: str
    cross_flow: str


@dataclass
class SingleLinkNetwork:
    """Handles to the elements of the single bottleneck-link topology."""

    network: Network
    entry: Element
    buffer: Buffer
    link: Throughput
    loss: Loss | None
    pinger: Pinger | None
    sender_receiver: Receiver
    cross_receiver: Collector | None
    sender_flow: str


def figure2_network(
    link_rate_bps: float = 12_000.0,
    cross_fraction: float = 0.7,
    loss_rate: float = 0.2,
    buffer_capacity_bits: float = 96_000.0,
    packet_bits: float = DEFAULT_PACKET_BITS,
    switch_interval: float = 100.0,
    seed: int = 0,
) -> Figure2Network:
    """Build the network of the paper's Figure 2.

    Parameters mirror the experiment of §4: a 12 kbit/s link carrying one
    1,500-byte packet per second, cross traffic at 70 % of the link rate
    switched on and off every 100 seconds, 20 % last-mile stochastic loss,
    and a 96,000-bit tail-drop buffer, empty at the start.  The flows are
    ``SENDER_FLOW`` and ``CROSS_FLOW``.  The cross-traffic gate is the
    paper's ground truth, a square wave that starts on and switches every
    ``switch_interval`` seconds.
    """
    if not 0.0 <= cross_fraction < 1.0 + 1e-9:
        raise ConfigurationError(f"cross_fraction must lie in [0, 1], got {cross_fraction!r}")

    network = Network(seed=seed)

    cross_rate_pps = cross_fraction * link_rate_bps / packet_bits
    pinger = Pinger(
        rate_pps=max(cross_rate_pps, 1e-9),
        packet_bits=packet_bits,
        flow=CROSS_FLOW,
        name="pinger",
    )

    gate = SquareWave(switch_interval=switch_interval, name="cross-gate")

    buffer = Buffer(capacity_bits=buffer_capacity_bits, name="buffer")
    link = Throughput(rate_bps=link_rate_bps, name="link")
    loss = Loss(rate=loss_rate, name="loss")
    sender_receiver = Receiver(name="sender-receiver", accept_flows={SENDER_FLOW})
    cross_receiver = Collector(name="cross-receiver")

    diverter = Diverter(
        predicate=SENDER_FLOW,
        match_branch=sender_receiver,
        other_branch=cross_receiver,
        name="diverter",
    )

    pinger.connect(gate)
    gate.connect(buffer)
    buffer.connect(link)
    link.connect(loss)
    loss.connect(diverter)

    if cross_fraction > 0:
        network.add(pinger)
    network.add(buffer)

    return Figure2Network(
        network=network,
        entry=buffer,
        buffer=buffer,
        link=link,
        loss=loss,
        pinger=pinger,
        sender_receiver=sender_receiver,
        cross_receiver=cross_receiver,
        sender_flow=SENDER_FLOW,
        cross_flow=CROSS_FLOW,
    )


def single_link_network(
    link_rate_bps: float = 12_000.0,
    buffer_capacity_bits: float = 96_000.0,
    buffer_initial_fill_bits: float = 0.0,
    loss_rate: float = 0.0,
    cross_rate_pps: float = 0.0,
    packet_bits: float = DEFAULT_PACKET_BITS,
    sender_flow: str = SENDER_FLOW,
    seed: int = 0,
) -> SingleLinkNetwork:
    """Build the "simple configuration" of §4.

    A single sender connected to a tail-drop buffer drained by a
    throughput-limited link, with optional always-on cross traffic (flow
    ``CROSS_FLOW``) and optional last-mile loss.
    """
    network = Network(seed=seed)

    buffer = Buffer(
        capacity_bits=buffer_capacity_bits,
        initial_fill_bits=buffer_initial_fill_bits,
        name="buffer",
    )
    link = Throughput(rate_bps=link_rate_bps, name="link")
    sender_receiver = Receiver(name="sender-receiver", accept_flows={sender_flow})

    loss: Loss | None = None
    pinger: Pinger | None = None
    cross_receiver: Collector | None = None

    buffer.connect(link)
    tail: Element = link
    if loss_rate > 0.0:
        loss = Loss(rate=loss_rate, name="loss")
        tail.connect(loss)
        tail = loss

    if cross_rate_pps > 0.0:
        cross_receiver = Collector(name="cross-receiver")
        diverter = Diverter(
            predicate=sender_flow,
            match_branch=sender_receiver,
            other_branch=cross_receiver,
            name="diverter",
        )
        tail.connect(diverter)
        pinger = Pinger(
            rate_pps=cross_rate_pps,
            packet_bits=packet_bits,
            flow=CROSS_FLOW,
            name="pinger",
        )
        pinger.connect(buffer)
        network.add(pinger)
    else:
        tail.connect(sender_receiver)

    network.add(buffer)

    return SingleLinkNetwork(
        network=network,
        entry=buffer,
        buffer=buffer,
        link=link,
        loss=loss,
        pinger=pinger,
        sender_receiver=sender_receiver,
        cross_receiver=cross_receiver,
        sender_flow=sender_flow,
    )
