"""Figure 1 — round-trip time of a TCP download over a bufferbloated cellular link.

The paper's motivating measurement shows the RTT of a TCP download over a
commercial LTE network climbing from roughly 100 ms to around ten seconds,
because the subnetwork hides non-congestive loss behind link-layer
retransmission and provisions a very deep buffer that a loss-driven sender
dutifully fills.  We reproduce the *mechanism* with the synthetic cellular
link of :mod:`repro.cellular`: a NewReno bulk transfer over a deep-buffered,
variable-rate, loss-hiding link.  The figure of merit is the shape — RTT
starting near the propagation delay and inflating by one to two orders of
magnitude as the buffer fills — rather than the absolute milliseconds of the
original Verizon trace.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.newreno import NewRenoSender
from repro.cellular.link import CellularLink
from repro.corpus.generators import RandomWalkLink
from repro.elements.receiver import Receiver
from repro.metrics.summary import ExperimentRow
from repro.metrics.timeseries import TimeSeries, rtt_series
from repro.sim.element import Network
from repro.units import DEFAULT_PACKET_BITS


@dataclass
class CellularDownload:
    """What a NewReno bulk download over a cellular link measured."""

    #: Round-trip times against time; one sample of the link's propagation
    #: delay at t = 0 when no acknowledgement came back.
    rtt: TimeSeries
    throughput_bps: float


def cellular_download(
    link: CellularLink, duration: float, packet_bits: float, seed: int
) -> CellularDownload:
    """Run a NewReno bulk download over ``link`` for ``duration`` seconds.

    The network is seeded with ``seed``; the link's name keys its loss
    stream, so a caller that names its link differently draws different
    losses.
    """
    network = Network(seed=seed)
    receiver = Receiver(name="receiver", accept_flows={"tcp"})
    # A modern bulk sender effectively slow-starts until it sees a loss; with
    # loss hidden by the link layer, that means it slow-starts until the
    # bloated buffer finally overflows — which is the whole point of Figure 1.
    sender = NewRenoSender(
        receiver,
        flow="tcp",
        packet_bits=packet_bits,
        name="tcp",
        initial_ssthresh=1e9,
        max_rto=120.0,
    )
    sender.connect(link)
    link.connect(receiver)
    network.add(sender)
    network.run(until=duration)

    samples = sender.rtt_series() or [(0.0, link.propagation_delay)]
    return CellularDownload(
        rtt=rtt_series(samples),
        throughput_bps=receiver.throughput_bps(0.0, duration, flow="tcp"),
    )


@dataclass
class Figure1Result:
    """The RTT trace of the download and its summary statistics."""

    rtt: TimeSeries
    base_rtt: float
    duration: float
    throughput_bps: float
    link_layer_retransmissions: int
    buffer_drops: int
    peak_buffer_bits: float

    @property
    def max_rtt(self) -> float:
        """Largest observed round-trip time."""
        return self.rtt.max()

    @property
    def median_rtt(self) -> float:
        """Median observed round-trip time."""
        return self.rtt.percentile(0.5)

    @property
    def inflation_factor(self) -> float:
        """How many times the base RTT the worst observed RTT is."""
        return self.max_rtt / self.base_rtt

    def rows(self, window: float = 25.0) -> list[ExperimentRow]:
        """Windowed RTT summary — the series Figure 1 plots, as a table."""
        rows = []
        windowed = self.rtt.windowed(window)
        for time, value in windowed:
            segment = self.rtt.between(time, time + window)
            rows.append(
                ExperimentRow(
                    label=f"t={time:.0f}s",
                    values={
                        "mean_rtt (s)": value,
                        "max_rtt (s)": segment.max(),
                        "min_rtt (s)": segment.min(),
                    },
                )
            )
        rows.append(
            ExperimentRow(
                label="overall",
                values={
                    "mean_rtt (s)": self.rtt.mean(),
                    "max_rtt (s)": self.max_rtt,
                    "min_rtt (s)": self.rtt.min(),
                },
            )
        )
        return rows


def run_figure1(
    duration: float = 250.0,
    nominal_rate_bps: float = 4_000_000.0,
    buffer_seconds: float = 10.0,
    link_loss_rate: float = 0.05,
    seed: int = 7,
) -> Figure1Result:
    """Run a NewReno bulk download over the synthetic cellular link.

    The link's rate walks about the nominal rate, between 400 kbit/s and
    10 Mbit/s; a failed attempt is retried after 50 ms, and a packet that
    gets through takes 30 ms more.

    Parameters
    ----------
    buffer_seconds:
        Buffer depth expressed in seconds of traffic at the nominal rate —
        ten seconds reproduces the worst RTTs of the paper's Figure 1.
    link_loss_rate:
        Per-attempt loss probability hidden by link-layer retransmission.
    """
    packet_bits = DEFAULT_PACKET_BITS
    rate_process = RandomWalkLink(
        nominal_bps=nominal_rate_bps,
        min_bps=400_000.0,
        max_bps=10_000_000.0,
        duration=duration + 10.0,
    ).build(seed)
    link = CellularLink(
        rate_process=rate_process,
        buffer_bits=buffer_seconds * nominal_rate_bps,
        loss_rate=link_loss_rate,
        name="cellular-link",
    )
    download = cellular_download(link, duration, packet_bits, seed)
    return Figure1Result(
        rtt=download.rtt,
        base_rtt=link.propagation_delay + packet_bits / nominal_rate_bps,
        duration=duration,
        throughput_bps=download.throughput_bps,
        link_layer_retransmissions=link.link_layer_retransmissions,
        buffer_drops=link.drop_count,
        peak_buffer_bits=link.peak_occupancy_bits,
    )
