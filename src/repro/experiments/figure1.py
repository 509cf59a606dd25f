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
    min_rate_bps: float = 400_000.0,
    max_rate_bps: float = 10_000_000.0,
    buffer_seconds: float = 10.0,
    link_loss_rate: float = 0.05,
    retransmit_delay: float = 0.05,
    propagation_delay: float = 0.03,
    packet_bits: float = DEFAULT_PACKET_BITS,
    seed: int = 7,
) -> Figure1Result:
    """Run a NewReno bulk download over the synthetic cellular link.

    Parameters
    ----------
    buffer_seconds:
        Buffer depth expressed in seconds of traffic at the nominal rate —
        ten seconds reproduces the worst RTTs of the paper's Figure 1.
    link_loss_rate:
        Per-attempt loss probability hidden by link-layer retransmission.
    """
    network = Network(seed=seed)
    rate_process = RandomWalkLink(
        nominal_bps=nominal_rate_bps,
        min_bps=min_rate_bps,
        max_bps=max_rate_bps,
        duration=duration + 10.0,
    ).build(seed)
    link = CellularLink(
        rate_process=rate_process,
        buffer_bits=buffer_seconds * nominal_rate_bps,
        loss_rate=link_loss_rate,
        retransmit_delay=retransmit_delay,
        propagation_delay=propagation_delay,
        name="cellular-link",
    )
    receiver = Receiver(name="mobile-receiver", accept_flows={"tcp"})
    # A modern bulk sender effectively slow-starts until it sees a loss; with
    # loss hidden by the link layer, that means it slow-starts until the
    # bloated buffer finally overflows — which is the whole point of Figure 1.
    sender = NewRenoSender(
        receiver,
        flow="tcp",
        packet_bits=packet_bits,
        name="newreno",
        initial_ssthresh=1e9,
        max_rto=120.0,
    )
    sender.connect(link)
    link.connect(receiver)
    network.add(sender)
    network.run(until=duration)

    samples = sender.rtt_series()
    series = rtt_series(samples) if samples else TimeSeries.from_pairs([(0.0, propagation_delay)])
    return Figure1Result(
        rtt=series,
        base_rtt=propagation_delay + packet_bits / nominal_rate_bps,
        duration=duration,
        throughput_bps=receiver.throughput_bps(0.0, duration, flow="tcp"),
        link_layer_retransmissions=link.link_layer_retransmissions,
        buffer_drops=link.drop_count,
        peak_buffer_bits=link.peak_occupancy_bits,
    )
