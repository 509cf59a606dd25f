"""The §4 prose scenarios: convergence to link speed, and draining the buffer.

Scenario A ("the sender reaches a predictable, ideal result in simple
configurations"): a single ISender connected to a queue drained by a
throughput-limited link, with the link speed and initial buffer occupancy
unknown.  The sender begins tentatively, infers the parameters, and then
sends at the link speed.

Scenario B: with cross traffic present and a utility function that
penalizes the latency the sender induces on other traffic, the sender
drains the (initially occupied) buffer before ramping up to the link speed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.config import SenderConfig
from repro.api.sender import build_sender
from repro.core.utility import AlphaWeightedUtility, LatencyPenaltyUtility
from repro.inference.prior import single_link_prior
from repro.metrics.summary import ExperimentRow
from repro.metrics.timeseries import TimeSeries
from repro.topology.presets import single_link_network
from repro.units import DEFAULT_PACKET_BITS


@dataclass
class ConvergenceResult:
    """Scenario A measurements."""

    true_link_rate_bps: float
    inferred_link_rate_bps: float
    early_rate_bps: float
    late_rate_bps: float
    sequence_series: TimeSeries
    packets_sent: int
    posterior_true_rate_probability: float

    @property
    def converged(self) -> bool:
        """Whether the late sending rate is within 15 % of the link speed."""
        return abs(self.late_rate_bps - self.true_link_rate_bps) <= 0.15 * self.true_link_rate_bps

    def rows(self) -> list[ExperimentRow]:
        return [
            ExperimentRow(
                label="scenario A (unknown link speed)",
                values={
                    "true_rate (bps)": self.true_link_rate_bps,
                    "inferred_rate (bps)": self.inferred_link_rate_bps,
                    "early_rate (bps)": self.early_rate_bps,
                    "late_rate (bps)": self.late_rate_bps,
                    "P(true rate)": self.posterior_true_rate_probability,
                },
            )
        ]


@dataclass
class DrainResult:
    """Scenario B measurements, with and without the latency penalty."""

    first_send_plain: float
    first_send_penalized: float
    queue_at_first_send_plain: float
    queue_at_first_send_penalized: float
    late_rate_plain_bps: float
    late_rate_penalized_bps: float
    initial_fill_bits: float
    drain_time: float

    @property
    def penalized_sender_waits_longer(self) -> bool:
        """Whether the latency-penalizing sender defers its ramp-up."""
        return self.first_send_penalized > self.first_send_plain + 1e-9

    def rows(self) -> list[ExperimentRow]:
        return [
            ExperimentRow(
                label="plain utility",
                values={
                    "first_send (s)": self.first_send_plain,
                    "queue_at_first_send (bits)": self.queue_at_first_send_plain,
                    "late_rate (bps)": self.late_rate_plain_bps,
                },
            ),
            ExperimentRow(
                label="latency-penalizing utility",
                values={
                    "first_send (s)": self.first_send_penalized,
                    "queue_at_first_send (bits)": self.queue_at_first_send_penalized,
                    "late_rate (bps)": self.late_rate_penalized_bps,
                },
            ),
        ]


def run_convergence_scenario(
    true_link_rate_bps: float = 12_000.0,
    duration: float = 90.0,
    buffer_capacity_bits: float = 96_000.0,
    seed: int = 3,
) -> ConvergenceResult:
    """Scenario A: unknown link speed, converge to sending at the link speed.

    The buffer starts empty, the sender (α = 0) knows it, and its prior
    holds five link speeds from two thirds to four thirds of the truth.
    """
    packet_bits = DEFAULT_PACKET_BITS
    network = single_link_network(
        link_rate_bps=true_link_rate_bps,
        buffer_capacity_bits=buffer_capacity_bits,
        packet_bits=packet_bits,
        seed=seed,
    )
    prior = single_link_prior(
        link_rate_low=true_link_rate_bps * 2.0 / 3.0,
        link_rate_high=true_link_rate_bps * 4.0 / 3.0,
        link_rate_points=5,
        buffer_capacity_bits=buffer_capacity_bits,
        fill_points=1,
        packet_bits=packet_bits,
    )
    sender = build_sender(SenderConfig(alpha=0.0), network, prior=prior)
    network.network.run(until=duration)

    receiver = network.sender_receiver
    early_rate = receiver.throughput_bps(0.0, duration / 3.0)
    late_rate = receiver.throughput_bps(duration * 2.0 / 3.0, duration)
    marginal = sender.belief.posterior_marginal("link_rate_bps")
    true_probability = sum(
        probability
        for value, probability in marginal.items()
        if abs(value - true_link_rate_bps) < 1e-6
    )
    return ConvergenceResult(
        true_link_rate_bps=true_link_rate_bps,
        inferred_link_rate_bps=sender.belief.posterior_mean("link_rate_bps"),
        early_rate_bps=early_rate,
        late_rate_bps=late_rate,
        sequence_series=TimeSeries.from_pairs(sender.sequence_series()),
        packets_sent=sender.packets_sent,
        posterior_true_rate_probability=true_probability,
    )


def run_drain_scenario(
    duration: float = 60.0,
    initial_fill_bits: float = 48_000.0,
    latency_penalty: float = 0.1,
    seed: int = 3,
) -> DrainResult:
    """Scenario B: the latency-penalizing sender waits for the buffer to drain.

    The link runs at 12 kbit/s behind a 96,000-bit buffer, with always-on
    cross traffic at 30 % of the link rate; the sender knows all three.
    """
    true_link_rate_bps, buffer_capacity_bits = 12_000.0, 96_000.0
    packet_bits = DEFAULT_PACKET_BITS
    cross_rate_pps = 0.3 * true_link_rate_bps / packet_bits
    results = {}
    for label, utility in (
        ("plain", AlphaWeightedUtility(alpha=1.0, discount_timescale=20.0)),
        (
            "penalized",
            LatencyPenaltyUtility(
                alpha=1.0, discount_timescale=20.0, latency_penalty=latency_penalty
            ),
        ),
    ):
        network = single_link_network(
            link_rate_bps=true_link_rate_bps,
            buffer_capacity_bits=buffer_capacity_bits,
            buffer_initial_fill_bits=initial_fill_bits,
            cross_rate_pps=cross_rate_pps,
            packet_bits=packet_bits,
            seed=seed,
        )
        prior = single_link_prior(
            link_rate_low=true_link_rate_bps,
            link_rate_high=true_link_rate_bps,
            link_rate_points=1,
            buffer_capacity_bits=buffer_capacity_bits,
            fill_points=3,
            cross_rate_pps=cross_rate_pps,
            packet_bits=packet_bits,
        )
        sender = build_sender(SenderConfig(alpha=1.0), network, prior=prior, utility=utility)
        network.network.run(until=duration)
        first_send = sender.first_sent_at if sender.packets_sent else duration
        # Queue occupancy seen by the first transmission, according to the
        # sender's MAP hypothesis at that time is not recorded, so report the
        # ground-truth occupancy of the real buffer instead.
        queue_at_first = max(0.0, initial_fill_bits - true_link_rate_bps * first_send)
        late_rate = network.sender_receiver.throughput_bps(duration * 2.0 / 3.0, duration)
        results[label] = (first_send, queue_at_first, late_rate)

    drain_time = initial_fill_bits / true_link_rate_bps
    return DrainResult(
        first_send_plain=results["plain"][0],
        first_send_penalized=results["penalized"][0],
        queue_at_first_send_plain=results["plain"][1],
        queue_at_first_send_penalized=results["penalized"][1],
        late_rate_plain_bps=results["plain"][2],
        late_rate_penalized_bps=results["penalized"][2],
        initial_fill_bits=initial_fill_bits,
        drain_time=drain_time,
    )
