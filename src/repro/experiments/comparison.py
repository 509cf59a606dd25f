"""The motivating comparison: loss-blind TCP versus the model-based sender.

The introduction argues that TCP conflates stochastic loss with congestion:
on a path with 20 % non-congestive loss a loss-driven window collapses to a
trickle, even though the link itself is perfectly capable of carrying a full
load.  The model-based sender, whose prior includes the possibility of
stochastic loss, keeps sending at the link speed and simply accepts that a
fifth of its packets will need to be counted as lost.

This experiment is not one of the paper's numbered figures, but it is the
behaviour §1/§2 describe and the natural headline comparison for a library
user, so it gets a first-class runner and benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.baselines.newreno import NewRenoSender
from repro.baselines.window import WindowSender
from repro.api.config import SenderConfig
from repro.api.sender import build_sender
from repro.inference.prior import single_link_prior
from repro.metrics.summary import ExperimentRow
from repro.topology.presets import single_link_network
from repro.units import DEFAULT_PACKET_BITS


@dataclass
class LossComparisonResult:
    """Goodput of TCP and of the ISender over the same lossy bottleneck."""

    loss_rate: float
    link_rate_bps: float
    duration: float
    tcp_goodput_bps: float
    tcp_utilization: float
    tcp_timeouts: int
    isender_goodput_bps: float
    isender_utilization: float
    isender_delivery_rate: float

    @property
    def isender_advantage(self) -> float:
        """How many times more goodput the model-based sender achieves."""
        if self.tcp_goodput_bps <= 0:
            return float("inf")
        return self.isender_goodput_bps / self.tcp_goodput_bps

    def rows(self) -> list[ExperimentRow]:
        return [
            ExperimentRow(
                label="NewReno",
                values={
                    "goodput (bps)": self.tcp_goodput_bps,
                    "utilization": self.tcp_utilization,
                    "timeouts": self.tcp_timeouts,
                },
            ),
            ExperimentRow(
                label="ISender",
                values={
                    "goodput (bps)": self.isender_goodput_bps,
                    "utilization": self.isender_utilization,
                    "delivery_rate": self.isender_delivery_rate,
                },
            ),
        ]


def run_loss_comparison(
    loss_rate: float = 0.2,
    link_rate_bps: float = 12_000.0,
    buffer_capacity_bits: float = 96_000.0,
    duration: float = 180.0,
    packet_bits: float = DEFAULT_PACKET_BITS,
    seed: int = 5,
    tcp_factory: Callable[..., WindowSender] = NewRenoSender,
    settings: SenderConfig | None = None,
) -> LossComparisonResult:
    """Run TCP and the ISender, one at a time, over the same lossy link."""
    # --- TCP -----------------------------------------------------------------
    tcp_network = single_link_network(
        link_rate_bps=link_rate_bps,
        buffer_capacity_bits=buffer_capacity_bits,
        loss_rate=loss_rate,
        packet_bits=packet_bits,
        sender_flow="tcp",
        seed=seed,
    )
    tcp_sender = tcp_factory(
        tcp_network.sender_receiver, flow="tcp", packet_bits=packet_bits, name="tcp-baseline"
    )
    tcp_sender.connect(tcp_network.entry)
    tcp_network.network.add(tcp_sender)
    tcp_network.network.run(until=duration)
    tcp_goodput = tcp_network.sender_receiver.throughput_bps(0.0, duration, flow="tcp")

    # --- ISender ---------------------------------------------------------------
    isender_config = settings if settings is not None else SenderConfig(alpha=0.0)
    isender_network = single_link_network(
        link_rate_bps=link_rate_bps,
        buffer_capacity_bits=buffer_capacity_bits,
        loss_rate=loss_rate,
        packet_bits=packet_bits,
        seed=seed,
    )
    prior = single_link_prior(
        link_rate_low=link_rate_bps * 2.0 / 3.0,
        link_rate_high=link_rate_bps * 4.0 / 3.0,
        link_rate_points=5,
        buffer_capacity_bits=buffer_capacity_bits,
        loss_rate=loss_rate,
        packet_bits=packet_bits,
    )
    isender = build_sender(isender_config, isender_network, prior=prior)
    isender_network.network.run(until=duration)
    isender_goodput = isender_network.sender_receiver.throughput_bps(0.0, duration)

    return LossComparisonResult(
        loss_rate=loss_rate,
        link_rate_bps=link_rate_bps,
        duration=duration,
        tcp_goodput_bps=tcp_goodput,
        tcp_utilization=tcp_goodput / link_rate_bps,
        tcp_timeouts=tcp_sender.timeouts,
        isender_goodput_bps=isender_goodput,
        isender_utilization=isender_goodput / link_rate_bps,
        isender_delivery_rate=isender.delivery_rate(),
    )
