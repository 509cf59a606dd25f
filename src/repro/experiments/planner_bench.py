"""Reference decision states for the planner: shallow and deep standing queues.

:func:`build_decision_state` warms a belief to the 512-hypothesis cap on a
deterministic Figure-3-style workload and then hits it with a send burst,
so every hypothesis carries a queued backlog at the decision time.  Two
shapes, one on each side of the rollout frontier's draining choice:

* :class:`PlannerBenchConfig`'s defaults — the paper's shallow §4 buffers
  (queues ≤ 9 packets, ~1:1 service/cross alternation), where the frontier
  runs lockstep;
* :data:`DEEP_QUEUE` — the bufferbloat regime the paper opens with: a
  128-packet standing queue and sparse cross traffic, where the frontier
  drains whole departure runs per iteration.

The warm-up prior concentrates its spread on loss, buffer capacity, and
initial fill — parameters that shape *outcomes* without desynchronizing
per-lane event rates — which is the planner's steady-state regime once the
link speed has been identified, and the regime the batched engine is built
for: every lane advances through a comparable number of events, so one
masked frontier iteration replaces ~``top_k × actions`` scalar events.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import AlphaWeightedUtility
from repro.inference import AckObservation, BeliefState, GaussianKernel, figure3_prior
from repro.inference.linkmodel import LinkModel, LinkModelParams
from repro.units import DEFAULT_PACKET_BITS


@dataclass(frozen=True)
class PlannerBenchConfig:
    """Shape of the loaded decision state."""

    top_k: int = 24
    max_hypotheses: int = 512
    #: Warm-up workload (see :func:`build_decision_state`).
    duration: float = 12.0
    update_interval: float = 1.0
    send_interval: float = 0.5
    packet_bits: float = DEFAULT_PACKET_BITS
    true_link_rate_bps: float = 12_000.0
    true_cross_fraction: float = 0.7
    kernel_sigma: float = 0.4
    #: Send burst queued at the decision time (the loaded-sender regime).
    burst: int = 14
    #: Prior resolution: narrow on the (identified) link speed and cross
    #: fraction, wide on loss/buffer/fill — 2*2*8*4*2 = 512 configurations.
    link_rate_low: float = 11_000.0
    link_rate_high: float = 13_000.0
    link_rate_points: int = 2
    cross_fraction_low: float = 0.65
    cross_fraction_high: float = 0.7
    cross_fraction_points: int = 2
    loss_points: int = 8
    buffer_low: float = 72_000.0
    buffer_high: float = 108_000.0
    buffer_points: int = 4
    fill_points: int = 2

    @property
    def alpha_utility(self) -> AlphaWeightedUtility:
        """The Figure-3 utility to decide with on this state."""
        return AlphaWeightedUtility(alpha=1.0, discount_timescale=20.0)


#: The deep-buffer state: buffers of 1.15–1.3 Mbit (~145–160
#: packets) hold a 128-packet burst — ≈1 Mbit of standing queue, still
#: shallow next to the paper's measured multi-second buffers — behind
#: near-zero cross traffic (the Figure-2 single-flow regime: the standing
#: queue is self-inflicted).  Rollouts from it are dominated by long runs of
#: back-to-back departures.
DEEP_QUEUE = PlannerBenchConfig(
    true_cross_fraction=0.03,
    burst=128,
    cross_fraction_low=0.0,
    cross_fraction_high=0.06,
    buffer_low=1_150_000.0,
    buffer_high=1_300_000.0,
)


def build_decision_state(config: PlannerBenchConfig, belief_backend: str) -> BeliefState:
    """A belief at the cap, converged and carrying a queued send burst.

    The warm-up is the ``record_send`` / ``update`` sequence an ISender
    issues, generated without an RNG from a ground-truth
    :class:`~repro.inference.linkmodel.LinkModel`: packets go out every
    ``send_interval``, their true delivery times become the
    acknowledgements, and the belief updates every ``update_interval``.
    """
    prior = figure3_prior(
        link_rate_low=config.link_rate_low,
        link_rate_high=config.link_rate_high,
        link_rate_points=config.link_rate_points,
        cross_fraction_low=config.cross_fraction_low,
        cross_fraction_high=config.cross_fraction_high,
        cross_fraction_points=config.cross_fraction_points,
        loss_points=config.loss_points,
        buffer_low=config.buffer_low,
        buffer_high=config.buffer_high,
        buffer_points=config.buffer_points,
        fill_points=config.fill_points,
        packet_bits=config.packet_bits,
    )
    belief = BeliefState.from_prior(
        prior,
        kernel=GaussianKernel(sigma=config.kernel_sigma),
        max_hypotheses=config.max_hypotheses,
        backend=belief_backend,
    )
    truth = LinkModel(
        LinkModelParams(
            link_rate_bps=config.true_link_rate_bps,
            buffer_capacity_bits=96_000.0,
            loss_rate=0.0,
            cross_rate_pps=(
                config.true_cross_fraction * config.true_link_rate_bps / config.packet_bits
            ),
            cross_packet_bits=config.packet_bits,
            mean_time_to_switch=None,
        ),
        start_time=0.0,
    )
    sends: list[tuple[int, float]] = []
    seq, at = 0, 0.0
    while at < config.duration:
        truth.send_own(seq, config.packet_bits, at)
        sends.append((seq, at))
        seq += 1
        at += config.send_interval
    truth.advance(config.duration + 60.0)
    ack_times = sorted(
        (prediction.time, prediction.seq)
        for prediction in truth.predictions.values()
        if prediction.delivered
    )
    now = 0.0
    while now < config.duration:
        horizon = now + config.update_interval
        for packet_seq, sent_at in sends:
            if now <= sent_at < horizon:
                belief.record_send(packet_seq, config.packet_bits, sent_at)
        acks = tuple(
            AckObservation(seq=packet_seq, received_at=received, ack_at=received)
            for received, packet_seq in ack_times
            if now < received <= horizon
        )
        belief.update(horizon, acks)
        now = horizon
    burst_base = 1_000_000  # clear of every warm-up sequence number
    for index in range(config.burst):
        belief.record_send(burst_base + index, config.packet_bits, config.duration)
    belief.update(config.duration)
    return belief
