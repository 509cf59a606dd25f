"""The belief-update reference workload, replayed through either backend.

Drives a :class:`~repro.inference.belief.BeliefState` at the full
512-hypothesis cap through a deterministic send/acknowledge workload — the
exact sequence of ``record_send`` / ``update`` calls an ISender issues,
minus the planner — so tests can hold the scalar and array engines to the
same posterior on it.

The workload is generated (no RNG) from a ground-truth
:class:`~repro.inference.linkmodel.LinkModel`: packets are sent on a fixed
cadence, their true delivery times become the acknowledgements, and updates
fire on an ISender-like cadence.  Because the prior contains gate
uncertainty (``mean_time_to_switch`` is set), every update forks the
ensemble and exercises evolve/score/compact/prune at the cap — the
dominant cost in every experiment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.inference import AckObservation, BeliefState, GaussianKernel, figure3_prior
from repro.inference.linkmodel import LinkModel, LinkModelParams
from repro.units import DEFAULT_PACKET_BITS

#: Workload event kinds.
SEND = "send"
UPDATE = "update"


@dataclass(frozen=True)
class InferenceBenchConfig:
    """Shape of the belief-update workload."""

    max_hypotheses: int = 512
    duration: float = 25.0
    update_interval: float = 1.0
    send_interval: float = 0.5
    packet_bits: float = DEFAULT_PACKET_BITS
    true_link_rate_bps: float = 12_000.0
    true_cross_rate_pps: float = 0.35
    kernel_sigma: float = 0.4
    # Prior resolution chosen so the grid holds 512 configurations: every
    # update forks the gate and prunes back down to the cap.
    link_rate_points: int = 8
    cross_fraction_points: int = 4
    loss_points: int = 4
    buffer_points: int = 2
    fill_points: int = 2


@dataclass
class BackendRunResult:
    """Where one backend's belief stands after the workload."""

    backend: str
    updates_applied: int
    final_hypotheses: int
    compacted_away: int
    degenerate_updates: int
    weights: list[float] = field(default_factory=list)
    link_rate_marginal: dict[float, float] = field(default_factory=dict)
    map_link_rate_bps: float = 0.0


def build_workload(config: InferenceBenchConfig) -> list[tuple[str, tuple]]:
    """The deterministic send/update event list both backends replay."""
    truth = LinkModel(
        LinkModelParams(
            link_rate_bps=config.true_link_rate_bps,
            buffer_capacity_bits=96_000.0,
            loss_rate=0.0,
            cross_rate_pps=config.true_cross_rate_pps,
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

    events: list[tuple[str, tuple]] = []
    now = 0.0
    while now < config.duration:
        horizon = now + config.update_interval
        for packet_seq, sent_at in sends:
            if now <= sent_at < horizon:
                events.append((SEND, (packet_seq, config.packet_bits, sent_at)))
        acks = tuple(
            AckObservation(seq=packet_seq, received_at=received, ack_at=received)
            for received, packet_seq in ack_times
            if now < received <= horizon
        )
        events.append((UPDATE, (horizon, acks)))
        now = horizon
    return events


def run_backend(
    backend: str,
    config: InferenceBenchConfig | None = None,
    events: list[tuple[str, tuple]] | None = None,
) -> BackendRunResult:
    """Replay the workload through one backend."""
    config = config or InferenceBenchConfig()
    if events is None:
        events = build_workload(config)
    prior = figure3_prior(
        link_rate_points=config.link_rate_points,
        cross_fraction_points=config.cross_fraction_points,
        loss_points=config.loss_points,
        buffer_points=config.buffer_points,
        fill_points=config.fill_points,
        packet_bits=config.packet_bits,
    )
    belief = BeliefState.from_prior(
        prior,
        kernel=GaussianKernel(sigma=config.kernel_sigma),
        max_hypotheses=config.max_hypotheses,
        backend=backend,
    )
    for kind, args in events:
        if kind == SEND:
            belief.record_send(*args)
        else:
            belief.update(*args)
    return BackendRunResult(
        backend=backend,
        updates_applied=belief.updates_applied,
        final_hypotheses=len(belief),
        compacted_away=belief.compacted_away,
        degenerate_updates=belief.degenerate_updates,
        weights=belief.weights,
        link_rate_marginal=belief.posterior_marginal("link_rate_bps"),
        map_link_rate_bps=float(belief.map_estimate().params["link_rate_bps"]),
    )
