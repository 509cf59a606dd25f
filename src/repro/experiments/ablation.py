"""Ablations over the inference engine's approximation knobs.

The paper points out that plain rejection sampling is computationally
limited and that a deployable sender would use approximate Bayesian
techniques.  DESIGN.md therefore calls out the approximation knobs this
implementation exposes — the likelihood kernel, the ensemble-size cap, and
decision memoization — and this module measures what each one costs or buys
on a shortened Figure-3-style scenario: wall-clock time, number of planner
rollouts, whether the sender still identifies the true link speed, and the
posterior probability mass it places on that true value.

Configurations are named :class:`~repro.api.config.SenderConfig` points
(:class:`AblationPoint`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Sequence

from repro._persist import default_cache_dir
from repro.api.config import SenderConfig
from repro.api.policy import load_or_precompute_policy_table
from repro.api.sender import build_sender
from repro.inference import figure3_prior
from repro.metrics.summary import ExperimentRow
from repro.runner.backends import RunnerBase, SerialRunner
from repro.topology.presets import figure2_network


@dataclass(frozen=True)
class AblationPoint:
    """One named configuration of the inference/planning approximations."""

    label: str
    config: SenderConfig


def _as_point(config: "AblationPoint | tuple") -> AblationPoint:
    """Normalize sweep inputs: AblationPoint or a ``(label, SenderConfig)`` pair."""
    if isinstance(config, AblationPoint):
        return config
    label, sender_config = config
    return AblationPoint(label=label, config=sender_config)


@dataclass
class AblationOutcome:
    """Measurements for one configuration."""

    config: AblationPoint
    wall_time: float
    packets_sent: int
    goodput_bps: float
    rollouts: int
    final_hypotheses: int
    degenerate_updates: int
    posterior_true_link_rate: float
    policy_hits: int = 0
    policy_misses: int = 0

    @property
    def label(self) -> str:
        return self.config.label

    def row(self) -> ExperimentRow:
        return ExperimentRow(
            label=self.config.label,
            values={
                "wall_time (s)": self.wall_time,
                "goodput (bps)": self.goodput_bps,
                "sent": self.packets_sent,
                "rollouts": self.rollouts,
                "hypotheses": self.final_hypotheses,
                "degenerate": self.degenerate_updates,
                "P(true link rate)": self.posterior_true_link_rate,
            },
        )


@dataclass
class AblationResult:
    """All configurations, ready to print."""

    duration: float
    outcomes: list[AblationOutcome] = field(default_factory=list)

    def rows(self) -> list[ExperimentRow]:
        return [outcome.row() for outcome in self.outcomes]


#: Held-out pilot seed for policy-table precompute: fixed (not derived from
#: the measured seed) so a grid sweep's seed trials share one table, and far
#: outside the small integers experiments use as measured seeds.
_PILOT_SEED = 1_000_003

DEFAULT_CONFIGS: tuple[AblationPoint, ...] = (
    AblationPoint("gaussian kernel / 200 hyps", SenderConfig()),
    AblationPoint(
        "gaussian kernel / 50 hyps", SenderConfig(max_hypotheses=50, top_k=8)
    ),
    AblationPoint(
        "exact (rejection) kernel", SenderConfig(kernel="exact", kernel_scale=0.75)
    ),
    AblationPoint("policy cache", SenderConfig(policy="cache")),
)


def run_ablation_point(
    label: str,
    config: SenderConfig,
    duration: float = 60.0,
    switch_interval: float = 30.0,
    link_rate_bps: float = 12_000.0,
    loss_rate: float = 0.2,
    seed: int = 2,
    packet_bits: float | None = None,
) -> AblationOutcome:
    """Run the shortened Figure-3 scenario under one sender configuration.

    Module-level and picklable so the ablation sweep can run through any
    scenario-runner backend; the sender is built through the canonical
    :func:`repro.api.build_sender` path.  ``packet_bits`` sizes the
    network's packets and, when given, overrides the config's; ``None``
    (the default) respects ``config.packet_bits``.

    With ``policy="table"`` the policy table is precomputed on *this
    scenario's* parameters (same link rate / loss / switching, a disjoint
    pilot seed) before the measured run starts — precomputation is the
    §3.3 offline step, so its cost is deliberately outside ``wall_time``.
    """
    if packet_bits is None:
        packet_bits = config.packet_bits
    else:
        config = replace(config, packet_bits=packet_bits)
    network = figure2_network(
        link_rate_bps=link_rate_bps,
        loss_rate=loss_rate,
        switch_interval=switch_interval,
        packet_bits=packet_bits,
        seed=seed,
    )
    prior = figure3_prior(
        link_rate_points=4,
        cross_fraction_points=4,
        loss_points=3,
        buffer_points=2,
        fill_points=1,
        packet_bits=packet_bits,
    )
    policy_table = None
    if config.policy == "table":
        # Tables are shared across runs and sweep workers through the
        # configured cache directory ($REPRO_CACHE_DIR / CLI --cache-dir):
        # a grid sweep precomputes each distinct (config, pilot-scenario)
        # pair once instead of per point.  The pilot seed is a fixed
        # held-out value rather than an offset of the measured seed, so a
        # seed fan over one configuration shares a single table.
        pilot_seed = _PILOT_SEED if seed != _PILOT_SEED else _PILOT_SEED + 1
        policy_table = load_or_precompute_policy_table(
            config,
            prior,
            cache_dir=default_cache_dir(),
            pilot_duration=duration,
            seed=pilot_seed,
            switch_interval=switch_interval,
            link_rate_bps=link_rate_bps,
            loss_rate=loss_rate,
        )
        # A freshly precomputed table still carries its pilot run's
        # hit/miss traffic while a cache-loaded one starts at zero; reset
        # so the reported counters measure the *measured* run only and the
        # outcome stays a pure function of the config and seed, whatever
        # the cache state.
        policy_table.hits = policy_table.misses = 0
    sender = build_sender(config, network, prior=prior, policy_table=policy_table)

    started = time.perf_counter()
    network.network.run(until=duration)
    elapsed = time.perf_counter() - started

    belief = sender.belief
    marginal = belief.posterior_marginal("link_rate_bps")
    true_mass = sum(
        probability
        for value, probability in marginal.items()
        if abs(value - link_rate_bps) < 1e-6
    )
    return AblationOutcome(
        config=AblationPoint(label=label, config=config),
        wall_time=elapsed,
        packets_sent=sender.packets_sent,
        goodput_bps=network.sender_receiver.throughput_bps(0.0, duration),
        rollouts=sender.planner.rollouts_performed,
        final_hypotheses=len(belief),
        degenerate_updates=belief.degenerate_updates,
        posterior_true_link_rate=true_mass,
        policy_hits=getattr(sender.policy, "hits", 0),
        policy_misses=getattr(sender.policy, "misses", 0),
    )


def run_inference_ablation(
    configs: Sequence["AblationPoint | tuple"] = DEFAULT_CONFIGS,
    duration: float = 60.0,
    switch_interval: float = 30.0,
    link_rate_bps: float = 12_000.0,
    loss_rate: float = 0.2,
    alpha: float | None = None,
    seed: int = 2,
    packet_bits: float | None = None,
    runner: RunnerBase | None = None,
) -> AblationResult:
    """Run the shortened Figure-3 scenario once per ablation configuration.

    ``configs`` items are :class:`AblationPoint` (or ``(label,
    SenderConfig)`` pairs).  ``alpha``, when given, overrides every point's
    configured α.  ``runner`` selects the sweep's execution
    backend (serial by default; pass a
    :class:`~repro.runner.backends.ParallelRunner` to fan the
    configurations out over workers).
    """
    if runner is None:
        runner = SerialRunner()
    points = []
    for config in configs:
        point = _as_point(config)
        if alpha is not None:
            point = AblationPoint(point.label, replace(point.config, alpha=alpha))
        points.append(point)
    tasks = [
        {
            "label": point.label,
            "config": point.config,
            "duration": duration,
            "switch_interval": switch_interval,
            "link_rate_bps": link_rate_bps,
            "loss_rate": loss_rate,
            "seed": seed,
            "packet_bits": packet_bits,
        }
        for point in points
    ]
    result = AblationResult(duration=duration)
    result.outcomes.extend(runner.map(run_ablation_point, tasks))
    return result
