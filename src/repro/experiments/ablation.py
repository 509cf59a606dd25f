"""Ablations over the inference engine's approximation knobs.

The paper points out that plain rejection sampling is computationally
limited and that a deployable sender would use approximate Bayesian
techniques.  DESIGN.md therefore calls out the approximation knobs this
implementation exposes — the likelihood kernel, the ensemble-size cap, and
decision memoization — and this module measures what each one costs or buys
on a shortened Figure-3-style scenario: number of planner rollouts, whether
the sender still identifies the true link speed, and the posterior
probability mass it places on that true value.

Each configuration is one :class:`~repro.api.config.SenderConfig`, run as
one ``inference_ablation_point`` scenario point (:mod:`repro.runner`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._persist import default_cache_dir
from repro.api.config import SenderConfig
from repro.api.policy import load_or_precompute_policy_table
from repro.api.sender import build_sender
from repro.inference import figure3_prior
from repro.topology.presets import figure2_network


@dataclass
class AblationOutcome:
    """Measurements for one configuration."""

    packets_sent: int
    goodput_bps: float
    #: The planner's ``rollouts_performed``: every lane it valued, a live
    #: array sender's follow-up lanes included.
    rollouts: int
    final_hypotheses: int
    degenerate_updates: int
    posterior_true_link_rate: float
    policy_hits: int = 0
    policy_misses: int = 0


#: Held-out pilot seed for policy-table precompute: fixed (not derived from
#: the measured seed) so a grid sweep's seed trials share one table, and far
#: outside the small integers experiments use as measured seeds.
_PILOT_SEED = 1_000_003

#: The cross traffic's on/off half-period, in seconds.
SWITCH_INTERVAL = 30.0


def run_ablation_point(
    config: SenderConfig,
    duration: float = 60.0,
    link_rate_bps: float = 12_000.0,
    loss_rate: float = 0.2,
    seed: int = 2,
) -> AblationOutcome:
    """Run the shortened Figure-3 scenario under one sender configuration.

    The ``inference_ablation_point`` scenario's body; the sender is built
    through the canonical :func:`repro.api.build_sender` path;
    ``config.packet_bits`` sizes the network's packets too.

    With ``policy="table"`` the policy table is precomputed on *this
    scenario's* parameters (same link rate / loss / switching, a disjoint
    pilot seed) before the measured run starts — precomputation is the
    §3.3 offline step.
    """
    packet_bits = config.packet_bits
    network = figure2_network(
        link_rate_bps=link_rate_bps,
        loss_rate=loss_rate,
        switch_interval=SWITCH_INTERVAL,
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
            switch_interval=SWITCH_INTERVAL,
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

    network.network.run(until=duration)

    belief = sender.belief
    marginal = belief.posterior_marginal("link_rate_bps")
    true_mass = sum(
        probability
        for value, probability in marginal.items()
        if abs(value - link_rate_bps) < 1e-6
    )
    return AblationOutcome(
        packets_sent=sender.packets_sent,
        goodput_bps=network.sender_receiver.throughput_bps(0.0, duration),
        rollouts=sender.planner.rollouts_performed,
        final_hypotheses=len(belief),
        degenerate_updates=belief.degenerate_updates,
        posterior_true_link_rate=true_mass,
        policy_hits=getattr(sender.policy, "hits", 0),
        policy_misses=getattr(sender.policy, "misses", 0),
    )

