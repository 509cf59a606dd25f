"""The §3.3 policy-table fidelity check: precomputed lookup vs. live planning.

Exercises the offline-policy subsystem end to end on the Figure-3 default
configuration:

1. :func:`~repro.api.policy.precompute_policy_table` computes the table
   from a pilot run plus the burst-grid sweep (through the vectorized
   rollout lanes);
2. a **held-out run** (same config, different seed) checks fidelity: at
   every wake-up whose belief signature the table covers, the table's
   decision is compared against a fresh live-planned decision on the very
   same belief — the "same decision sequence at the table's signature
   resolution" criterion, free of trajectory-divergence noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.config import SenderConfig
from repro.api.policy import PolicyTable, precompute_policy_table
from repro.core.isender import ISender
from repro.inference.prior import figure3_prior
from repro.topology.presets import figure2_network


@dataclass(frozen=True)
class PolicyBenchConfig:
    """Shape of the precompute and the held-out fidelity run."""

    #: Figure-3 default engines for the policy path (vectorized keeps the
    #: precompute sweep and the fallback planning on the lane engine).
    belief_backend: str = "vectorized"
    rollout_backend: str = "vectorized"
    #: Prior resolution of the Figure-3 default config (4*4*3*2*1 = 96).
    link_rate_points: int = 4
    cross_fraction_points: int = 4
    loss_points: int = 3
    buffer_points: int = 2
    fill_points: int = 1
    #: Pilot (precompute) and held-out runs.
    pilot_duration: float = 60.0
    pilot_seed: int = 2
    heldout_duration: float = 40.0
    heldout_seed: int = 5
    switch_interval: float = 30.0
    #: Tolerance for "same decision at the table's signature resolution":
    #: the signature rounds weights to 3 decimals, so two beliefs sharing a
    #: signature can derive action delays differing in the last ulp.
    decision_rel_tolerance: float = 1e-9

    def sender_config(self) -> SenderConfig:
        """The Figure-3 default sender configuration under test."""
        return SenderConfig(
            prior=figure3_prior(
                link_rate_points=self.link_rate_points,
                cross_fraction_points=self.cross_fraction_points,
                loss_points=self.loss_points,
                buffer_points=self.buffer_points,
                fill_points=self.fill_points,
            ),
            belief_backend=self.belief_backend,
            rollout_backend=self.rollout_backend,
            policy="table",
        )


class _CheckingPolicy:
    """Table decider that shadows every hit with a live-planned decision."""

    def __init__(self, table: PolicyTable, planner) -> None:
        self.table = table
        self.planner = planner
        self.pairs: list[tuple[float, float]] = []

    def decide(self, belief, now):
        hit = self.table.contains(belief)
        decision = self.table.decide(belief, now)
        if hit:
            live = self.planner.decide(belief, now)
            self.pairs.append((decision.delay, live.delay))
        return decision


@dataclass
class PolicyComparison:
    """How a precomputed table fared against live planning on a held-out run."""

    config: PolicyBenchConfig
    table_entries: int
    heldout_hits: int
    heldout_checked: int
    heldout_agreements: int
    mismatches: list[tuple[float, float]] = field(default_factory=list)

    @property
    def decisions_match(self) -> bool:
        """Whether every checked table hit reproduced the live decision."""
        return self.heldout_checked > 0 and self.heldout_agreements == self.heldout_checked


def run_policy_comparison(config: PolicyBenchConfig | None = None) -> PolicyComparison:
    """Precompute a table, then verify it on a held-out run."""
    config = config or PolicyBenchConfig()
    sender_config = config.sender_config()
    table = precompute_policy_table(
        sender_config,
        pilot_duration=config.pilot_duration,
        seed=config.pilot_seed,
        switch_interval=config.switch_interval,
    )
    table_entries = table.size

    # Held-out fidelity run: fresh seed, every table hit shadow-checked
    # against a live planner decision on the identical belief.  Learning is
    # frozen so the hit counters measure *precomputed* coverage only — a
    # learning table would count re-visits to its own run-time additions.
    table.hits = table.misses = 0
    table.learn = False
    network = figure2_network(
        switch_interval=config.switch_interval, seed=config.heldout_seed
    )
    belief = sender_config.build_belief()
    planner = sender_config.build_planner()
    checker = _CheckingPolicy(table, planner)
    sender = ISender(
        belief,
        planner,
        network.sender_receiver,
        flow=network.sender_flow,
        policy=checker,
    )
    sender.connect(network.entry)
    network.network.add(sender)
    network.network.run(until=config.heldout_duration)

    tolerance = config.decision_rel_tolerance
    agreements = sum(
        1
        for table_delay, live_delay in checker.pairs
        if abs(table_delay - live_delay)
        <= tolerance * max(1.0, abs(table_delay), abs(live_delay))
    )
    mismatches = [
        (table_delay, live_delay)
        for table_delay, live_delay in checker.pairs
        if abs(table_delay - live_delay)
        > tolerance * max(1.0, abs(table_delay), abs(live_delay))
    ]

    return PolicyComparison(
        config=config,
        table_entries=table_entries,
        heldout_hits=table.hits,
        heldout_checked=len(checker.pairs),
        heldout_agreements=agreements,
        mismatches=mismatches,
    )
