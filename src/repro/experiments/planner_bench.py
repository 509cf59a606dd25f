"""The planner hot-path benchmarks: scalar oracle vs. the array engine.

Two measurements, both on beliefs warmed to the 512-hypothesis cap on a
deterministic Figure-3-style workload and then hit with a send burst so
every hypothesis carries a queued backlog at the decision time:

* **Decide fan-out** (:func:`run_planner_comparison`) — repeated
  ``ExpectedUtilityPlanner.decide`` calls (``top_k`` hypotheses × the
  default 9-delay action grid) through each rollout backend, on the
  paper's shallow §4 buffers (:class:`PlannerBenchConfig`'s defaults:
  queues ≤ 9 packets, ~1:1 service/cross alternation — the lockstep side
  of the rollout frontier).
* **Deep-queue wake-up** (:func:`run_wakeup_comparison`) — the full ISender
  wake-up loop body (``record_send`` → ``update`` → ``decide``) on
  :data:`DEEP_QUEUE`, the bufferbloat regime the paper opens with: a
  128-packet standing queue and sparse cross traffic, where the frontier
  drains whole departure runs per iteration.  Reported as absolute wall
  time; the scalar oracle replays the same script untimed so the final
  decision can be checked against it.

The warm-up prior concentrates its spread on loss, buffer capacity, and
initial fill — parameters that shape *outcomes* without desynchronizing
per-lane event rates — which is the planner's steady-state regime once the
link speed has been identified, and the regime the batched engine is built
for: every lane advances through a comparable number of events, so one
masked frontier iteration replaces ~``top_k × actions`` scalar events.

Used by ``benchmarks/bench_planner_rollout.py`` and
``benchmarks/bench_fused_wakeup.py`` (which write the ``BENCH_planner.json``
and ``BENCH_engine.json`` regression records) and runnable standalone::

    PYTHONPATH=src python -m repro.experiments.planner_bench
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core import AlphaWeightedUtility, ExpectedUtilityPlanner
from repro.core.planner import Decision
from repro.experiments.inference_bench import (
    SEND,
    InferenceBenchConfig,
    build_workload,
)
from repro.inference import BeliefState, GaussianKernel, figure3_prior
from repro.units import DEFAULT_PACKET_BITS


@dataclass(frozen=True)
class PlannerBenchConfig:
    """Shape of the loaded decision state and the timed fan-out."""

    top_k: int = 24
    max_hypotheses: int = 512
    #: Warm-up workload (shared with the inference bench machinery).
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
    #: Timed ``decide`` calls (or full wake-ups) per round.
    decisions: int = 15
    #: Wall-clock step between timed wake-ups (wake-up measurement only).
    wake_interval: float = 0.05

    @property
    def alpha_utility(self) -> AlphaWeightedUtility:
        """The Figure-3 utility used for every timed decision."""
        return AlphaWeightedUtility(alpha=1.0, discount_timescale=20.0)


#: The deep-buffer wake-up state: buffers of 1.15–1.3 Mbit (~145–160
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
    decisions=12,
)


def _utility_divergence(reference: dict[float, float], candidate: dict[float, float]) -> float:
    """Largest relative expected-utility difference across the action grid."""
    if set(reference) != set(candidate):
        return float("inf")
    worst = 0.0
    for delay, value in reference.items():
        scale = max(1.0, abs(value))
        worst = max(worst, abs(candidate[delay] - value) / scale)
    return worst


def _close(left: float, right: float) -> bool:
    """Equal within the documented 1e-9 relative cross-backend tolerance.

    Not bit-exact: the two planners run over *different belief backends*,
    whose posteriors may differ by transcendental rounding (PR 2's
    contract), which can shift the derived delays in the last ulp.
    """
    return abs(left - right) <= 1e-9 * max(1.0, abs(left), abs(right))


@dataclass
class PlannerBackendResult:
    """Measurements from timing one rollout backend on the decision state."""

    rollout_backend: str
    wall_time_s: float
    decisions: int
    rollouts_performed: int
    hypotheses_evaluated: int
    chosen_delay: float
    horizon: float
    expected_utilities: dict[float, float] = field(default_factory=dict)


@dataclass
class PlannerComparison:
    """Both rollout backends on the identical decision state."""

    config: PlannerBenchConfig
    scalar: PlannerBackendResult
    vectorized: PlannerBackendResult

    @property
    def speedup(self) -> float:
        return self.scalar.wall_time_s / self.vectorized.wall_time_s

    @property
    def max_utility_divergence(self) -> float:
        return _utility_divergence(
            self.scalar.expected_utilities, self.vectorized.expected_utilities
        )

    @property
    def decisions_match(self) -> bool:
        """Whether both backends chose the same action (see :func:`_close`)."""
        return _close(self.scalar.chosen_delay, self.vectorized.chosen_delay) and _close(
            self.scalar.horizon, self.vectorized.horizon
        )


def build_decision_state(config: PlannerBenchConfig, belief_backend: str) -> BeliefState:
    """A belief at the cap, converged and carrying a queued send burst."""
    workload = InferenceBenchConfig(
        max_hypotheses=config.max_hypotheses,
        duration=config.duration,
        update_interval=config.update_interval,
        send_interval=config.send_interval,
        packet_bits=config.packet_bits,
        true_link_rate_bps=config.true_link_rate_bps,
        true_cross_rate_pps=(
            config.true_cross_fraction * config.true_link_rate_bps / config.packet_bits
        ),
        kernel_sigma=config.kernel_sigma,
    )
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
    for kind, args in build_workload(workload):
        if kind == SEND:
            belief.record_send(*args)
        else:
            belief.update(*args)
    burst_base = 1_000_000  # clear of every warm-up sequence number
    for index in range(config.burst):
        belief.record_send(burst_base + index, config.packet_bits, config.duration)
    belief.update(config.duration)
    return belief


def time_backend(
    rollout_backend: str,
    belief: BeliefState,
    config: PlannerBenchConfig,
) -> PlannerBackendResult:
    """Time ``config.decisions`` repeated decides through one backend."""
    planner = ExpectedUtilityPlanner(
        config.alpha_utility,
        packet_bits=config.packet_bits,
        top_k=config.top_k,
        rollout_backend=rollout_backend,
    )
    now = config.duration
    decision = planner.decide(belief, now)  # warm caches and allocators
    planner.rollouts_performed = 0  # count the timed decisions only
    started = time.perf_counter()
    for _ in range(config.decisions):
        decision = planner.decide(belief, now)
    elapsed = time.perf_counter() - started
    return PlannerBackendResult(
        rollout_backend=rollout_backend,
        wall_time_s=elapsed,
        decisions=config.decisions,
        rollouts_performed=planner.rollouts_performed,
        hypotheses_evaluated=decision.hypotheses_evaluated,
        chosen_delay=decision.delay,
        horizon=decision.horizon,
        expected_utilities=dict(decision.expected_utilities),
    )


def run_planner_comparison(
    config: PlannerBenchConfig | None = None, rounds: int = 3
) -> PlannerComparison:
    """Time both rollout backends on one decision state; keep each one's best.

    The decision state is built once per belief backend — the vectorized
    planner runs over the vectorized belief (its no-materialization path),
    the scalar planner over the scalar belief — which PR 2's equivalence
    contract guarantees hold identical posteriors.  The *minimum* wall time
    over ``rounds`` is each backend's robust cost estimate.
    """
    config = config or PlannerBenchConfig()
    scalar_belief = build_decision_state(config, "scalar")
    vectorized_belief = build_decision_state(config, "vectorized")
    best: dict[str, PlannerBackendResult] = {}
    for _ in range(max(1, rounds)):
        for backend, belief in (
            ("vectorized", vectorized_belief),
            ("scalar", scalar_belief),
        ):
            result = time_backend(backend, belief, config)
            kept = best.get(backend)
            if kept is None or result.wall_time_s < kept.wall_time_s:
                best[backend] = result
    return PlannerComparison(
        config=config, scalar=best["scalar"], vectorized=best["vectorized"]
    )


# ------------------------------------------------------- deep-queue wake-up

#: Sequence-number base for bench-issued sends, clear of every warm-up seq.
_BENCH_SEQ_BASE = 2_000_000


@dataclass
class WakeupComparison:
    """Array-engine full wake-ups, checked against the scalar oracle."""

    config: PlannerBenchConfig
    #: Best round's wall time over ``wakeups`` array-engine wake-ups.
    wall_time_s: float
    wakeups: int
    #: The final paired decide on each engine.
    scalar: Decision
    array: Decision

    @property
    def max_utility_divergence(self) -> float:
        return _utility_divergence(
            self.scalar.expected_utilities, self.array.expected_utilities
        )

    @property
    def decisions_match(self) -> bool:
        return _close(self.scalar.delay, self.array.delay)


def _wakeup_planner(config: PlannerBenchConfig, backend: str) -> ExpectedUtilityPlanner:
    return ExpectedUtilityPlanner(
        config.alpha_utility,
        packet_bits=config.packet_bits,
        top_k=config.top_k,
        rollout_backend=backend,
    )


def run_wakeup_comparison(
    config: PlannerBenchConfig = DEEP_QUEUE, rounds: int = 3
) -> WakeupComparison:
    """Time full array-engine wake-ups; keep the best round.

    Each timed iteration advances the clock by ``config.wake_interval`` and
    runs the ISender wake-up body — ``record_send`` (one new outstanding
    packet), ``update`` (the full fork/advance/score/compact/prune pipeline
    over the capped ensemble), ``decide`` (the top-k × action-grid rollout
    fan-out) — so the measurement covers exactly what one sender pays per
    wake, not the decide in isolation.  The advancing clock matters: a wake
    at a frozen ``now`` never forks or compacts.

    A scalar belief then replays the identical send/update script untimed
    (same sequence numbers, same clock), so the two beliefs correspond and
    one final paired decide judges equivalence.
    """
    array_belief = build_decision_state(config, "vectorized")
    planner = _wakeup_planner(config, "vectorized")
    best = float("inf")
    now = config.duration
    script: list[tuple[int, float]] = []
    for _ in range(max(1, rounds)):
        elapsed = 0.0
        for index in range(config.decisions + 1):
            now += config.wake_interval
            seq = _BENCH_SEQ_BASE + len(script)
            script.append((seq, now))
            started = time.perf_counter()
            array_belief.record_send(seq, config.packet_bits, now)
            array_belief.update(now)
            planner.decide(array_belief, now)
            if index:  # the round's first wake warms caches and allocators
                elapsed += time.perf_counter() - started
        best = min(best, elapsed)
    scalar_belief = build_decision_state(config, "scalar")
    for seq, at in script:
        scalar_belief.record_send(seq, config.packet_bits, at)
        scalar_belief.update(at)
    return WakeupComparison(
        config=config,
        wall_time_s=best,
        wakeups=config.decisions,
        scalar=_wakeup_planner(config, "scalar").decide(scalar_belief, now),
        array=planner.decide(array_belief, now),
    )


def main() -> None:  # pragma: no cover - manual entry point
    comparison = run_planner_comparison()
    scalar, vectorized = comparison.scalar, comparison.vectorized
    per_decide = 1000.0 / scalar.decisions
    print(
        f"scalar     : {scalar.wall_time_s * per_decide:8.2f} ms/decide "
        f"({scalar.rollouts_performed} rollouts total)"
    )
    print(
        f"vectorized : {vectorized.wall_time_s * per_decide:8.2f} ms/decide "
        f"({vectorized.rollouts_performed} rollouts total)"
    )
    print(f"speedup    : {comparison.speedup:8.1f} x")
    print(f"max |ΔU|   : {comparison.max_utility_divergence:8.2e} (relative)")
    print(f"same action: {comparison.decisions_match}")
    wakeup = run_wakeup_comparison()
    print(
        f"deep-queue wake-up : {wakeup.wall_time_s * 1000.0 / wakeup.wakeups:8.2f} ms "
        f"(max |ΔU| vs scalar {wakeup.max_utility_divergence:.2e}, "
        f"same action: {wakeup.decisions_match})"
    )


if __name__ == "__main__":  # pragma: no cover
    main()
