"""Benchmark: the deep-queue wake-up and the batched sender pool.

* ``BENCH_planner.json`` gains ``fused_wakeup`` — the full ISender wake-up
  loop body (``record_send`` → ``update`` → ``decide``) on the array engine
  at the 512-hypothesis cap in the paper's deep-buffer regime (a 128-packet
  standing queue), where the rollout frontier drains whole departure runs
  per iteration.  Recorded as absolute wall time; gated on the final
  decision matching the scalar oracle's (identical chosen action, expected
  utilities within the documented 1e-9 relative tolerance).
* ``BENCH_engine.json`` gains ``per_sender_vectorized_64`` /
  ``pooled_fused_64`` — 64 senders deciding via one
  ``BatchedSenderPool.decide_all`` (sender × action × hypothesis) frontier
  vs the per-sender decide loop over the same senders.  Gate: every
  sender's decision unchanged, and pooling at parity with the loop or
  better (see ``MIN_POOL_SPEEDUP``).
"""

from __future__ import annotations

from repro.experiments.planner_bench import (
    DEEP_QUEUE,
    PoolBenchConfig,
    run_pool_comparison,
    run_wakeup_comparison,
)
from repro.metrics.summary import ExperimentRow, format_table

#: The floor for the pooled 64-sender aggregate decide.  The ratio was ≥5×
#: while the per-sender loop ran the lockstep-only frontier on these
#: 48–210-deep queues (≈3.2 ms a sender).  On the one engine the loop drains
#: its departure runs too (≈0.45–0.75 ms a sender, against ≈0.4–0.5 ms
#: pooled), so what is left of the ratio is the per-call overhead pooling
#: amortizes, less the pooled drain slab being as wide as the deepest
#: sender's queue: measured 1.1–1.5×.  The floor sits below parity by this
#: host's run-to-run spread, so it trips only if pooling starts to cost.
MIN_POOL_SPEEDUP = 0.8

#: Documented cross-backend tolerance (relative) on expected utilities.
MAX_UTILITY_DIVERGENCE = 1e-9


def test_deep_queue_wakeup(table_printer, bench_record):
    """Full array-engine wake-ups on the deep-buffer state, vs the oracle."""
    config = DEEP_QUEUE
    comparison = run_wakeup_comparison(config, rounds=4)

    table_printer(
        format_table(
            [
                ExperimentRow(
                    label="array engine",
                    values={
                        "wall_time (s)": comparison.wall_time_s,
                        "ms/wakeup": comparison.wall_time_s * 1000.0 / comparison.wakeups,
                        "wakeups": comparison.wakeups,
                    },
                )
            ],
            title=(
                f"Full wake-up at {config.max_hypotheses} hypotheses, "
                f"{config.burst}-packet standing queue"
            ),
        )
    )

    bench_record(
        "planner",
        entries={
            "fused_wakeup": (
                {
                    "wall_time_s": comparison.wall_time_s,
                    "wakeups": comparison.wakeups,
                    "max_utility_divergence": comparison.max_utility_divergence,
                    "decisions_match": float(comparison.decisions_match),
                },
                {"reference": "scalar", "burst": config.burst},
            ),
        },
        gates={
            "fused_wakeup.max_utility_divergence": {"max": MAX_UTILITY_DIVERGENCE},
            "fused_wakeup.decisions_match": {"min": 1.0},
        },
    )

    assert comparison.decisions_match, (
        f"engines disagree: scalar delay {comparison.scalar.delay!r} "
        f"vs array {comparison.array.delay!r}"
    )
    assert comparison.max_utility_divergence <= MAX_UTILITY_DIVERGENCE


def test_pooled_decide_speedup(table_printer, bench_record):
    """64-sender pooled decide_all vs the per-sender decide loop."""
    config = PoolBenchConfig()
    comparison = run_pool_comparison(config)
    per_sender, pooled = comparison.per_sender, comparison.pooled

    per_pass_ms = 1000.0 / config.passes
    table_printer(
        format_table(
            [
                ExperimentRow(
                    label=result.strategy,
                    values={
                        "wall_time (s)": result.wall_time_s,
                        "ms/pass": result.wall_time_s * per_pass_ms,
                        "senders": result.senders,
                    },
                )
                for result in (per_sender, pooled)
            ],
            title=(
                f"Aggregate decide over {config.senders} senders "
                f"(speedup {comparison.speedup:.2f}x)"
            ),
        )
    )

    bench_record(
        "engine",
        entries={
            "per_sender_vectorized_64": (
                {
                    "wall_time_s": per_sender.wall_time_s,
                    "passes": per_sender.passes,
                    "senders": per_sender.senders,
                },
                {"strategy": per_sender.strategy},
            ),
            "pooled_fused_64": (
                {
                    "wall_time_s": pooled.wall_time_s,
                    "passes": pooled.passes,
                    "senders": pooled.senders,
                    "speedup_vs_per_sender": comparison.speedup,
                    "decisions_match": float(comparison.decisions_match),
                },
                {"strategy": pooled.strategy},
            ),
        },
        gates={
            "pooled_fused_64.speedup_vs_per_sender": {"min": MIN_POOL_SPEEDUP},
            "pooled_fused_64.decisions_match": {"min": 1.0},
        },
    )

    assert comparison.decisions_match, "pooled decisions diverged from per-sender"
    assert comparison.speedup >= MIN_POOL_SPEEDUP, (
        f"pooled decide_all only {comparison.speedup:.2f}x faster "
        f"(floor {MIN_POOL_SPEEDUP:.1f}x)"
    )
