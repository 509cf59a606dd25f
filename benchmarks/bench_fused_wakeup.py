"""Benchmark: the deep-queue wake-up.

``BENCH_planner.json`` gains ``fused_wakeup`` — the full ISender wake-up
loop body (``record_send`` → ``update`` → ``decide``) on the array engine
at the 512-hypothesis cap in the paper's deep-buffer regime (a 128-packet
standing queue), where the rollout frontier drains whole departure runs
per iteration.  Recorded as absolute wall time; gated on the final
decision matching the scalar oracle's (identical chosen action, expected
utilities within the documented 1e-9 relative tolerance).
"""

from __future__ import annotations

from repro.experiments.planner_bench import DEEP_QUEUE, run_wakeup_comparison
from repro.metrics.summary import ExperimentRow, format_table

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
