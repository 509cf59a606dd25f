"""Benchmark: what supervision and journalling cost on a healthy sweep.

Fault tolerance is only free to *enable* if a clean sweep barely notices
it.  Plain and supervised runs share one executor (a worker process per
in-flight point), so ``overhead_vs_plain`` compares exactly what a
``Supervision`` adds on top of it: a journal line per state transition and
the retry bookkeeping.  (The fork per point, which this ratio used to
include when the plain run was a process pool, is now recorded on its own
as ``parallel_noop_64pt.ms_per_point`` in ``BENCH_runner.json``.)  This
benchmark runs the same 64-point grid under the plain policy and under
supervision with a journal, and gates the overhead at <=10%.

A second entry runs the grid under the issue's chaos plan — 10% injected
exceptions, 2 worker kills, 1 hang, 1 corrupted cache entry — and gates
that every fault recovers: all 64 points present, zero quarantined, and an
artifact byte-identical to the clean run.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.metrics.summary import ExperimentRow, format_table
from repro.runner import (
    FaultPlan,
    ParallelRunner,
    ResultCache,
    Supervision,
    grid,
)

#: Oversubscribing a small container just measures scheduler contention,
#: not supervision cost, so size the fan-out to the machine.
BENCH_WORKERS = min(4, os.cpu_count() or 1)
BENCH_DURATION = 30.0
#: 4 loss rates x 16 seeds = 64 points, each ~0.15s of simulation.
BENCH_LOSSES = (0.0, 0.02, 0.05, 0.1)
BENCH_SEEDS = 16


def _bench_specs():
    return grid(
        "single_link_tcp",
        seeds=BENCH_SEEDS,
        base={"duration": BENCH_DURATION},
        loss_rate=BENCH_LOSSES,
    )


@pytest.mark.bench
def test_supervision_overhead_and_chaos_recovery(table_printer, bench_record, tmp_path):
    specs = _bench_specs()

    started = time.perf_counter()
    plain = ParallelRunner(workers=BENCH_WORKERS).run(specs)
    plain_elapsed = time.perf_counter() - started

    started = time.perf_counter()
    supervised = ParallelRunner(
        workers=BENCH_WORKERS,
        supervision=Supervision(max_retries=2),
        journal_dir=tmp_path / "journal-root",
    ).run(specs)
    supervised_elapsed = time.perf_counter() - started

    overhead = supervised_elapsed / plain_elapsed if plain_elapsed > 0 else float("inf")
    supervised_identical = supervised.to_json() == plain.to_json()

    plan = FaultPlan(
        seed=11, exception_rate=0.1, kills=2, hangs=1, corrupt=1, hang_seconds=60.0
    )
    started = time.perf_counter()
    chaos = ParallelRunner(
        workers=BENCH_WORKERS,
        cache=ResultCache(tmp_path / "cache"),
        supervision=Supervision(max_retries=3, point_timeout=10.0, fault_plan=plan),
    ).run(specs)
    chaos_elapsed = time.perf_counter() - started
    chaos_identical = chaos.to_json() == plain.to_json()

    table_printer(
        format_table(
            [
                ExperimentRow(
                    label="plain parallel",
                    values={"wall (s)": plain_elapsed, "points": len(plain)},
                ),
                ExperimentRow(
                    label="supervised+journal",
                    values={
                        "wall (s)": supervised_elapsed,
                        "points": len(supervised),
                        "overhead": overhead,
                    },
                ),
                ExperimentRow(
                    label="chaos plan",
                    values={
                        "wall (s)": chaos_elapsed,
                        "points": len(chaos),
                        "retries": chaos.retries,
                        "quarantined": len(chaos.quarantined),
                    },
                ),
            ],
            title=(
                f"Fault-tolerant runner — {len(specs)}-point sweep, "
                f"{BENCH_WORKERS} workers"
            ),
        )
    )

    assert supervised_identical, "supervised clean run must match the plain artifact"
    assert chaos_identical, "recovered chaos run must match the plain artifact"
    assert not chaos.quarantined, f"chaos run quarantined {len(chaos.quarantined)} point(s)"
    assert overhead <= 1.10, f"supervision overhead {overhead:.2f}x exceeds the 10% budget"

    bench_record(
        "faults",
        entries={
            "clean_64pt": (
                {
                    "wall_time_s": plain_elapsed,
                    "points": len(plain),
                },
                {"workers": BENCH_WORKERS, "duration_s": BENCH_DURATION},
            ),
            "supervised_64pt": (
                {
                    "wall_time_s": supervised_elapsed,
                    "points": len(supervised),
                    "overhead_vs_plain": overhead,
                    "replay_identical": float(supervised_identical),
                },
                {"workers": BENCH_WORKERS, "max_retries": 2},
            ),
            "chaos_64pt": (
                {
                    "wall_time_s": chaos_elapsed,
                    "points": len(chaos),
                    "retries": chaos.retries,
                    "quarantined": float(len(chaos.quarantined)),
                    "recovered_identical": float(chaos_identical),
                },
                {"workers": BENCH_WORKERS, "fault_plan": plan.describe()},
            ),
        },
        gates={
            "supervised_64pt.overhead_vs_plain": {"max": 1.10},
            "supervised_64pt.replay_identical": {"min": 1.0},
            "chaos_64pt.quarantined": {"max": 0.0},
            "chaos_64pt.recovered_identical": {"min": 1.0},
            "chaos_64pt.points": {"min": 64.0},
        },
    )
