"""Benchmark: parallel scenario-runner scaling on an 8-point α sweep.

Runs the same eight Figure-3 α points through the serial backend and
through a 4-worker :class:`~repro.runner.backends.ParallelRunner`, checks
the two artifacts are byte-identical (replay equivalence), and reports the
wall-clock speedup.  The ≥ 2.5× speedup assertion only applies where the
hardware can deliver it — on fewer than four usable cores the measured
ratio is reported but not enforced, since forked workers then time-share
one CPU.

A second record is the process backend's *fixed* cost: 64 no-op points
through 2 workers, as milliseconds per point.  It is an absolute, so unlike
the speedup it is gated on every host, including the 1–2 core ones CI runs
on; the gate is loose (the fork per point measures ≈5 ms) because it is
there to catch a per-point cost that grew by a multiple, not by a few
percent.

A third covers the §3.3 ``policy="table"`` grid workload: a seed fan over
one table-mode configuration must precompute exactly one policy table
through the shared cache directory, not one per point.
"""

from __future__ import annotations

import os
import statistics
import time

import pytest

from repro.metrics.summary import ExperimentRow, format_table
from repro.runner import ParallelRunner, ScenarioRegistry, SerialRunner, run_specs
from repro.runner.scenarios import alpha_sweep_specs
from repro.runner.spec import grid

#: Eight α points spanning the paper's range (two per paper value).
BENCH_ALPHAS = (0.8, 0.9, 1.0, 1.5, 2.0, 2.5, 3.5, 5.0)
BENCH_DURATION = 60.0
BENCH_SWITCH_INTERVAL = 20.0
BENCH_WORKERS = 4

#: The fixed-cost record: points, workers, repeats (median taken), gate.
NOOP_POINTS = 64
NOOP_WORKERS = 2
NOOP_REPEATS = 5
NOOP_MAX_MS_PER_POINT = 25.0

#: Cores the parallel backend can actually use.
_USABLE_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@pytest.mark.bench
def test_runner_scaling_8_point_alpha_sweep(table_printer, bench_record):
    specs = alpha_sweep_specs(
        alphas=BENCH_ALPHAS,
        duration=BENCH_DURATION,
        switch_interval=BENCH_SWITCH_INTERVAL,
    )
    assert len(specs) == len(BENCH_ALPHAS)

    started = time.perf_counter()
    serial_store = SerialRunner().run(specs)
    serial_elapsed = time.perf_counter() - started

    started = time.perf_counter()
    parallel_store = ParallelRunner(workers=BENCH_WORKERS).run(specs)
    parallel_elapsed = time.perf_counter() - started

    speedup = serial_elapsed / parallel_elapsed if parallel_elapsed > 0 else float("inf")
    table_printer(
        format_table(
            [
                ExperimentRow(
                    label="serial",
                    values={"wall (s)": serial_elapsed, "points": len(serial_store), "workers": 1},
                ),
                ExperimentRow(
                    label="parallel",
                    values={
                        "wall (s)": parallel_elapsed,
                        "points": len(parallel_store),
                        "workers": BENCH_WORKERS,
                    },
                ),
                ExperimentRow(
                    label="speedup",
                    values={"wall (s)": speedup},
                ),
            ],
            title=f"Runner scaling — 8-point α sweep ({_USABLE_CPUS} usable CPUs)",
        )
    )
    table_printer(format_table(serial_store.rows(), title="Sweep metrics (identical across backends)"))

    # Replay equivalence: the parallel artifact is byte-identical to serial.
    assert serial_store.to_json() == parallel_store.to_json()

    # Canonical BENCH_runner.json record.  The ≥2.5× speedup gate only
    # applies where the hardware can deliver it — on fewer than four usable
    # cores the ratio is recorded but the gate is retracted (None), since
    # forked workers then time-share one CPU and a gate written by an
    # earlier many-core run would otherwise linger in the merged record.
    gates = {
        "parallel_8pt.replay_identical": {"min": 1.0},
        "parallel_8pt.speedup_vs_serial": (
            {"min": 2.5} if _USABLE_CPUS >= BENCH_WORKERS else None
        ),
    }
    bench_record(
        "runner",
        entries={
            "serial_8pt": (
                {"wall_time_s": serial_elapsed, "points": len(serial_store), "workers": 1},
                {"backend": "serial", "alphas": list(BENCH_ALPHAS)},
            ),
            "parallel_8pt": (
                {
                    "wall_time_s": parallel_elapsed,
                    "points": len(parallel_store),
                    "workers": BENCH_WORKERS,
                    "speedup_vs_serial": speedup,
                    "replay_identical": float(
                        serial_store.to_json() == parallel_store.to_json()
                    ),
                    "usable_cpus": _USABLE_CPUS,
                },
                {"backend": "parallel", "alphas": list(BENCH_ALPHAS)},
            ),
        },
        gates=gates,
    )

    if _USABLE_CPUS >= BENCH_WORKERS:
        assert speedup >= 2.5, (
            f"expected >= 2.5x speedup with {BENCH_WORKERS} workers on "
            f"{_USABLE_CPUS} CPUs, measured {speedup:.2f}x"
        )
    else:
        table_printer(
            f"NOTE: only {_USABLE_CPUS} usable CPU(s); {speedup:.2f}x measured, "
            "2.5x assertion requires >= 4 cores"
        )


def _noop_scenario(seed: int = 0, idx: int = 0) -> dict[str, float]:
    return {"idx": float(idx)}


@pytest.mark.bench
def test_parallel_backend_fixed_cost_per_point(table_printer, bench_record):
    registry = ScenarioRegistry()
    registry.register("noop")(_noop_scenario)
    specs = grid("noop", idx=tuple(range(NOOP_POINTS)))
    reference = SerialRunner(registry=registry).run(specs).to_json()

    walls = []
    for _ in range(NOOP_REPEATS):
        started = time.perf_counter()
        store = ParallelRunner(workers=NOOP_WORKERS, registry=registry).run(specs)
        walls.append(time.perf_counter() - started)
        assert store.to_json() == reference
    ms_per_point = statistics.median(walls) / NOOP_POINTS * 1e3

    table_printer(
        f"Parallel backend fixed cost — {NOOP_POINTS} no-op points, "
        f"{NOOP_WORKERS} workers: {ms_per_point:.2f} ms/point "
        f"(median of {NOOP_REPEATS}; min {min(walls) / NOOP_POINTS * 1e3:.2f}, "
        f"max {max(walls) / NOOP_POINTS * 1e3:.2f})"
    )
    bench_record(
        "runner",
        entries={
            "parallel_noop_64pt": (
                {
                    "ms_per_point": ms_per_point,
                    "points": NOOP_POINTS,
                    "workers": NOOP_WORKERS,
                },
                {"backend": "parallel", "repeats": NOOP_REPEATS},
            ),
        },
        gates={"parallel_noop_64pt.ms_per_point": {"max": NOOP_MAX_MS_PER_POINT}},
    )
    assert ms_per_point <= NOOP_MAX_MS_PER_POINT


@pytest.mark.bench
def test_policy_table_seed_fan_shares_one_table(
    table_printer, bench_record, tmp_path, monkeypatch
):
    """§3.3 grid workload: a table-mode seed fan precomputes one table.

    Three seed trials of one ``inference_ablation_point`` configuration run
    with ``policy="table"`` against a shared cache directory.  The pilot
    seed is fixed per configuration, so the sweep must write exactly one
    policy-table artifact and replay it for the remaining points — the
    cross-run/cross-worker reuse PR 4's ROADMAP entry promised.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    base = {"duration": 8.0, "max_hypotheses": 60, "top_k": 8}
    seeds = (0, 1, 2)

    def sweep(policy: str) -> float:
        specs = grid(
            "inference_ablation_point", seeds=seeds, base={**base, "policy": policy}
        )
        started = time.perf_counter()
        store = run_specs(specs)
        assert len(store) == len(seeds)
        return time.perf_counter() - started

    none_elapsed = sweep("none")
    table_elapsed = sweep("table")
    tables_written = len(list((tmp_path / "policy").glob("*.json")))

    table_printer(
        format_table(
            [
                ExperimentRow(
                    label="policy=none",
                    values={"wall (s)": none_elapsed, "points": len(seeds)},
                ),
                ExperimentRow(
                    label="policy=table",
                    values={
                        "wall (s)": table_elapsed,
                        "points": len(seeds),
                        "tables": tables_written,
                    },
                ),
            ],
            title="Runner grid — policy-mode seed fan (3 trials, shared cache)",
        )
    )

    assert tables_written == 1, (
        f"expected the seed fan to share one precomputed table, "
        f"found {tables_written}"
    )

    bench_record(
        "runner",
        entries={
            "policy_none_seedfan": (
                {"wall_time_s": none_elapsed, "points": len(seeds)},
                {"policy": "none", "seeds": list(seeds)},
            ),
            "policy_table_seedfan": (
                {
                    "wall_time_s": table_elapsed,
                    "points": len(seeds),
                    "tables_precomputed": float(tables_written),
                },
                {"policy": "table", "seeds": list(seeds)},
            ),
        },
        gates={
            "policy_table_seedfan.tables_precomputed": {"min": 1.0, "max": 1.0},
        },
    )
