"""Replay-equivalence suite: the engine's determinism, pinned down for real.

The contract: a scenario spec plus a seed fully determines the summary
metrics.  The same sweep must therefore produce *byte-identical* canonical
artifacts run-to-run in one process, between the serial and parallel
backends, and at any worker count — which is what makes parallel sweeps
trustworthy and cached results comparable.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.runner import ParallelRunner, ScenarioSpec, SerialRunner
from repro.runner.cache import CACHE_DIR_ENV
from repro.runner.cli import main as cli_main
from repro.runner.scenarios import loss_delay_buffer_specs

#: A small but non-trivial grid: 2 losses x 2 delays = 4 points, short runs.
SPECS = loss_delay_buffer_specs(
    losses=(0.0, 0.05),
    delays=(0.0, 0.02),
    buffers=(240_000.0,),
    duration=8.0,
)


@pytest.fixture(scope="module")
def serial_artifact() -> str:
    return SerialRunner().run(SPECS).to_json()


class TestRunToRunReplay:
    def test_serial_rerun_is_byte_identical(self, serial_artifact):
        assert SerialRunner().run(SPECS).to_json() == serial_artifact

    def test_rerun_survives_unrelated_simulations_in_between(self, serial_artifact):
        # Polluting the process with other simulations (which bump the
        # element-name counters) must not change a later run's artifact.
        SerialRunner().run([ScenarioSpec("single_link_tcp", params={"duration": 3.0}, seed=9)])
        assert SerialRunner().run(SPECS).to_json() == serial_artifact

    def test_different_seed_changes_stochastic_metrics(self):
        lossy = [spec for spec in SPECS if spec.params["loss_rate"] > 0.0][:1]
        reseeded = [
            ScenarioSpec(spec.scenario, params=spec.params, seed=spec.seed + 1) for spec in lossy
        ]
        base = SerialRunner().run(lossy)
        other = SerialRunner().run(reseeded)
        assert base.metric("packets_sent") != other.metric("packets_sent") or base.metric(
            "goodput_bps"
        ) != other.metric("goodput_bps")


class TestBackendEquivalence:
    def test_parallel_matches_serial(self, serial_artifact):
        assert ParallelRunner(workers=2).run(SPECS).to_json() == serial_artifact

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_worker_count_does_not_matter(self, workers, serial_artifact):
        assert ParallelRunner(workers=workers).run(SPECS).to_json() == serial_artifact

    @pytest.mark.slow
    def test_experiment_sweep_map_matches_across_backends(self):
        # The rich-result path experiments use (runner.map over a top-level
        # function) is backend-invariant too, not just registry metrics.
        from repro.experiments import run_figure3

        kwargs = dict(alphas=(0.9, 5.0), duration=30.0, switch_interval=15.0)
        serial = run_figure3(**kwargs, runner=SerialRunner())
        parallel = run_figure3(**kwargs, runner=ParallelRunner(workers=2))

        def summary(result):
            return [
                (
                    point.alpha,
                    point.packets_sent,
                    point.packets_acked,
                    point.buffer_drops,
                    point.rate_off_bps,
                    list(point.sequence_series.values),
                )
                for point in result.per_alpha
            ]

        assert summary(serial) == summary(parallel)


class TestKillAndResume:
    """A SIGKILLed sweep, resumed, must reproduce the uninterrupted bytes.

    The sweep process is killed mid-grid from inside a worker (the
    ``kill_sweep`` fault — deterministic, no signal-timing races), then the
    same command line plus ``--resume`` replays the journal and finishes
    the grid.  The merged artifact must be byte-identical to a run that
    was never interrupted, on every backend.
    """

    GRID = ["run", "single_link_tcp", "--set", "duration=2", "--seeds", "6"]

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "backend, workers",
        # The third id is the one the "async" spelling of "parallel" had;
        # it runs the process backend one point wide.
        [
            pytest.param("serial", "2", id="serial"),
            pytest.param("parallel", "2", id="parallel"),
            pytest.param("parallel", "1", id="async"),
        ],
    )
    def test_sigkilled_sweep_resumes_byte_identical(
        self, backend, workers, tmp_path, monkeypatch
    ):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        clean_json = tmp_path / "clean.json"
        assert cli_main([*self.GRID, "--json", str(clean_json)]) == 0

        cache_dir = tmp_path / "cache"
        backend_argv = [*self.GRID, "--backend", backend, "--workers", workers]
        killed = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.runner",
                *backend_argv,
                "--cache-dir",
                str(cache_dir),
                "--max-retries",
                "2",
                "--inject-faults",
                "kill_sweep@3",
            ],
            env={
                **os.environ,
                "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
            },
            capture_output=True,
            timeout=120,
        )
        # SIGKILL, not a clean exit: the sweep really died mid-grid.
        assert killed.returncode in (-signal.SIGKILL, 128 + signal.SIGKILL), (
            killed.returncode,
            killed.stderr.decode(errors="replace"),
        )
        journals = list((cache_dir / "journal").glob("*.jsonl"))
        assert len(journals) == 1  # durable state survived the kill

        resumed_json = tmp_path / "resumed.json"
        code = cli_main(
            [
                *backend_argv,
                "--cache-dir",
                str(cache_dir),
                "--resume",
                "--json",
                str(resumed_json),
            ]
        )
        assert code == 0
        assert resumed_json.read_bytes() == clean_json.read_bytes()
