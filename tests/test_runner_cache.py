"""Cache-semantics suite: hits, misses, invalidation, corruption, races.

Covers the persistent :class:`~repro.runner.cache.ResultCache` (grid-point
reuse keyed on scenario/params/seed/config-fingerprint), the policy-table
disk cache in :mod:`repro.api.policy`, and the CLI surface — including the
failure modes: a corrupted cache file must read as a miss and heal, a
config-semantics change must invalidate without a params change, and
parallel runner processes racing on one cache directory must all produce
correct, bit-identical artifacts.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from pathlib import Path

import pytest

from repro.api.config import SenderConfig
from repro.api.policy import (
    load_or_precompute_policy_table,
    policy_table_cache_path,
)
from repro.inference import single_link_prior
from repro.runner import (
    ParallelRunner,
    ResultCache,
    ScenarioRegistry,
    SerialRunner,
    grid,
    make_runner,
    run_specs,
)
from repro.runner.cli import main as cli_main

#: Cheap built-in grid the suite sweeps (sub-second per point).
SPECS = grid("single_link_tcp", base={"duration": 2.0}, loss_rate=(0.0, 0.05))


def _toy_metrics(seed: int = 0, scale: float = 1.0) -> dict[str, float]:
    return {"scaled": 2.0 * scale, "seed": float(seed)}


#: Module-global the invalidation test flips to simulate a semantics change
#: that scenario params cannot see (e.g. a new SenderConfig default).
_TOY_ALPHA = 1.0


def _toy_config(params) -> SenderConfig:
    return SenderConfig(alpha=_TOY_ALPHA, top_k=params.get("top_k", 16))


def _registry_with_toy() -> ScenarioRegistry:
    registry = ScenarioRegistry()
    registry.register("toy", config_factory=_toy_config)(_toy_metrics)
    return registry


def _run_grid_with_cache(cache_dir: str):
    """Top-level so the racing-workers test can pickle it into a pool."""
    return run_specs(SPECS, cache_dir=cache_dir).to_json()


def _poisoned_scenario(seed: int = 0, idx: int = 0, out_dir: str = "") -> dict[str, float]:
    """Point 0 fails at once; its siblings take long enough to be stopped."""
    if idx == 0:
        raise ValueError("poisoned point")
    time.sleep(0.2)
    Path(out_dir, f"ran_{idx}").write_text("x")
    return {"idx": float(idx)}


def _late_failure(seed: int = 0, idx: int = 0) -> dict[str, float]:
    """Point 3 fails, late enough that its siblings have all completed."""
    if idx == 3:
        time.sleep(0.5)
        raise ValueError("late failure")
    return {"idx": float(idx)}


class TestPointKeys:
    def test_key_covers_spec_identity_and_config_fingerprint(self, tmp_path):
        global _TOY_ALPHA
        registry = _registry_with_toy()
        cache = ResultCache(tmp_path)
        specs = grid("toy", seeds=(0, 1), scale=(1.0, 2.0))
        keys = {cache.point_key(spec, registry=registry) for spec in specs}
        assert len(keys) == 4  # every (params, seed) combination is distinct

        base = cache.point_key(specs[0], registry=registry)
        assert cache.point_key(specs[0], registry=registry) == base  # stable
        _TOY_ALPHA = 2.0
        try:
            assert cache.point_key(specs[0], registry=registry) != base
        finally:
            _TOY_ALPHA = 1.0

    def test_key_covers_registration_defaults(self, tmp_path):
        """Same scenario name, different registered defaults → distinct keys."""
        cache = ResultCache(tmp_path)
        slow = ScenarioRegistry()
        slow.register("toy", scale=2.0)(_toy_metrics)
        fast = ScenarioRegistry()
        fast.register("toy", scale=5.0)(_toy_metrics)
        spec = grid("toy")[0]
        assert cache.point_key(spec, registry=slow) != cache.point_key(
            spec, registry=fast
        )

    def test_explicit_default_spelling_is_a_distinct_point(self, tmp_path):
        """Spelling out a signature default is a *different* point.

        derived_seed hashes the raw spec params, so ``{}`` and
        ``{"scale": 1.0}`` execute with different seeds — the key must
        separate them or the two spellings would evict and mis-replay each
        other.
        """
        cache = ResultCache(tmp_path)
        registry = _registry_with_toy()
        implicit = grid("toy")[0]
        explicit = grid("toy", scale=(1.0,))[0]  # the signature default
        assert implicit.derived_seed != explicit.derived_seed
        assert cache.point_key(implicit, registry=registry) != cache.point_key(
            explicit, registry=registry
        )

    def test_changed_signature_default_invalidates(self, tmp_path):
        """A drifted signature default changes the key for an implicit spec."""
        import dataclasses

        cache = ResultCache(tmp_path)
        registry = _registry_with_toy()
        spec = grid("toy")[0]
        before = cache.point_key(spec, registry=registry)
        entry = registry.get("toy")
        registry._entries["toy"] = dataclasses.replace(
            entry, signature_defaults={**entry.signature_defaults, "scale": 7.0}
        )
        assert cache.point_key(spec, registry=registry) != before

    def test_builtin_scenarios_with_config_factories_key_on_fingerprint(self):
        from repro.runner import DEFAULT_REGISTRY

        entry = DEFAULT_REGISTRY.get("figure3_alpha")
        scalar = entry.config_fingerprint({"alpha": 1.0})
        vectorized = entry.config_fingerprint(
            {"alpha": 1.0, "belief_backend": "vectorized"}
        )
        assert scalar and vectorized and scalar != vectorized
        # Scenarios without a sender configuration key on params alone.
        assert DEFAULT_REGISTRY.get("single_link_tcp").config_fingerprint({}) == ""

    @pytest.mark.parametrize(
        "spelling, seed, key",
        [
            (
                "vectorized",
                11728284429522680332,
                "e21cbd20abc53e4451ce81db0553d6dd61187d67f47629a359c0337223810f1d",
            ),
            (
                "fused",
                12846994611997870398,
                "b0ee6903f55919a0e0a79b4892d67df220c23fabdaf26bf6c093edb5da6aace0",
            ),
        ],
    )
    def test_engine_spelling_keeps_its_point_identity(self, tmp_path, spelling, seed, key):
        """Both spellings run one array engine, yet each names its own point.

        Pinned from the commit before the engines were folded together: a
        cache written then, under either spelling, must still be all hits.
        """
        spec = grid(
            "figure3_alpha",
            alpha=(1.0,),
            belief_backend=(spelling,),
            rollout_backend=(spelling,),
        )[0]
        assert spec.derived_seed == seed
        assert ResultCache(tmp_path).point_key(spec) == key


class TestHitMissInvalidation:
    def test_cold_miss_warm_hit_bit_identical(self, tmp_path):
        cold = SerialRunner(cache=ResultCache(tmp_path)).run(SPECS)
        assert (cold.cache_hits, cold.cache_misses) == (0, len(SPECS))

        warm_cache = ResultCache(tmp_path)
        warm = SerialRunner(cache=warm_cache).run(SPECS)
        assert (warm.cache_hits, warm.cache_misses) == (len(SPECS), 0)
        assert warm_cache.corrupt == 0
        assert warm.to_json() == cold.to_json()
        # Even the timing view replays (original wall times are stored).
        assert warm.to_json(include_timing=True) == cold.to_json(include_timing=True)
        # Metric *insertion order* replays too: CSV columns and printed
        # tables must come back identical, not alphabetized by the cache.
        assert [list(r.metrics) for r in warm] == [list(r.metrics) for r in cold]
        cold_path = tmp_path / "cold.csv"
        warm_path = tmp_path / "warm.csv"
        cold.to_csv(cold_path)
        warm.to_csv(warm_path)
        assert warm_path.read_bytes() == cold_path.read_bytes()

    def test_partial_warm_run_executes_only_new_points(self, tmp_path):
        SerialRunner(cache=ResultCache(tmp_path)).run(SPECS)
        widened = grid(
            "single_link_tcp", base={"duration": 2.0}, loss_rate=(0.0, 0.05, 0.1)
        )
        store = SerialRunner(cache=ResultCache(tmp_path)).run(widened)
        assert (store.cache_hits, store.cache_misses) == (2, 1)

    def test_config_semantics_change_invalidates_without_param_change(self, tmp_path):
        global _TOY_ALPHA
        registry = _registry_with_toy()
        specs = grid("toy", scale=(1.0,))
        first = SerialRunner(registry=registry, cache=ResultCache(tmp_path)).run(specs)
        assert first.cache_misses == 1
        try:
            _TOY_ALPHA = 3.0  # the simulated code change
            second = SerialRunner(registry=registry, cache=ResultCache(tmp_path)).run(
                specs
            )
        finally:
            _TOY_ALPHA = 1.0
        assert (second.cache_hits, second.cache_misses) == (0, 1)

    def test_runs_without_cache_never_touch_disk(self, tmp_path):
        SerialRunner().run(SPECS[:1])
        assert list(tmp_path.iterdir()) == []


class TestCorruptionRecovery:
    def _cached_files(self, root: Path) -> list[Path]:
        return sorted((root / "results").rglob("*.json"))

    def test_corrupt_file_reads_as_miss_and_heals(self, tmp_path):
        cold = SerialRunner(cache=ResultCache(tmp_path)).run(SPECS)
        victim = self._cached_files(tmp_path)[0]
        victim.write_text("{ not json", encoding="utf-8")

        cache = ResultCache(tmp_path)
        healed = SerialRunner(cache=cache).run(SPECS)
        assert (healed.cache_hits, healed.cache_misses) == (1, 1)
        assert cache.corrupt == 1
        assert healed.to_json() == cold.to_json()

        rewarmed = SerialRunner(cache=ResultCache(tmp_path)).run(SPECS)
        assert (rewarmed.cache_hits, rewarmed.cache_misses) == (2, 0)

    def test_schema_or_spec_mismatch_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        SerialRunner(cache=cache).run(SPECS[:1])
        victim = self._cached_files(tmp_path)[0]

        payload = json.loads(victim.read_text())
        payload["schema"] = 999
        victim.write_text(json.dumps(payload), encoding="utf-8")
        assert cache.load_point(cache.point_key(SPECS[0]), SPECS[0]) is None

        payload["schema"] = 1
        payload["spec"] = "something else entirely"
        victim.write_text(json.dumps(payload), encoding="utf-8")
        assert cache.load_point(cache.point_key(SPECS[0]), SPECS[0]) is None

    @pytest.mark.parametrize("field, value", [("wall_time", "soon"), ("wall_time", None), ("metrics", [1])])
    def test_mistyped_stored_field_reads_as_miss_not_crash(self, tmp_path, field, value):
        cold = SerialRunner(cache=ResultCache(tmp_path)).run(SPECS[:1])
        victim = self._cached_files(tmp_path)[0]
        payload = json.loads(victim.read_text())
        payload[field] = value
        victim.write_text(json.dumps(payload), encoding="utf-8")

        healed = SerialRunner(cache=ResultCache(tmp_path)).run(SPECS[:1])
        assert (healed.cache_hits, healed.cache_misses, healed.cache_corrupt) == (0, 1, 1)
        assert healed.to_json() == cold.to_json()
        assert len(list((tmp_path / "quarantine").iterdir())) == 1


class TestRacingWorkers:
    def test_concurrent_processes_share_one_cache_dir(self, tmp_path):
        """Two whole runner processes race the same grid into one cache.

        Writes are atomic (temp file + rename), so both must finish with
        correct, identical artifacts regardless of interleaving, and the
        directory must be left fully warmed.
        """
        cache_dir = str(tmp_path)
        with multiprocessing.get_context().Pool(2) as pool:
            artifacts = pool.map(_run_grid_with_cache, [cache_dir, cache_dir])
        assert artifacts[0] == artifacts[1]

        warm = SerialRunner(cache=ResultCache(cache_dir)).run(SPECS)
        assert (warm.cache_hits, warm.cache_misses) == (len(SPECS), 0)
        assert warm.to_json() == artifacts[0]
        # No temp-file debris from the race.
        assert not list(Path(cache_dir).rglob("*.tmp.*"))


class TestAsyncRunnerCache:
    """The process backend against the cache (the class keeps the name of
    the ``"async"`` spelling ``"parallel"`` once had)."""

    def test_async_backend_replays_and_populates(self, tmp_path):
        cold = make_runner("parallel", workers=2, cache_dir=tmp_path).run(SPECS)
        assert cold.cache_misses == len(SPECS)
        warm = make_runner("parallel", workers=2, cache_dir=tmp_path).run(SPECS)
        assert (warm.cache_hits, warm.cache_misses) == (len(SPECS), 0)
        assert warm.to_json() == cold.to_json()

    def test_async_matches_serial_without_cache(self):
        assert type(make_runner("parallel")) is ParallelRunner
        serial = SerialRunner().run(SPECS)
        assert make_runner("parallel", workers=2).run(SPECS).to_json() == serial.to_json()

    def test_poisoned_point_propagates_and_cancels_queued_siblings(self, tmp_path):
        """The plain policy's failure contract on the process backend.

        The first failing point must surface its *own* exception type
        across the pipe, and stop the sweep: queued siblings never start
        and the one in flight beside it is killed.  The sibling points
        write sentinel files when they complete.
        """
        registry = ScenarioRegistry()
        registry.register("poisoned")(_poisoned_scenario)
        specs = grid(
            "poisoned", base={"out_dir": str(tmp_path)}, idx=tuple(range(8))
        )
        runner = ParallelRunner(workers=2, registry=registry)
        with pytest.raises(ValueError, match="poisoned point") as failure:
            runner.run(specs)
        assert "_poisoned_scenario" in str(failure.value.__cause__)  # remote traceback
        assert len(list(tmp_path.glob("ran_*"))) <= 1
        with pytest.raises(ValueError, match="poisoned point"):
            SerialRunner(registry=registry).run(specs)

    def test_scenario_configuration_error_is_cli_exit_2_on_parallel(self, capsys):
        argv = ["run", "inference_ablation_point", "--set", "duration=4",
                "--set", "rollout_backend=quantum", "--backend", "parallel", "--workers", "2"]
        assert cli_main(argv) == 2
        assert "unknown rollout backend 'quantum'" in capsys.readouterr().err


class TestCompletedPointsSurviveFailure:
    @pytest.mark.parametrize(
        "make", [SerialRunner, lambda **kw: ParallelRunner(workers=2, **kw)],
        ids=["SerialRunner", "ParallelRunner"],
    )
    def test_failing_point_keeps_its_completed_siblings_cached(self, make, tmp_path):
        """Each point is stored when it completes, not when the sweep does."""
        registry = ScenarioRegistry()
        registry.register("late_failure")(_late_failure)
        specs = grid("late_failure", idx=(0, 1, 2, 3))
        with pytest.raises(ValueError, match="late failure"):
            make(registry=registry, cache=ResultCache(tmp_path)).run(specs)
        assert len(list((tmp_path / "results").rglob("*.json"))) == 3
        with pytest.raises(ValueError, match="late failure"):
            make(registry=registry, cache=(rerun := ResultCache(tmp_path))).run(specs)
        assert (rerun.hits, rerun.misses) == (3, 1)


class TestPolicyTableCache:
    PRIOR_KWARGS = dict(link_rate_points=2, fill_points=1)
    SWEEP_KWARGS = dict(pilot_duration=5.0, burst_levels=(0, 2))

    def _config(self, **overrides) -> SenderConfig:
        kwargs = dict(
            prior=single_link_prior(**self.PRIOR_KWARGS),
            policy="table",
            top_k=4,
            max_hypotheses=32,
        )
        kwargs.update(overrides)
        return SenderConfig(**kwargs)

    def test_first_computes_second_loads(self, tmp_path):
        config = self._config()
        first = load_or_precompute_policy_table(
            config, cache_dir=tmp_path, **self.SWEEP_KWARGS
        )
        second = load_or_precompute_policy_table(
            config, cache_dir=tmp_path, **self.SWEEP_KWARGS
        )
        assert first.loaded_from_cache is False
        assert second.loaded_from_cache is True
        assert second.to_payload() == first.to_payload()

    def test_config_and_sweep_changes_miss(self, tmp_path):
        config = self._config()
        load_or_precompute_policy_table(config, cache_dir=tmp_path, **self.SWEEP_KWARGS)
        other_config = load_or_precompute_policy_table(
            self._config(alpha=2.0), cache_dir=tmp_path, **self.SWEEP_KWARGS
        )
        assert other_config.loaded_from_cache is False
        other_sweep = load_or_precompute_policy_table(
            config, cache_dir=tmp_path, pilot_duration=6.0, burst_levels=(0, 2)
        )
        assert other_sweep.loaded_from_cache is False

    def test_omitted_and_explicit_sweep_defaults_share_one_artifact(self, tmp_path):
        config = self._config()
        implicit = policy_table_cache_path(tmp_path, config, {})
        explicit = policy_table_cache_path(tmp_path, config, {"pilot_duration": 30.0})
        assert implicit == explicit  # 30.0 is the precompute default
        changed = policy_table_cache_path(tmp_path, config, {"pilot_duration": 31.0})
        assert changed != implicit

    def test_ablation_outcome_is_independent_of_cache_state(
        self, tmp_path, monkeypatch
    ):
        """Cold (precomputing) and warm (loading) runs report one outcome.

        A freshly precomputed table carries pilot-run counter traffic that
        a cache-loaded one lacks; run_ablation_point must neutralize that
        so a point's metrics are a pure function of its config and seed.
        """
        from repro.experiments.ablation import run_ablation_point

        kwargs = dict(duration=6.0, seed=3)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cold = run_ablation_point("t", SenderConfig(policy="table"), **kwargs)
        warm = run_ablation_point("t", SenderConfig(policy="table"), **kwargs)
        monkeypatch.delenv("REPRO_CACHE_DIR")
        uncached = run_ablation_point("t", SenderConfig(policy="table"), **kwargs)
        for outcome in (warm, uncached):
            assert (outcome.policy_hits, outcome.policy_misses) == (
                cold.policy_hits,
                cold.policy_misses,
            )
            assert outcome.packets_sent == cold.packets_sent
            assert outcome.goodput_bps == cold.goodput_bps

    def test_programmatic_cache_dir_shares_tables_too(self, tmp_path, monkeypatch):
        """run_specs(cache_dir=...) shares policy tables like the CLI does.

        The runner exports $REPRO_CACHE_DIR for the duration of a cached
        run, so a table-mode seed fan launched programmatically still
        precomputes one table, and the caller's environment is untouched
        afterwards.
        """
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        specs = grid(
            "inference_ablation_point",
            seeds=(0, 1),
            base={"duration": 4.0, "policy": "table"},
        )
        store = run_specs(specs, cache_dir=tmp_path)
        assert len(store) == 2
        assert len(list((tmp_path / "policy").glob("*.json"))) == 1
        assert "REPRO_CACHE_DIR" not in os.environ

    def test_corrupt_table_recomputed_in_place(self, tmp_path):
        config = self._config()
        load_or_precompute_policy_table(config, cache_dir=tmp_path, **self.SWEEP_KWARGS)
        path = policy_table_cache_path(
            tmp_path, config, dict(self.SWEEP_KWARGS)
        )
        assert path.exists()
        path.write_text("garbage", encoding="utf-8")
        healed = load_or_precompute_policy_table(
            config, cache_dir=tmp_path, **self.SWEEP_KWARGS
        )
        assert healed.loaded_from_cache is False
        reloaded = load_or_precompute_policy_table(
            config, cache_dir=tmp_path, **self.SWEEP_KWARGS
        )
        assert reloaded.loaded_from_cache is True

    def test_fingerprint_mismatch_inside_file_recomputed(self, tmp_path):
        config = self._config()
        load_or_precompute_policy_table(config, cache_dir=tmp_path, **self.SWEEP_KWARGS)
        path = policy_table_cache_path(tmp_path, config, dict(self.SWEEP_KWARGS))
        payload = json.loads(path.read_text())
        payload["fingerprint"] = "0123456789abcdef"
        path.write_text(json.dumps(payload), encoding="utf-8")
        table = load_or_precompute_policy_table(
            config, cache_dir=tmp_path, **self.SWEEP_KWARGS
        )
        assert table.loaded_from_cache is False

    def test_build_sender_shares_tables_via_cache_env(self, tmp_path, monkeypatch):
        from repro.api.sender import build_components

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        config = self._config()
        first = build_components(config)
        second = build_components(config)
        assert first.policy.loaded_from_cache is False
        assert second.policy.loaded_from_cache is True
        assert (tmp_path / "policy").exists()


class TestCliCacheFlags:
    def test_cache_dir_flag_reports_hits_and_restores_env(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/somewhere/else")
        argv = [
            "run",
            "single_link_tcp",
            "--set",
            "duration=2",
            "--sweep",
            "loss_rate=0.0,0.05",
            "--cache-dir",
            str(tmp_path),
        ]
        assert cli_main(argv) == 0
        assert "cache: 0 hit(s), 2 miss(es)" in capsys.readouterr().out
        # The export lives only while workers run; the caller's value wins
        # afterwards, so repeated in-process invocations don't leak.
        assert os.environ["REPRO_CACHE_DIR"] == "/somewhere/else"
        assert cli_main(argv) == 0
        assert "cache: 2 hit(s), 0 miss(es)" in capsys.readouterr().out

    def test_no_cache_flag_forces_execution(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        argv = [
            "run",
            "single_link_tcp",
            "--set",
            "duration=2",
            "--no-cache",
        ]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "cache:" not in out
        # Genuinely cache-free: no result files, and no policy-table reuse
        # either (the env var is cleared during the run, restored after).
        assert not any(tmp_path.iterdir())
        assert os.environ["REPRO_CACHE_DIR"] == str(tmp_path)

    def test_no_cache_with_cache_dir_is_rejected(self, tmp_path, capsys):
        argv = [
            "run",
            "single_link_tcp",
            "--set",
            "duration=2",
            "--cache-dir",
            str(tmp_path),
            "--no-cache",
        ]
        assert cli_main(argv) == 2
        assert "contradictory" in capsys.readouterr().err

    def test_env_var_enables_cache_without_flag(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        argv = ["run", "single_link_tcp", "--set", "duration=2"]
        assert cli_main(argv) == 0
        assert "cache: 0 hit(s), 1 miss(es)" in capsys.readouterr().out
        assert (tmp_path / "results").exists()
