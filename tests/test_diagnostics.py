"""Tests for :mod:`repro.diagnostics`: scorer, fingerprinter, triage, sweep bisect.

The tentpole assertions live in ``TestStageLocalization``: a deliberately
perturbed array-engine kernel stage (via ``inject_stage_perturbation``) must
be bisected to exactly that stage, and the stage must be named by the
top-ranked cause — for every injectable stage, from one seed, through both
the API and the ``python -m repro.diagnostics`` CLI.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.diagnostics import (
    CAUSE_BACKEND_DRIFT,
    CAUSE_CACHE_STALENESS,
    CAUSE_SIGNATURE_COLLISION,
    BayesianScorer,
    CauseHypothesis,
    Evidence,
    INJECTABLE_STAGES,
    backend_config,
    bisect_cached_sweep,
    compare_traces,
    diagnose_divergence,
    inject_stage_perturbation,
    replay_trace,
    scan_signature_collisions,
    seeded_events,
    triage,
)
from repro.diagnostics.__main__ import main as diagnostics_main
from repro.runner import ResultCache, grid
from repro.runner.results import PointResult

REPO_ROOT = Path(__file__).resolve().parent.parent

SCALAR = backend_config("scalar", "scalar")
VECTORIZED = backend_config("vectorized", "vectorized")


# ----------------------------------------------------------------- evidence


class TestBayesianScorer:
    def test_no_evidence_returns_prior(self):
        assert BayesianScorer.compute_posterior(0.3, [], []) == pytest.approx(0.3)

    def test_support_raises_and_refute_lowers(self):
        supported = BayesianScorer.compute_posterior(
            0.3, [Evidence("e", "s", 0.8)], []
        )
        refuted = BayesianScorer.compute_posterior(0.3, [], [Evidence("e", "s", 0.8)])
        assert supported > 0.3 > refuted

    def test_half_confidence_is_uninformative(self):
        posterior = BayesianScorer.compute_posterior(
            0.4, [Evidence("e", "s", 0.5)], [Evidence("f", "s", 0.5)]
        )
        assert posterior == pytest.approx(0.4)

    def test_posterior_is_clamped_away_from_certainty(self):
        strong = [Evidence(str(i), "s", 0.99) for i in range(20)]
        assert BayesianScorer.compute_posterior(0.5, strong, []) <= 0.99
        assert BayesianScorer.compute_posterior(0.5, [], strong) >= 0.01

    def test_confidence_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match="confidence"):
            Evidence("e", "s", 1.0)
        with pytest.raises(ValueError, match="confidence"):
            Evidence("e", "s", 0.0)

    def test_score_ranks_descending_and_fills_posteriors(self):
        likely = CauseHypothesis("likely", "", prior=0.2)
        likely.support("seen", "test", 0.9)
        unlikely = CauseHypothesis("unlikely", "", prior=0.2)
        unlikely.refute("unseen", "test", 0.9)
        ranked = BayesianScorer().score([unlikely, likely])
        assert [cause.name for cause in ranked] == ["likely", "unlikely"]
        assert ranked[0].posterior > ranked[0].prior > ranked[1].posterior


# -------------------------------------------------------------- divergence


class TestDifferentialReplay:
    def test_backends_match_without_perturbation(self):
        report = diagnose_divergence(SCALAR, VECTORIZED, seed=0)
        assert not report.diverged
        assert report.divergence is None
        assert report.top_cause.name == (
            "no backend divergence (environment noise elsewhere)"
        )
        assert "agree at every" in report.render()

    def test_replay_is_deterministic(self):
        events = seeded_events(7)
        first = replay_trace(VECTORIZED, events)
        second = replay_trace(VECTORIZED, events)
        assert compare_traces(first, second) is None

    def test_seeded_events_cover_all_event_kinds(self):
        kinds = {kind for seed in range(10) for kind, _ in seeded_events(seed)}
        assert kinds == {"send", "update", "decide"}

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError, match="injectable"):
            with inject_stage_perturbation("normalize"):
                pass


class TestStageLocalization:
    """The acceptance criterion: a known fault is named by the top cause."""

    @pytest.mark.parametrize("stage", INJECTABLE_STAGES)
    def test_perturbed_stage_is_top_ranked_cause(self, stage):
        with inject_stage_perturbation(stage):
            report = diagnose_divergence(SCALAR, VECTORIZED, seed=0)
        assert report.diverged
        assert report.divergence.stage == stage
        assert f"'{stage}'" in report.top_cause.name
        assert not report.order_sensitive
        # Kernel stages surface during updates, rollout during decides.
        expected_kind = "decide" if stage == "rollout" else "update"
        assert report.divergence.event_kind == expected_kind
        assert f"'{stage}'" in report.render()

    def test_perturbation_is_fully_restored_on_exit(self):
        with inject_stage_perturbation("score"):
            assert diagnose_divergence(SCALAR, VECTORIZED, seed=0).diverged
        assert not diagnose_divergence(SCALAR, VECTORIZED, seed=0).diverged

    def test_divergence_localizes_rows(self):
        with inject_stage_perturbation("score"):
            report = diagnose_divergence(SCALAR, VECTORIZED, seed=0)
        # Every row's likelihood was shifted, so every finite row differs.
        assert report.divergence.rows
        assert report.divergence.path.startswith(".log_likelihoods")


# ------------------------------------------------------------------- triage


class TestTriage:
    def test_no_evidence_returns_priors(self):
        report = triage()
        assert {cause.name for cause in report.causes} == {
            CAUSE_BACKEND_DRIFT,
            CAUSE_SIGNATURE_COLLISION,
            CAUSE_CACHE_STALENESS,
        }
        for cause in report.causes:
            assert cause.posterior == pytest.approx(cause.prior)

    def test_wrong_schema_cache_entries_implicate_staleness(self, tmp_path):
        slot = tmp_path / "results" / "ab"
        slot.mkdir(parents=True)
        (slot / "abcd.json").write_text('{"schema": 999}')
        (slot / "abce.json").write_text("{ not json")
        report = triage(cache_dir=tmp_path)
        assert report.top_cause.name == CAUSE_CACHE_STALENESS

    def test_invalid_cache_counters_implicate_staleness(self):
        report = triage(cache_counters={"hits": 5, "misses": 1, "corrupt": 3})
        assert report.top_cause.name == CAUSE_CACHE_STALENESS
        clean = triage(cache_counters={"hits": 5, "misses": 1, "corrupt": 0})
        staleness = next(
            cause for cause in clean.causes if cause.name == CAUSE_CACHE_STALENESS
        )
        assert staleness.posterior < staleness.prior

    def test_matching_differential_replays_refute_drift(self):
        report = triage(fuzz_seeds=range(2))
        drift = next(
            cause for cause in report.causes if cause.name == CAUSE_BACKEND_DRIFT
        )
        assert drift.posterior < drift.prior
        assert report.divergence is None

    def test_injected_drift_dominates_the_ranking(self):
        with inject_stage_perturbation("score"):
            report = triage(fuzz_seeds=range(2))
        assert report.top_cause.name == CAUSE_BACKEND_DRIFT
        assert report.divergence is not None and report.divergence.diverged
        assert "'score'" in report.render()


class TestSignatureCollisionScan:
    def test_coarse_resolution_aliases_distinct_decisions(self):
        # At a deliberately absurd backlog resolution, seeded replays are
        # known to alias belief states that decide differently.
        found = scan_signature_collisions(
            VECTORIZED, range(8), queue_resolution_bits=1e9
        )
        assert found
        first = found[0]
        assert first["delays"][0] != first["delays"][1]

    def test_default_resolution_is_collision_free_on_fuzz_seeds(self):
        assert scan_signature_collisions(VECTORIZED, range(4)) == []

    def test_collisions_feed_the_triage_ranking(self):
        report = triage(
            collision_seeds=range(8),
            collision_config=VECTORIZED,
            collision_resolution_bits=1e9,
        )
        assert report.top_cause.name == CAUSE_SIGNATURE_COLLISION


# ------------------------------------------------------------- sweep bisect


class TestSweepBisect:
    def test_misses_localize_to_the_changed_axis(self, tmp_path):
        specs = grid(
            "single_link_tcp",
            seeds=(0, 1),
            base={"duration": 2.0},
            loss_rate=(0.0, 0.05),
        )
        cache = ResultCache(tmp_path)
        for spec in specs:
            if spec.params["loss_rate"] == 0.0:
                cache.store_point(
                    cache.point_key(spec),
                    PointResult(spec=spec, metrics={"x": 1.0}, wall_time=0.1),
                )
        bisection = bisect_cached_sweep(ResultCache(tmp_path), specs)
        assert len(bisection.hits) == 2
        assert len(bisection.misses) == 2
        assert bisection.localized
        assert bisection.suspect_axes == {"loss_rate": [0.05]}
        assert "loss_rate" in bisection.render()

    def test_full_hit_and_full_miss_sweeps(self, tmp_path):
        specs = grid("single_link_tcp", base={"duration": 2.0}, loss_rate=(0.0, 0.05))
        cold = bisect_cached_sweep(ResultCache(tmp_path), specs)
        assert not cold.hits and len(cold.misses) == 2
        assert not cold.localized
        assert "global identity change" in cold.render()
        cache = ResultCache(tmp_path)
        for spec in specs:
            cache.store_point(
                cache.point_key(spec),
                PointResult(spec=spec, metrics={"x": 1.0}, wall_time=0.1),
            )
        warm = bisect_cached_sweep(ResultCache(tmp_path), specs)
        assert not warm.misses and len(warm.hits) == 2
        assert "no region changed" in warm.render()


# ---------------------------------------------------------------------- CLI


class TestDiagnosticsCli:
    def test_module_entry_names_perturbed_stage(self):
        """Acceptance: the CLI self-test localizes an injected fault."""
        env_path = str(REPO_ROOT / "src")
        result = subprocess.run(
            [sys.executable, "-m", "repro.diagnostics", "divergence", "--perturb", "score"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={"PYTHONPATH": env_path, "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 1, result.stdout + result.stderr
        top_line = next(
            line for line in result.stdout.splitlines() if line.strip().startswith("1.")
        )
        assert "'score'" in top_line

    def test_divergence_clean_run_exits_zero(self, capsys):
        assert diagnostics_main(["divergence", "--seed", "1"]) == 0
        assert "agree at every" in capsys.readouterr().out

    def test_triage_cli_over_committed_records(self, capsys):
        """``triage --fuzz 1`` ranks the three causes; it reads no bench record."""
        assert diagnostics_main(["triage", "--fuzz", "1"]) == 0
        out = capsys.readouterr().out
        assert "ranked causes" in out
        ranks = [line for line in out.splitlines() if "(prior " in line]
        assert len(ranks) == 3

    def test_bench_subcommand_and_record_arguments_are_gone(self):
        for argv in (["bench-history", "x.json"], ["triage", "x.json"]):
            with pytest.raises(SystemExit) as raised:
                diagnostics_main(argv)
            assert raised.value.code == 2
