"""Integration tests for the experiment runners (shortened durations)."""

from __future__ import annotations

import pytest

from repro.api import SenderConfig
from repro.experiments import (
    run_convergence_scenario,
    run_drain_scenario,
    run_figure1,
    run_figure3,
    run_inference_ablation,
    run_loss_comparison,
)
from repro.experiments.ablation import AblationPoint
from repro.metrics.summary import format_table


class TestFigure1:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure1(duration=90.0)

    def test_rtt_starts_near_base_and_inflates(self, result):
        assert result.rtt.min() < 5.0 * result.base_rtt
        assert result.inflation_factor > 10.0
        assert result.max_rtt > 1.0

    def test_loss_is_hidden(self, result):
        assert result.link_layer_retransmissions > 0

    def test_buffer_actually_fills(self, result):
        assert result.peak_buffer_bits > 0.5 * 10.0 * 4_000_000.0

    def test_rows_render(self, result):
        rows = result.rows(window=30.0)
        assert rows
        text = format_table(rows, title="Figure 1")
        assert "mean_rtt (s)" in text


class TestFigure3:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure3(
            alphas=(0.9, 1.0, 5.0),
            duration=90.0,
            switch_interval=30.0,
        )

    def test_one_result_per_alpha(self, result):
        assert [r.alpha for r in result.per_alpha] == [0.9, 1.0, 5.0]

    def test_sequence_series_are_monotone(self, result):
        for per_alpha in result.per_alpha:
            values = list(per_alpha.sequence_series.values)
            assert values == sorted(values)

    def test_only_aggressive_sender_overflows(self, result):
        by_alpha = {r.alpha: r for r in result.per_alpha}
        assert by_alpha[0.9].buffer_drops > by_alpha[5.0].buffer_drops

    def test_deference_orders_extreme_alphas(self, result):
        by_alpha = {r.alpha: r for r in result.per_alpha}
        assert by_alpha[0.9].packets_sent > by_alpha[5.0].packets_sent

    def test_claims_and_rows(self, result):
        claims = result.check_claims()
        assert claims["starts_slowly"]
        assert claims["only_alpha_below_one_overflows"]
        rows = result.rows()
        assert len(rows) == 3
        assert "rate_cross_off (bps)" in rows[0].values
        assert result.series()


class TestSimpleScenarios:
    def test_convergence_scenario(self):
        result = run_convergence_scenario(duration=60.0)
        assert result.converged
        assert result.posterior_true_rate_probability > 0.5
        assert result.early_rate_bps <= result.late_rate_bps + 1e-9
        assert result.rows()

    def test_drain_scenario(self):
        result = run_drain_scenario(duration=40.0)
        assert result.penalized_sender_waits_longer
        assert result.first_send_penalized > result.drain_time * 0.5
        assert result.late_rate_penalized_bps > 0
        assert len(result.rows()) == 2


class TestLossComparison:
    @pytest.fixture(scope="class")
    def result(self):
        return run_loss_comparison(duration=90.0)

    def test_isender_beats_loss_blind_tcp(self, result):
        assert result.isender_goodput_bps > result.tcp_goodput_bps
        assert result.isender_advantage > 1.5

    def test_isender_achieves_reasonable_utilization(self, result):
        assert result.isender_utilization > 0.4

    def test_rows(self, result):
        rows = result.rows()
        assert {row.label for row in rows} == {"NewReno", "ISender"}


class TestAblation:
    def test_runs_all_configurations(self):
        configs = (
            AblationPoint("small", SenderConfig(max_hypotheses=60, top_k=8)),
            AblationPoint("exact", SenderConfig(kernel="exact", kernel_scale=0.75)),
        )
        result = run_inference_ablation(configs=configs, duration=30.0)
        assert len(result.outcomes) == 2
        for outcome in result.outcomes:
            assert outcome.wall_time > 0
            assert outcome.packets_sent > 0
            assert outcome.rollouts > 0
        assert len(result.rows()) == 2
