"""Integration tests for the experiment runners.

Durations are shortened from the paper's (its Figure 3 runs 300 s with a
100 s on/off half-period; here 120 s and 40 s) but long enough that every
qualitative claim the paper makes about a figure or a §4 scenario holds and
is asserted.
"""

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
        return run_figure1(duration=150.0)

    def test_rtt_starts_near_base_and_inflates(self, result):
        assert result.rtt.min() < 5.0 * result.base_rtt
        assert result.inflation_factor > 10.0
        assert result.max_rtt > 1.0

    def test_loss_is_hidden(self, result):
        assert result.link_layer_retransmissions > 0

    def test_buffer_actually_fills(self, result):
        assert result.peak_buffer_bits > 0.5 * 10.0 * 4_000_000.0
        # Bufferbloat, not starvation: the sender keeps the link busy.
        assert result.throughput_bps > 100_000.0

    def test_rows_render(self, result):
        rows = result.rows(window=30.0)
        assert rows
        text = format_table(rows, title="Figure 1")
        assert "mean_rtt (s)" in text


class TestFigure3:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure3(
            alphas=(0.9, 1.0, 2.5, 5.0),
            duration=120.0,
            switch_interval=40.0,
        )

    def test_one_result_per_alpha(self, result):
        assert [r.alpha for r in result.per_alpha] == [0.9, 1.0, 2.5, 5.0]

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
        # The four things the paper says about the figure.
        assert result.check_claims() == {
            "starts_slowly": True,
            "link_speed_when_cross_off": True,
            "deference_monotone_in_alpha": True,
            "only_alpha_below_one_overflows": True,
        }
        rows = result.rows()
        assert len(rows) == 4
        assert "rate_cross_off (bps)" in rows[0].values
        assert result.series()


class TestSimpleScenarios:
    def test_convergence_scenario(self):
        result = run_convergence_scenario(duration=90.0)
        assert result.converged
        assert result.posterior_true_rate_probability > 0.9
        assert result.early_rate_bps <= result.late_rate_bps + 1e-9
        assert result.inferred_link_rate_bps == pytest.approx(
            result.true_link_rate_bps, rel=0.1
        )
        assert result.rows()

    def test_drain_scenario(self):
        result = run_drain_scenario(duration=60.0)
        assert result.penalized_sender_waits_longer
        assert result.first_send_penalized > result.drain_time * 0.5
        # After draining, the sender still uses the 12 kbit/s link.
        assert result.late_rate_penalized_bps > 0.4 * 12_000.0
        assert len(result.rows()) == 2


class TestLossComparison:
    @pytest.fixture(scope="class")
    def result(self):
        return run_loss_comparison(duration=150.0)

    def test_isender_beats_loss_blind_tcp(self, result):
        assert result.isender_goodput_bps > result.tcp_goodput_bps
        assert result.isender_advantage > 1.5
        # Loss-blind TCP fails to fill the link because random loss keeps
        # timing it out.
        assert result.tcp_utilization < 0.6
        assert result.tcp_timeouts > 0

    def test_isender_achieves_reasonable_utilization(self, result):
        assert result.isender_utilization > 0.4

    def test_rows(self, result):
        rows = result.rows()
        assert {row.label for row in rows} == {"NewReno", "ISender"}


class TestAblation:
    def test_runs_all_configurations(self):
        configs = (
            AblationPoint("full", SenderConfig()),
            AblationPoint("small", SenderConfig(max_hypotheses=50, top_k=8)),
            AblationPoint("exact", SenderConfig(kernel="exact", kernel_scale=0.75)),
            AblationPoint("array", SenderConfig(belief_backend="vectorized")),
        )
        result = run_inference_ablation(configs=configs, duration=50.0)
        full, small, exact, array = result.outcomes
        for outcome in result.outcomes:
            assert outcome.wall_time > 0
            assert outcome.packets_sent > 5
            assert outcome.goodput_bps > 0
            assert outcome.rollouts > 0
        # Either kernel identifies the true link rate at the full cap (the
        # rejection kernel because the prior contains the truth)...
        assert full.posterior_true_link_rate > 0.5
        assert exact.posterior_true_link_rate > 0.5
        # ...and the small cap carries no more hypotheses than the full one.
        assert small.final_hypotheses <= full.final_hypotheses
        # The array belief engine reproduces the scalar sender's inference.
        assert array.posterior_true_link_rate > 0.5
        assert array.packets_sent == full.packets_sent
        assert array.final_hypotheses == full.final_hypotheses
        assert len(result.rows()) == 4
