"""Tests for the fairness metrics (Jain's index, convergence time)."""

from __future__ import annotations

import pytest

from repro.metrics import convergence_time, flow_rate_matrix, jain_index


class TestJainIndex:
    def test_equal_shares_are_perfectly_fair(self):
        assert jain_index([5.0, 5.0, 5.0, 5.0]) == pytest.approx(1.0)

    def test_single_flow_is_fair_by_definition(self):
        assert jain_index([3.2e6]) == pytest.approx(1.0)

    def test_empty_allocation(self):
        assert jain_index([]) == 0.0

    def test_all_zero_allocation_is_degenerate_equal(self):
        assert jain_index([0.0, 0.0, 0.0]) == pytest.approx(1.0)

    def test_zero_throughput_flow_drags_the_index_down(self):
        fair = jain_index([1e6, 1e6, 1e6])
        starved = jain_index([1e6, 1e6, 0.0])
        assert starved < fair
        assert starved == pytest.approx(2.0 / 3.0)

    def test_one_flow_takes_everything(self):
        assert jain_index([1e6, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_scale_invariant(self):
        assert jain_index([1.0, 2.0, 3.0]) == pytest.approx(jain_index([10.0, 20.0, 30.0]))


class TestConvergenceTime:
    def test_step_trace_converges_at_the_step(self):
        # Flow b is dead for the first two windows, then the allocation
        # equalizes: convergence is the first window of the fair suffix.
        windows = [0.0, 1.0, 2.0, 3.0, 4.0]
        rates = {
            "a": [2.0, 2.0, 1.0, 1.0, 1.0],
            "b": [0.0, 0.0, 1.0, 1.0, 1.0],
        }
        assert convergence_time(windows, rates, threshold=0.95) == pytest.approx(2.0)

    def test_never_converges(self):
        windows = [0.0, 1.0, 2.0]
        rates = {"a": [2.0, 2.0, 2.0], "b": [0.0, 0.0, 0.0]}
        assert convergence_time(windows, rates, threshold=0.9) is None

    def test_transient_unfairness_resets_convergence(self):
        # Fair, then a late unfair window: only the final window counts.
        windows = [0.0, 1.0, 2.0, 3.0]
        rates = {"a": [1.0, 1.0, 5.0, 1.0], "b": [1.0, 1.0, 0.0, 1.0]}
        assert convergence_time(windows, rates, threshold=0.95) == pytest.approx(3.0)

    def test_fair_from_the_start(self):
        windows = [0.0, 1.0]
        rates = {"a": [1.0, 1.0], "b": [1.0, 1.0]}
        assert convergence_time(windows, rates) == pytest.approx(0.0)

    def test_degenerate_inputs(self):
        assert convergence_time([], {"a": []}) is None
        assert convergence_time([0.0], {}) is None


class TestFlowRateMatrix:
    def test_windows_align_across_flows(self):
        arrivals = {"a": [(0.5, 12_000.0), (1.5, 12_000.0)], "b": [(1.5, 12_000.0)]}
        windows, rates = flow_rate_matrix(arrivals, start=0.0, end=2.0, window=1.0)
        assert windows == [0.0, 1.0]
        assert rates["a"] == [12_000.0, 12_000.0]
        assert rates["b"] == [0.0, 12_000.0]

    def test_out_of_range_deliveries_ignored(self):
        _, rates = flow_rate_matrix({"a": [(5.0, 12_000.0)]}, start=0.0, end=2.0, window=1.0)
        assert rates["a"] == [0.0, 0.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            flow_rate_matrix({}, start=0.0, end=1.0, window=0.0)
        with pytest.raises(ValueError):
            flow_rate_matrix({}, start=1.0, end=1.0, window=0.5)
