"""Tests for parameter grids, priors, observations, and likelihood kernels."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.inference import (
    AckObservation,
    ExactMatchKernel,
    GaussianKernel,
    ParameterGrid,
    ParameterSpec,
    figure3_prior,
    single_link_prior,
    uniform_grid,
)
from repro.inference.prior import Prior


class TestUniformGrid:
    def test_inclusive_endpoints(self):
        assert uniform_grid(0.0, 10.0, 3) == (0.0, 5.0, 10.0)

    def test_single_point(self):
        assert uniform_grid(2.0, 8.0, 1) == (2.0,)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            uniform_grid(0.0, 1.0, 0)
        with pytest.raises(ConfigurationError):
            uniform_grid(5.0, 1.0, 3)

    @given(
        low=st.floats(min_value=-100, max_value=100),
        span=st.floats(min_value=0.0, max_value=100),
        count=st.integers(min_value=1, max_value=20),
    )
    def test_property_count_and_bounds(self, low, span, count):
        values = uniform_grid(low, low + span, count)
        assert len(values) == count
        assert values[0] == pytest.approx(low)
        if count > 1:
            assert values[-1] == pytest.approx(low + span)
        assert list(values) == sorted(values)


class TestParameterSpec:
    def test_uniform_weights_sum_to_one(self):
        spec = ParameterSpec("x", (1.0, 2.0, 3.0, 4.0))
        assert sum(spec.normalized_weights()) == pytest.approx(1.0)
        assert spec.size == 4

    def test_explicit_weights_normalized(self):
        spec = ParameterSpec("x", (1.0, 2.0), weights=(3.0, 1.0))
        assert spec.normalized_weights() == pytest.approx((0.75, 0.25))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ParameterSpec("x", ())
        with pytest.raises(ConfigurationError):
            ParameterSpec("x", (1.0,), weights=(1.0, 2.0))
        with pytest.raises(ConfigurationError):
            ParameterSpec("x", (1.0, 2.0), weights=(-1.0, 2.0))
        with pytest.raises(ConfigurationError):
            ParameterSpec("x", (1.0, 2.0), weights=(0.0, 0.0))


def grid_of(values):
    specs = tuple(ParameterSpec(name, tuple(vals)) for name, vals in values.items())
    return ParameterGrid(specs=specs)


def supports(prior, name, value):
    return any(abs(candidate - value) <= 1e-9 for candidate in prior.grid.spec(name).values)


class TestParameterGrid:
    def test_size_is_product(self):
        grid = grid_of({"a": [1, 2, 3], "b": [1, 2]})
        assert grid.size == 6
        assert grid.names == ("a", "b")

    def test_combinations_cover_product_and_sum_to_one(self):
        grid = grid_of({"a": [1, 2], "b": [10, 20]})
        combos = list(grid.combinations())
        assert len(combos) == 4
        assert sum(prob for _, prob in combos) == pytest.approx(1.0)
        assignments = [tuple(sorted(assignment.items())) for assignment, _ in combos]
        assert len(set(assignments)) == 4

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError):
            ParameterGrid(specs=(ParameterSpec("a", (1.0,)), ParameterSpec("a", (2.0,))))

    def test_spec_lookup(self):
        grid = grid_of({"a": [1, 2]})
        assert grid.spec("a").values == (1, 2)
        with pytest.raises(KeyError):
            grid.spec("missing")


class TestPriors:
    def test_figure3_prior_contains_paper_true_values(self):
        prior = figure3_prior(link_rate_points=4, cross_fraction_points=4, loss_points=3, buffer_points=4)
        assert supports(prior, "link_rate_bps", 12_000.0)
        assert supports(prior, "cross_fraction", 0.7)
        assert supports(prior, "loss_rate", 0.2)
        assert supports(prior, "buffer_capacity_bits", 96_000.0)

    def test_figure3_prior_probabilities_sum_to_one(self):
        prior = figure3_prior(link_rate_points=3, cross_fraction_points=2, loss_points=2, buffer_points=2, fill_points=2)
        combos = list(prior.combinations())
        assert len(combos) == prior.size
        assert sum(prob for _, prob in combos) == pytest.approx(1.0)

    def test_figure3_prior_resolves_relative_parameters(self):
        prior = figure3_prior(link_rate_points=2, cross_fraction_points=2, loss_points=1, buffer_points=1, fill_points=2)
        for assignment, _ in prior.combinations():
            assert assignment["cross_rate_pps"] == pytest.approx(
                assignment["cross_fraction"] * assignment["link_rate_bps"] / assignment["cross_packet_bits"]
            )
            assert assignment["initial_fill_bits"] <= assignment["buffer_capacity_bits"] + 1e-9
            assert assignment["mean_time_to_switch"] == pytest.approx(100.0)

    def test_single_link_prior(self):
        prior = single_link_prior(link_rate_points=3, fill_points=2)
        assert prior.size == 6
        for assignment, _ in prior.combinations():
            assert "link_rate_bps" in assignment
            assert "initial_fill_bits" in assignment


class TestObservations:
    def test_frozen(self):
        ack = AckObservation(seq=4, received_at=2.0, ack_at=2.0)
        with pytest.raises(AttributeError):
            ack.seq = 5  # type: ignore[misc]


class TestKernels:
    def test_exact_kernel_accepts_within_tolerance(self):
        kernel = ExactMatchKernel(tolerance=0.01)
        assert kernel.log_weight(0.0) == 0.0
        assert kernel.log_weight(0.005) == 0.0
        assert kernel.log_weight(0.02) == float("-inf")

    def test_exact_kernel_validation(self):
        with pytest.raises(ConfigurationError):
            ExactMatchKernel(tolerance=-1.0)

    def test_gaussian_kernel_shape(self):
        kernel = GaussianKernel(sigma=0.5)
        assert kernel.log_weight(0.0) == 0.0
        assert kernel.log_weight(0.5) == pytest.approx(-0.5)
        assert kernel.log_weight(-0.5) == pytest.approx(-0.5)
        assert kernel.log_weight(10.0) == float("-inf")

    def test_gaussian_kernel_validation(self):
        with pytest.raises(ConfigurationError):
            GaussianKernel(sigma=0.0)

    @given(error=st.floats(min_value=-2.0, max_value=2.0))
    def test_property_gaussian_monotone_in_absolute_error(self, error):
        kernel = GaussianKernel(sigma=1.0)
        assert kernel.log_weight(error) <= kernel.log_weight(0.0)
        assert kernel.log_weight(error) == pytest.approx(kernel.log_weight(-error))
