"""Tests for the metrics package."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.metrics import (
    ExperimentRow,
    TimeSeries,
    format_table,
    rtt_series,
)


class TestTimeSeries:
    def test_from_pairs_orders_by_time(self):
        series = TimeSeries.from_pairs([(2.0, 20.0), (1.0, 10.0)])
        assert list(series) == [(1.0, 10.0), (2.0, 20.0)]

    def test_between_selects_half_open_interval(self):
        series = TimeSeries.from_pairs([(0.0, 1.0), (1.0, 2.0), (2.0, 3.0)])
        selected = series.between(1.0, 2.0)
        assert list(selected) == [(1.0, 2.0)]

    def test_statistics(self):
        series = TimeSeries.from_pairs([(0.0, 1.0), (1.0, 3.0), (2.0, 2.0)])
        assert series.max() == 3.0
        assert series.min() == 1.0
        assert series.mean() == pytest.approx(2.0)
        assert series.percentile(0.5) == 2.0

    def test_empty_series_statistics_raise(self):
        series = TimeSeries.from_pairs([])
        assert series.is_empty()
        with pytest.raises(ValueError):
            series.mean()
        with pytest.raises(ValueError):
            series.percentile(0.5)

    def test_percentile_validation(self):
        series = TimeSeries.from_pairs([(0.0, 1.0)])
        with pytest.raises(ValueError):
            series.percentile(1.5)

    def test_windowed_mean(self):
        series = TimeSeries.from_pairs([(0.1, 1.0), (0.9, 3.0), (1.5, 10.0)])
        windowed = series.windowed(1.0)
        assert list(windowed) == [(0.0, 2.0), (1.0, 10.0)]

    def test_windowed_validation(self):
        with pytest.raises(ValueError):
            TimeSeries.from_pairs([(0.0, 1.0)]).windowed(0.0)

    @given(
        pairs=st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e4, allow_nan=False),
                st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            ),
            min_size=1,
            max_size=50,
        )
    )
    def test_property_times_sorted_and_length_preserved(self, pairs):
        series = TimeSeries.from_pairs(pairs)
        assert len(series) == len(pairs)
        assert list(series.times) == sorted(series.times)

    @given(
        pairs=st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=100, allow_nan=False),
                st.floats(min_value=0, max_value=100, allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        ),
        window=st.floats(min_value=0.5, max_value=20.0),
    )
    def test_property_windowed_mean_within_bounds(self, pairs, window):
        series = TimeSeries.from_pairs(pairs)
        windowed = series.windowed(window)
        assert not windowed.is_empty()
        assert windowed.min() >= series.min() - 1e-9
        assert windowed.max() <= series.max() + 1e-9


class TestFigureSeries:
    def test_rtt_series_passthrough(self):
        series = rtt_series([(0.0, 0.1), (1.0, 0.5)])
        assert series.max() == 0.5


class TestFormatTable:
    def test_renders_columns_and_rows(self):
        rows = [
            ExperimentRow(label="alpha=1.0", values={"throughput": 3600.0, "drops": 0}),
            ExperimentRow(label="alpha=5.0", values={"throughput": 1200.0, "drops": 0}),
        ]
        text = format_table(rows, title="Figure 3")
        assert "Figure 3" in text
        assert "alpha=1.0" in text
        assert "throughput" in text
        assert "drops" in text

    def test_column_subset_and_missing_values(self):
        rows = [
            ExperimentRow(label="row", values={"a": 1}),
            ExperimentRow(label="other", values={"b": 2}),
        ]
        header, _, first, second = format_table(rows).splitlines()
        assert header.split() == ["label", "a", "b"]
        assert first.split() == ["row", "1"] and second.split() == ["other", "2"]

    def test_experiment_row_get(self):
        row = ExperimentRow(label="x", values={"k": 3})
        assert row.get("k") == 3
        assert row.get("missing", 7) == 7
