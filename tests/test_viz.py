"""Tests for the ASCII plot and CSV export helpers."""

from __future__ import annotations

import csv

from repro.metrics import ExperimentRow, TimeSeries
from repro.viz import ascii_plot, write_rows_csv, write_series_csv


class TestAsciiPlot:
    def test_renders_title_axes_and_legend(self):
        series = {"line": TimeSeries.from_pairs([(0.0, 1.0), (1.0, 2.0), (2.0, 4.0)])}
        text = ascii_plot(series, height=10, title="Demo", y_label="seq")
        assert "Demo" in text
        assert "seq" in text
        assert "legend: o = line" in text
        assert text.count("\n") >= 12

    def test_multiple_series_get_distinct_markers(self):
        series = {
            "a": [(0.0, 1.0), (1.0, 2.0)],
            "b": [(0.0, 2.0), (1.0, 1.0)],
        }
        text = ascii_plot(series, height=5)
        assert "o = a" in text
        assert "x = b" in text

    def test_log_scale_drops_nonpositive_values(self):
        series = {"rtt": [(0.0, 0.0), (1.0, 0.1), (2.0, 10.0)]}
        text = ascii_plot(series, logy=True)
        assert "log10" in text

    def test_empty_series_is_handled(self):
        assert "(no data)" in ascii_plot({"nothing": []}, title="Empty")

    def test_flat_series_does_not_divide_by_zero(self):
        series = {"flat": [(0.0, 5.0), (1.0, 5.0)]}
        text = ascii_plot(series, height=4)
        assert "flat" in text


class TestCsvOut:
    def test_write_series_csv(self, tmp_path):
        path = tmp_path / "out" / "series.csv"
        series = {"a": TimeSeries.from_pairs([(0.0, 1.0), (1.0, 2.0)]), "b": [(0.5, 3.0)]}
        written = write_series_csv(path, series)
        with written.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["series", "time", "value"]
        assert len(rows) == 4
        assert {row[0] for row in rows[1:]} == {"a", "b"}

    def test_write_rows_csv(self, tmp_path):
        path = tmp_path / "rows.csv"
        rows = [
            ExperimentRow(label="x", values={"col1": 1, "col2": 2.5}),
            ExperimentRow(label="y", values={"col2": 3.5}),
        ]
        written = write_rows_csv(path, rows)
        with written.open() as handle:
            parsed = list(csv.reader(handle))
        assert parsed[0] == ["label", "col1", "col2"]
        assert parsed[1][0] == "x"
        assert parsed[2][1] == ""
