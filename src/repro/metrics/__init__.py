"""Measurement utilities shared by experiments, benches, and examples."""

from repro.metrics.fairness import convergence_time, flow_rate_matrix, jain_index
from repro.metrics.summary import ExperimentRow, format_table
from repro.metrics.timeseries import TimeSeries, rtt_series

__all__ = [
    "ExperimentRow",
    "TimeSeries",
    "convergence_time",
    "flow_rate_matrix",
    "format_table",
    "jain_index",
    "rtt_series",
]
