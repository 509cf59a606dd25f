"""Benchmark-trajectory analysis and cached-sweep auto-bisection.

Two localization tools for "something got slower / something changed":

* :func:`analyze_history` walks committed ``BENCH_*.json`` records against
  their baselines, re-checks every record's own gates, runs the wall-time
  regression check, and tabulates per-entry fractional deltas of every
  time-like metric — flagging the records where a regression entered.
* :func:`bisect_cached_sweep` replays a sweep's grid points through the
  :class:`~repro.runner.cache.ResultCache` *key space only*: each spec is
  classified as a cache hit or miss without executing anything.  Because
  cache keys fold in scenario params, seeds, config fingerprints, and code
  identity, the misses are exactly the grid region whose identity changed —
  the region a regression entered — and the axis values appearing only
  among misses localize it further.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from repro.benchmarking import BenchRecord, GateFailure
from repro.runner.cache import ResultCache
from repro.runner.spec import ScenarioSpec

__all__ = [
    "EntryDelta",
    "HistoryReport",
    "RecordReport",
    "SweepBisection",
    "analyze_history",
    "bisect_cached_sweep",
]


# ------------------------------------------------------------- bench history


@dataclass
class EntryDelta:
    """Fractional change of one time-like metric against the baseline."""

    entry: str
    metric: str
    baseline: float
    current: float

    @property
    def change(self) -> float:
        """Fractional delta; positive means slower than the baseline."""
        if self.baseline == 0.0:
            return 0.0
        return self.current / self.baseline - 1.0


@dataclass
class RecordReport:
    """One ``BENCH_*.json`` record checked against its baseline."""

    name: str
    gate_failures: list[GateFailure] = field(default_factory=list)
    regression_failures: list[GateFailure] = field(default_factory=list)
    deltas: list[EntryDelta] = field(default_factory=list)
    has_baseline: bool = False

    @property
    def flagged(self) -> bool:
        return bool(self.gate_failures or self.regression_failures)


@dataclass
class HistoryReport:
    """Every analyzed record, with the flagged subset called out."""

    records: list[RecordReport] = field(default_factory=list)

    @property
    def flagged(self) -> list[str]:
        return [record.name for record in self.records if record.flagged]

    def render(self) -> str:
        lines = [f"bench history: {len(self.records)} record(s) analyzed"]
        for record in self.records:
            status = "FLAGGED" if record.flagged else "ok"
            baseline_note = "" if record.has_baseline else " (no baseline; gates only)"
            lines.append(f"  {record.name}: {status}{baseline_note}")
            for failure in record.gate_failures:
                lines.append(f"    gate: {failure.message}")
            for failure in record.regression_failures:
                lines.append(f"    regression: {failure.message}")
            for delta in sorted(
                record.deltas, key=lambda d: abs(d.change), reverse=True
            ):
                lines.append(
                    f"    {delta.entry}.{delta.metric}: {delta.baseline:.4g}s "
                    f"-> {delta.current:.4g}s ({delta.change:+.1%})"
                )
        if self.flagged:
            lines.append(f"  flagged: {', '.join(self.flagged)}")
        else:
            lines.append("  no record regressed")
        return "\n".join(lines)


def _time_deltas(record: BenchRecord, baseline: BenchRecord) -> list[EntryDelta]:
    return [
        EntryDelta(entry=label, metric=metric, baseline=base_value, current=current)
        for label, metric, current, base_value in record.time_pairs(baseline)
    ]


def analyze_history(
    records: Mapping[str, BenchRecord],
    baselines: Optional[Mapping[str, BenchRecord]] = None,
    max_regression: float = 0.25,
) -> HistoryReport:
    """Check every record's gates and baseline deltas; flag regressions."""
    baselines = baselines or {}
    report = HistoryReport()
    for name, record in sorted(records.items()):
        baseline = baselines.get(name)
        entry = RecordReport(
            name=name,
            gate_failures=record.check_gates(),
            has_baseline=baseline is not None,
        )
        if baseline is not None:
            entry.regression_failures = record.check_regressions(
                baseline, max_regression=max_regression
            )
            entry.deltas = _time_deltas(record, baseline)
        report.records.append(entry)
    return report


# ------------------------------------------------------------- sweep bisect


@dataclass
class SweepBisection:
    """Hit/miss partition of a sweep's grid through the result cache."""

    hits: list[ScenarioSpec] = field(default_factory=list)
    misses: list[ScenarioSpec] = field(default_factory=list)
    #: Axis name -> values that appear only among cache misses.
    suspect_axes: dict[str, list] = field(default_factory=dict)

    @property
    def localized(self) -> bool:
        return bool(self.suspect_axes)

    def render(self) -> str:
        lines = [
            f"cached sweep bisection: {len(self.hits)} hit(s), "
            f"{len(self.misses)} miss(es)"
        ]
        if not self.misses:
            lines.append("  every point replays from cache — no region changed")
        elif not self.hits:
            lines.append(
                "  every point misses — a global identity change "
                "(code, defaults, or schema), not a localized region"
            )
        elif self.localized:
            for axis, values in sorted(self.suspect_axes.items()):
                rendered = ", ".join(repr(value) for value in values)
                lines.append(f"  suspect axis {axis!r}: misses only at {rendered}")
        else:
            lines.append("  misses do not localize to any single axis")
        for spec in self.misses:
            lines.append(f"  miss: {spec.label}")
        return "\n".join(lines)


def _axis_values(specs: Sequence[ScenarioSpec]) -> dict[str, set[str]]:
    values: dict[str, set[str]] = {}
    for spec in specs:
        for axis, value in spec.params.items():
            values.setdefault(axis, set()).add(repr(value))
        values.setdefault("seed", set()).add(repr(spec.seed))
    return values


def bisect_cached_sweep(
    cache: ResultCache,
    specs: Sequence[ScenarioSpec],
    registry=None,
) -> SweepBisection:
    """Partition ``specs`` into cache hits and misses; localize the misses.

    Nothing executes: each point is probed purely through its cache key.
    A value of some parameter axis (or seed) that occurs *only* among
    misses marks the grid region whose identity changed since the cache
    was populated — the region to re-run first when hunting a regression.
    """
    bisection = SweepBisection()
    reprs: dict[str, object] = {}
    for spec in specs:
        for value in list(spec.params.values()) + [spec.seed]:
            reprs.setdefault(repr(value), value)
        result = cache.load_point(cache.point_key(spec, registry), spec)
        (bisection.hits if result is not None else bisection.misses).append(spec)
    if bisection.hits and bisection.misses:
        hit_values = _axis_values(bisection.hits)
        miss_values = _axis_values(bisection.misses)
        for axis, misses in sorted(miss_values.items()):
            only_missing = misses - hit_values.get(axis, set())
            if only_missing:
                bisection.suspect_axes[axis] = sorted(
                    (reprs[rendered] for rendered in only_missing), key=repr
                )
    return bisection
