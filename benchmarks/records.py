"""Canonical benchmark records (``BENCH_*.json``) and their checks.

Speed claims live in the end-to-end ledger (``BENCHMARK.json``,
``benchmarks/e2e/``).  A record holds what that ledger cannot see — the
sub-ledger timings ``benchmarks/bench_micro.py`` writes to
``BENCH_micro.json`` — in a form a diff and a tool can read:

* ``entries`` — one record per measured configuration, each a flat dict of
  numeric metrics plus free-form metadata,
* ``gates`` — self-contained pass/fail bounds over those metrics,

serialized canonically (sorted keys, fixed indentation, trailing newline)
so diffs against a committed baseline are meaningful.  ``compare.py``
beside this file is the one check: it re-checks a record's own gates and
flags time-like metrics that regressed against the committed baseline, at
the one threshold it defines.  Nothing under ``src/`` reads a record.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Optional

#: Record format version, bumped on incompatible layout changes.
SCHEMA_VERSION = 1

#: Metric-name suffixes treated as "lower is better" by regression checks.
TIME_METRIC_SUFFIXES = ("wall_time_s", "wall_time", "seconds", "_s")


@dataclass
class GateFailure:
    """One violated condition, with everything needed to print a diagnosis."""

    entry: str
    metric: str
    message: str


@dataclass
class BenchRecord:
    """In-memory form of one ``BENCH_<name>.json`` file."""

    name: str
    entries: dict[str, dict] = field(default_factory=dict)
    gates: dict[str, dict] = field(default_factory=dict)

    # ----------------------------------------------------------------- editing

    def record(
        self,
        label: str,
        metrics: Mapping[str, float],
        meta: Optional[Mapping[str, object]] = None,
    ) -> None:
        """Add or replace the entry ``label``."""
        entry: dict = {"metrics": {key: float(value) for key, value in metrics.items()}}
        if meta:
            entry["meta"] = dict(meta)
        self.entries[label] = entry

    def gate(self, entry: str, metric: str, minimum: float | None = None, maximum: float | None = None) -> None:
        """Require ``entry``'s ``metric`` to stay within the given bounds."""
        condition: dict = {}
        if minimum is not None:
            condition["min"] = float(minimum)
        if maximum is not None:
            condition["max"] = float(maximum)
        self.gates[f"{entry}.{metric}"] = condition

    # -------------------------------------------------------------------- I/O

    def to_payload(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "entries": self.entries,
            "gates": self.gates,
        }

    def write(self, path: str | Path) -> Path:
        """Serialize canonically (sorted keys, stable indentation)."""
        path = Path(path)
        path.write_text(json.dumps(self.to_payload(), indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "BenchRecord":
        payload = json.loads(Path(path).read_text())
        record = cls(name=payload.get("name", Path(path).stem))
        record.entries = dict(payload.get("entries", {}))
        record.gates = dict(payload.get("gates", {}))
        return record

    # ------------------------------------------------------------------ checks

    def check_gates(self) -> list[GateFailure]:
        """Evaluate the record's own gates; empty list means all pass."""
        failures: list[GateFailure] = []
        for target, condition in sorted(self.gates.items()):
            entry_name, _, metric = target.rpartition(".")
            entry = self.entries.get(entry_name)
            value = None if entry is None else entry.get("metrics", {}).get(metric)
            if value is None:
                failures.append(
                    GateFailure(entry_name, metric, f"gated metric {target!r} is missing")
                )
                continue
            minimum = condition.get("min")
            maximum = condition.get("max")
            if minimum is not None and value < minimum:
                failures.append(
                    GateFailure(
                        entry_name,
                        metric,
                        f"{target} = {value:g} violates minimum {minimum:g}",
                    )
                )
            if maximum is not None and value > maximum:
                failures.append(
                    GateFailure(
                        entry_name,
                        metric,
                        f"{target} = {value:g} violates maximum {maximum:g}",
                    )
                )
        return failures

    def time_pairs(self, baseline: "BenchRecord") -> Iterator[tuple[str, str, float, float]]:
        """``(entry, metric, value, baseline value)`` for every comparable timing.

        Entries or metrics absent from the baseline are skipped — new
        benchmarks are not regressions.
        """
        for label, entry in sorted(self.entries.items()):
            base_metrics = baseline.entries.get(label, {}).get("metrics", {})
            for metric, value in sorted(entry.get("metrics", {}).items()):
                base_value = base_metrics.get(metric)
                if metric.endswith(TIME_METRIC_SUFFIXES) and base_value is not None:
                    yield label, metric, float(value), float(base_value)

    def check_regressions(
        self, baseline: "BenchRecord", max_regression: float
    ) -> list[GateFailure]:
        """Time-like metrics more than ``max_regression`` (fractional) over ``baseline``."""
        return [
            GateFailure(
                label,
                metric,
                f"{label}.{metric} = {value:g} exceeds baseline "
                f"{base_value:g} by more than {max_regression:.0%}",
            )
            for label, metric, value, base_value in self.time_pairs(baseline)
            if base_value > 0 and value > base_value * (1.0 + max_regression)
        ]
