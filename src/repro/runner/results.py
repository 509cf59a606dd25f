"""Result aggregation for scenario runs.

Every executed point becomes a :class:`PointResult`; a :class:`ResultStore`
collects them (in spec order, regardless of which worker finished first)
and renders one comparable artifact: canonical JSON whose bytes are a
function of the specs and seeds alone, plus CSV / table views for humans.

Timing is recorded per point but excluded from the canonical artifact by
default, so replay-equivalence checks can compare artifacts byte-for-byte.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.metrics.summary import ExperimentRow
from repro.runner.spec import ScenarioSpec
from repro.viz.csv_out import write_rows_csv


@dataclass
class PointResult:
    """Outcome of one executed scenario point."""

    spec: ScenarioSpec
    metrics: dict[str, Any]
    wall_time: float = 0.0

    def row(self) -> ExperimentRow:
        """The point as a printable table row."""
        return ExperimentRow(label=self.spec.label, values=dict(self.metrics))

    def to_obj(self, include_timing: bool = False) -> dict[str, Any]:
        """JSON-ready representation of the point."""
        obj: dict[str, Any] = {
            "scenario": self.spec.scenario,
            "params": dict(self.spec.params),
            "seed": self.spec.seed,
            "metrics": dict(self.metrics),
        }
        if include_timing:
            obj["wall_time"] = self.wall_time
        return obj

    @classmethod
    def from_record(
        cls, spec: ScenarioSpec, record: Mapping[str, Any]
    ) -> "PointResult | None":
        """Rebuild a stored point — a cache entry or a journal ``done`` line.

        Both are files another run (or a crash) wrote, so both are checked
        here, once: ``None`` means the record cannot be trusted — its
        ``metrics`` is not a mapping or its ``wall_time`` is not a number —
        and the caller treats the point as never having been stored.
        """
        metrics = record.get("metrics")
        wall_time = record.get("wall_time", 0.0)
        if not isinstance(metrics, dict) or not isinstance(wall_time, (int, float)):
            return None
        return cls(spec=spec, metrics=dict(metrics), wall_time=float(wall_time))


@dataclass
class QuarantinedPoint:
    """A point that exhausted its retries and was set aside, not lost.

    Under partial (non-strict) supervision a repeatedly failing point no
    longer poisons the sweep: its spec, final error, and traceback are
    recorded here (and in the sweep journal) so the failure is diagnosable
    after the fact, while every healthy point still lands in the store.
    """

    spec: ScenarioSpec
    error: str
    traceback: str = ""
    attempts: int = 1

    def to_obj(self) -> dict[str, Any]:
        return {
            "scenario": self.spec.scenario,
            "params": dict(self.spec.params),
            "seed": self.spec.seed,
            "error": self.error,
            "attempts": self.attempts,
        }


@dataclass
class ResultStore:
    """An ordered collection of :class:`PointResult` with stable serialization."""

    results: list[PointResult] = field(default_factory=list)
    #: Points replayed from a :class:`~repro.runner.cache.ResultCache` /
    #: executed fresh by the run that produced this store.  Bookkeeping
    #: only — deliberately excluded from the canonical JSON artifact, which
    #: must stay a pure function of specs and metrics (a warm rerun is
    #: byte-identical to the cold run that populated the cache).
    cache_hits: int = 0
    cache_misses: int = 0
    #: Cache entries found corrupt at read time and moved to the cache's
    #: ``quarantine/`` directory during this run.
    cache_corrupt: int = 0
    #: ``True`` when the producing run tolerated failures: quarantined
    #: points are absent from ``results`` but listed in ``quarantined``.
    partial: bool = False
    #: Points set aside after exhausting their retries (partial mode only).
    quarantined: list[QuarantinedPoint] = field(default_factory=list)
    #: Failed attempts that were retried during the run.
    retries: int = 0
    #: Points replayed from a sweep journal by ``resume=True``.
    resumed: int = 0

    # ------------------------------------------------------------- collection

    def add(self, result: PointResult) -> None:
        self.results.append(result)

    def extend(self, results: Iterator[PointResult] | list[PointResult]) -> None:
        self.results.extend(results)

    def merge(self, other: "ResultStore") -> "ResultStore":
        """Return a new store holding this store's points then ``other``'s."""
        return ResultStore(
            results=[*self.results, *other.results],
            cache_hits=self.cache_hits + other.cache_hits,
            cache_misses=self.cache_misses + other.cache_misses,
            cache_corrupt=self.cache_corrupt + other.cache_corrupt,
            partial=self.partial or other.partial,
            quarantined=[*self.quarantined, *other.quarantined],
            retries=self.retries + other.retries,
            resumed=self.resumed + other.resumed,
        )

    def counts(self) -> dict[str, int]:
        """Completed/quarantined/retry bookkeeping as one reportable dict."""
        return {
            "completed": len(self.results),
            "quarantined": len(self.quarantined),
            "retries": self.retries,
            "resumed": self.resumed,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_corrupt": self.cache_corrupt,
        }

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self) -> Iterator[PointResult]:
        return iter(self.results)

    # ------------------------------------------------------------------ views

    def rows(self) -> list[ExperimentRow]:
        """All points as printable table rows, in run order."""
        return [result.row() for result in self.results]

    def metric(self, name: str) -> list[Any]:
        """One metric across all points, in run order."""
        return [result.metrics.get(name) for result in self.results]

    @property
    def total_wall_time(self) -> float:
        """Sum of per-point execution times (not wall-clock of the sweep)."""
        return sum(result.wall_time for result in self.results)

    # -------------------------------------------------------------- artifacts

    def to_obj(self, include_timing: bool = False) -> dict[str, Any]:
        obj: dict[str, Any] = {
            "schema": "repro.runner/1",
            "results": [result.to_obj(include_timing=include_timing) for result in self.results],
        }
        # Quarantined points appear only when there are any, so a clean
        # run's artifact stays byte-identical to pre-supervision output
        # (and a resumed clean run to an uninterrupted one).
        if self.quarantined:
            obj["quarantined"] = [point.to_obj() for point in self.quarantined]
        return obj

    def to_json(
        self,
        path: str | Path | None = None,
        include_timing: bool = False,
    ) -> str:
        """Canonical JSON artifact (sorted keys, fixed separators).

        With ``include_timing=False`` (the default) the bytes are fully
        determined by the executed specs and their metrics — the property
        the replay-equivalence tests assert across backends and worker
        counts.
        """
        text = json.dumps(
            self.to_obj(include_timing=include_timing),
            sort_keys=True,
            separators=(",", ":"),
            default=str,
        )
        if path is not None:
            Path(path).write_text(text + "\n", encoding="utf-8")
        return text

    def fingerprint(self) -> str:
        """SHA-256 of the canonical JSON artifact — a comparable run identity."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()

    def to_csv(self, path: str | Path) -> Path:
        """Write the points as a CSV table (one row per point)."""
        return write_rows_csv(path, self.rows())

    @classmethod
    def from_json(cls, text: str) -> "ResultStore":
        """Rehydrate a store from :meth:`to_json` output."""
        payload = json.loads(text)
        store = cls()
        for obj in payload.get("results", []):
            store.add(
                PointResult(
                    spec=ScenarioSpec(
                        scenario=obj["scenario"],
                        params=dict(obj.get("params", {})),
                        seed=int(obj.get("seed", 0)),
                    ),
                    metrics=dict(obj.get("metrics", {})),
                    wall_time=float(obj.get("wall_time", 0.0)),
                )
            )
        return store
