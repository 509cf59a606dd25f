"""Persistent, fingerprint-keyed reuse of executed grid points.

A sweep's value here comes from running the paper's sender across many
scenarios — alpha grids, backend ablations, policy modes — and most of a
re-run repeats points an earlier run already executed.  :class:`ResultCache`
makes those repeats free: every executed :class:`~repro.runner.results.PointResult`
is stored on disk under a key derived from

* the spec identity (scenario name, canonical params, base seed), and
* the point's :meth:`~repro.api.config.SenderConfig.fingerprint`, when the
  scenario declares how its parameters map to a sender configuration
  (see ``config_factory`` on :class:`~repro.runner.registry.ScenarioEntry`).

The fingerprint component catches configuration-semantics drift that
scenario params alone cannot see — a changed ``SenderConfig`` default, a
bumped ``FINGERPRINT_VERSION`` — and the package version is folded into
every key so released behaviour changes invalidate wholesale.  What no key
can see is an *unreleased* edit to simulator or scenario code: after such a
change, bump :data:`CACHE_SCHEMA_VERSION` or point sweeps at a fresh
``--cache-dir`` (the cache is opt-in precisely so stale replay is never a
silent default).

Warm replays are bit-identical by construction — the cache stores the
point's metrics (and original wall time) and the runner reassembles the
same canonical :class:`~repro.runner.results.ResultStore` artifact.

Writes are atomic (writer-unique temp file + :func:`os.replace`), so any
number of runner processes and threads can share one cache directory.  A
corrupted or mismatched entry discovered at *read* time is never silently
deleted: it is moved to the cache's ``quarantine/`` subdirectory
(preserving the evidence for :mod:`repro.diagnostics` triage), counted on
the instance's ``corrupt`` counter, and read as a miss — the next
execution stores a fresh entry in the vacated slot.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional

from repro._persist import (
    CACHE_DIR_ENV,
    atomic_write_text,
    canonical_digest,
    default_cache_dir,
    read_json_or_quarantine,
)
from repro._version import __version__
from repro.runner.registry import DEFAULT_REGISTRY, ScenarioEntry, ScenarioRegistry
from repro.runner.results import PointResult
from repro.runner.spec import ScenarioSpec

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_SCHEMA_VERSION",
    "CacheGCReport",
    "CacheStats",
    "ResultCache",
    "default_cache_dir",
]

#: Cache layout version; bumping it invalidates every stored point.
CACHE_SCHEMA_VERSION = 1


class ResultCache:
    """Disk-backed map from grid-point identity to executed results.

    Parameters
    ----------
    root:
        Directory to store entries under (created lazily on first write).
        Point files live at ``root/results/<key[:2]>/<key>.json``.

    Hit/miss/store counts accumulate on the instance; the runner copies
    them onto the :class:`~repro.runner.results.ResultStore` it returns so
    the CLI can report them per sweep.

    Each distinct config a scenario's ``config_factory`` returns is
    fingerprinted once per instance (see :meth:`point_key`); nothing the
    instance learns outlives it.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        #: Entry files live under this directory; a string, so a point's
        #: path is one format, not three ``Path`` joins.
        self._results = os.path.join(self.root, "results")
        #: Config fingerprints computed by this instance, keyed on the
        #: exact ``(type, repr)`` of the factory's output.
        self._fingerprints: dict[tuple[type, str], str] = {}
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Unreadable entries moved to ``quarantine/`` this session; the
        #: runner surfaces the per-run delta as ``ResultStore.cache_corrupt``.
        self.corrupt = 0

    # ---------------------------------------------------------------- identity

    def point_key(
        self, spec: ScenarioSpec, registry: Optional[ScenarioRegistry] = None
    ) -> str:
        """The cache key of one grid point.

        ``params`` enter the key exactly as the spec spells them — the
        same raw form :attr:`~repro.runner.spec.ScenarioSpec.derived_seed`
        hashes, so two spellings that execute with different derived seeds
        (an omitted default vs. the same value written out) never share a
        slot.  The *resolved defaults* are a separate key component: two
        registries that register one name with different defaults never
        share entries, and a changed signature or registration default
        invalidates naturally.  The scenario function's module-qualified
        identity and the scenario's config fingerprint tie the entry to
        the code object and the exact
        :class:`~repro.api.config.SenderConfig` semantics that produced it.

        The factory still runs for every point, but its output is
        fingerprinted once per distinct config on this instance: a sweep
        whose points all build one config (the Figure-3 α grid) pays one
        fingerprint, not one per point.  The memo is keyed on the output's
        exact ``(type, repr)``, never on ``==``: ``SenderConfig(alpha=1)``
        equals and hashes like ``SenderConfig(alpha=1.0)``, and
        ``latency_penalty=0.0`` like ``-0.0``, yet each pair fingerprints
        differently.
        """
        registry = registry if registry is not None else DEFAULT_REGISTRY
        entry = registry.get(spec.scenario)
        return canonical_digest(
            {
                "schema": CACHE_SCHEMA_VERSION,
                "version": __version__,
                "scenario": spec.scenario,
                "fn": f"{entry.fn.__module__}.{entry.fn.__qualname__}",
                "params": spec.params,
                "defaults": entry.effective_params({}),
                "seed": spec.seed,
                "config": self._config_fingerprint(entry, spec.params),
            },
            length=64,
        )

    def _config_fingerprint(self, entry: ScenarioEntry, params: dict) -> str:
        """The point's ``SenderConfig.fingerprint()`` (``""`` without a config
        factory), memoized on this instance."""
        if entry.config_factory is None:
            return ""
        config = entry.config_factory(entry.effective_params(params))
        exact = (type(config), repr(config))
        fingerprint = self._fingerprints.get(exact)
        if fingerprint is None:
            fingerprint = self._fingerprints[exact] = config.fingerprint()
        return fingerprint

    def _path(self, key: str) -> str:
        return f"{self._results}/{key[:2]}/{key}.json"

    # ------------------------------------------------------------------ lookup

    def load_point(self, key: str, spec: ScenarioSpec) -> Optional[PointResult]:
        """The cached result under ``key``, or ``None`` (a miss).

        Every failure mode — missing file, truncated JSON, wrong schema,
        an entry whose recorded spec does not match ``spec`` (hash
        paranoia), metrics or a wall time of the wrong type — reads as a
        miss.  An entry that *existed* but could not be trusted is
        quarantined (moved to ``quarantine/`` and counted on ``corrupt``),
        so the subsequent execution stores a fresh file and the evidence
        survives for triage.
        """

        def check(payload: object) -> Optional[PointResult]:
            if (
                isinstance(payload, dict)
                and payload.get("schema") == CACHE_SCHEMA_VERSION
                and payload.get("spec") == spec.canonical()
            ):
                return PointResult.from_record(spec, payload)
            return None

        result, quarantined = read_json_or_quarantine(self.root, self._path(key), check)
        if quarantined:
            self.corrupt += 1
        if result is None:
            self.misses += 1
            return None
        self.hits += 1
        return result

    # ------------------------------------------------------------------- store

    def store_point(self, key: str, result: PointResult) -> Path:
        """Persist ``result`` under ``key`` (atomic, last writer wins)."""
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "spec": result.spec.canonical(),
            "metrics": dict(result.metrics),
            "wall_time": result.wall_time,
        }
        # No sort_keys: the scenario's metric *insertion order* is part of
        # the replayed artifact (CSV columns and printed tables follow it),
        # and JSON object order survives the round trip.  default=str
        # matches ResultStore.to_json, so a replayed store serializes
        # byte-for-byte like the cold run that populated it.
        text = json.dumps(payload, separators=(",", ":"), default=str)
        path = atomic_write_text(Path(self._path(key)), text + "\n")
        self.stores += 1
        return path

    # ------------------------------------------------------------ housekeeping

    #: Subdirectories whose files are regenerable artifacts the GC may
    #: prune.  The journal is deliberately excluded: it is the resume state
    #: of a possibly-interrupted sweep, not a cache.
    GC_SUBDIRS = ("results", "policy")

    def artifact_files(self) -> Iterator[Path]:
        """Every prunable artifact file (results and policy tables)."""
        for subdir in self.GC_SUBDIRS:
            base = self.root / subdir
            if base.is_dir():
                yield from sorted(p for p in base.rglob("*.json") if p.is_file())

    def corpus_files(self) -> Iterator[Path]:
        """Prunable trace-corpus blobs under ``corpus/traces/``.

        The corpus manifest (``corpus/manifest.json``) is deliberately
        *not* yielded: it is the index that makes every blob regenerable
        (generator entries rebuild from their recorded family/params/seed;
        ingested entries name their source file), so pruning it would turn
        a cheap recomputation into data loss.  Blobs themselves are fair
        game — the corpus store rebuilds or re-verifies them on demand.
        """
        base = self.root / "corpus" / "traces"
        if base.is_dir():
            yield from sorted(p for p in base.rglob("*.json") if p.is_file())

    def corpus_manifest_path(self) -> Path:
        """The co-located corpus manifest (never pruned)."""
        return self.root / "corpus" / "manifest.json"

    def quarantine_files(self) -> Iterator[Path]:
        """Every quarantined file (corrupt entries moved aside at read time)."""
        base = self.root / "quarantine"
        if base.is_dir():
            yield from sorted(p for p in base.iterdir() if p.is_file())

    def stats(self) -> "CacheStats":
        """Sizes and ages of everything under the cache directory."""
        stats = CacheStats(root=self.root)
        now = time.time()
        for path in self.artifact_files():
            info = path.stat()
            stats.entries += 1
            stats.bytes += info.st_size
            stats.oldest_age_s = max(stats.oldest_age_s, now - info.st_mtime)
        for path in self.corpus_files():
            info = path.stat()
            stats.corpus_entries += 1
            stats.corpus_bytes += info.st_size
        manifest = self.corpus_manifest_path()
        if manifest.is_file():
            stats.corpus_bytes += manifest.stat().st_size
        for path in self.quarantine_files():
            info = path.stat()
            stats.quarantined += 1
            stats.quarantined_bytes += info.st_size
        return stats

    def gc(
        self,
        *,
        max_age_s: Optional[float] = None,
        max_total_bytes: Optional[int] = None,
        sweep_quarantine: bool = False,
        dry_run: bool = False,
    ) -> "CacheGCReport":
        """Prune cached artifacts by age and total size; optionally sweep
        the quarantine directory.

        Age pruning removes every results/policy artifact and corpus trace
        blob older than ``max_age_s``; size pruning then removes
        oldest-first until the remainder fits ``max_total_bytes``.  Both
        criteria apply to the regenerable stores only — the sweep journal
        and the corpus manifest are never touched.  The
        ``quarantine/`` directory (which otherwise grows without bound, one
        file per corruption ever observed) is emptied when
        ``sweep_quarantine`` is set; its files have normally been triaged
        by then.  ``dry_run`` reports what would be removed without
        touching anything.  Concurrent readers are safe: a pruned entry
        simply reads as a miss and is recomputed.
        """
        report = CacheGCReport(dry_run=dry_run)
        clock = time.time()
        survivors: list[tuple[float, Path, int]] = []
        # Corpus blobs are regenerable from the manifest, so they prune by
        # the same criteria; the manifest itself is never in this list.
        prunable = list(self.artifact_files()) + list(self.corpus_files())
        for path in prunable:
            info = path.stat()
            if max_age_s is not None and clock - info.st_mtime > max_age_s:
                report.removed.append(path)
                report.freed_bytes += info.st_size
            else:
                survivors.append((info.st_mtime, path, info.st_size))
        if max_total_bytes is not None:
            survivors.sort()  # oldest first
            total = sum(size for _, _, size in survivors)
            while survivors and total > max_total_bytes:
                _, path, size = survivors.pop(0)
                report.removed.append(path)
                report.freed_bytes += size
                total -= size
        if sweep_quarantine:
            for path in self.quarantine_files():
                report.quarantine_removed.append(path)
                report.quarantine_freed_bytes += path.stat().st_size
        if not dry_run:
            for path in report.removed + report.quarantine_removed:
                try:
                    path.unlink()
                except FileNotFoundError:  # pragma: no cover - racing GC
                    pass
        return report


@dataclass
class CacheStats:
    """What ``python -m repro.runner cache list`` reports."""

    root: Path
    entries: int = 0
    bytes: int = 0
    #: Trace blobs in the co-located corpus store (manifest excluded from
    #: the count; its size is folded into ``corpus_bytes``).
    corpus_entries: int = 0
    corpus_bytes: int = 0
    quarantined: int = 0
    quarantined_bytes: int = 0
    oldest_age_s: float = 0.0


@dataclass
class CacheGCReport:
    """What a :meth:`ResultCache.gc` pass removed (or would remove)."""

    dry_run: bool = False
    removed: list[Path] = field(default_factory=list)
    freed_bytes: int = 0
    quarantine_removed: list[Path] = field(default_factory=list)
    quarantine_freed_bytes: int = 0
