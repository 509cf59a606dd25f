"""Durable sweep journal: append-only, crash-safe per-point state.

A supervised sweep records every point-state transition
(``running → done / failed / quarantined``) as one JSON line in an
append-only journal keyed by the grid's digest
(:func:`~repro.runner.spec.grid_digest`), so a sweep killed mid-grid —
worker death, OOM, a SIGKILL to the whole process — can be resumed:
``run_specs(..., resume=True)`` replays ``done`` records (metrics and wall
time are stored inline, so resume works with or without a result cache)
and re-enqueues everything still ``running`` or ``failed`` at the time of
death.

Durability model
----------------
Each record is a single ``write()`` of one ``\\n``-terminated line,
flushed immediately — so a line is either wholly present or wholly absent
after a process kill, and :func:`replay_journal` simply ignores an
undecodable tail.  ``fsync`` is batched (every ``FSYNC_EVERY`` appends and
at close) as a compromise between machine-crash durability and per-point
overhead; losing the last few un-synced ``done`` records to a power cut
merely re-executes those points on resume.

The journal lives under the cache directory (``<root>/journal/<grid>.jsonl``)
or an explicit ``journal_dir``, one file per grid digest — sweeps over
different grids never share a journal, and a *fresh* (non-resume) run of
the same grid truncates its journal and starts over.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

__all__ = [
    "JOURNAL_SCHEMA_VERSION",
    "JournalState",
    "SweepJournal",
    "journal_path",
    "replay_journal",
]

#: Journal line-format version; bumping it orphans existing journals
#: (replay treats a mismatched header as an empty journal).
JOURNAL_SCHEMA_VERSION = 1

#: Appends between two ``fsync`` calls (the journal also syncs at close).
FSYNC_EVERY = 16


def journal_path(root: str | os.PathLike[str], grid: str) -> Path:
    """Where the journal for grid digest ``grid`` lives under ``root``."""
    return Path(root) / "journal" / f"{grid}.jsonl"


@dataclass
class JournalState:
    """What a replayed journal says about each point of the grid.

    ``last`` maps grid index → the point's final recorded state line, from
    which the accessors partition the grid: ``done`` points are skipped on
    resume, while points still ``running`` (no terminal record — the points
    lost to the crash) and ``failed``/``quarantined`` points are
    re-enqueued fresh.
    """

    header: dict[str, Any] | None = None
    last: dict[int, dict[str, Any]] = field(default_factory=dict)
    complete: bool = False

    def _by_state(self, state: str) -> dict[int, dict[str, Any]]:
        return {i: rec for i, rec in self.last.items() if rec.get("state") == state}

    @property
    def done(self) -> dict[int, dict[str, Any]]:
        """Completed points: index → record carrying ``metrics``/``wall_time``."""
        return self._by_state("done")

    @property
    def quarantined(self) -> dict[int, dict[str, Any]]:
        return self._by_state("quarantined")


def replay_journal(path: str | os.PathLike[str]) -> JournalState:
    """Reconstruct per-point state from a journal file.

    Tolerates everything a crash can leave behind: a missing file is an
    empty journal, an undecodable line (the torn tail of a killed append)
    is skipped, and a header with the wrong schema version voids the whole
    file rather than mis-resuming against a changed format.
    """
    state = JournalState()
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (FileNotFoundError, OSError):
        return state
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue  # torn append — the line never durably happened
        if not isinstance(record, dict):
            continue
        if "journal" in record:
            if record.get("v") != JOURNAL_SCHEMA_VERSION:
                return JournalState()  # unknown format: resume from scratch
            if state.header is None:
                state.header = record
            continue
        if record.get("state") == "complete":
            state.complete = True
            continue
        index = record.get("i")
        if isinstance(index, int):
            state.last[index] = record
            state.complete = False
    return state


class SweepJournal:
    """Append-only writer for one sweep's journal file.

    Parameters
    ----------
    path:
        Journal file location (parents created on open).
    grid:
        The grid digest this journal records; stamped into the header so a
        replayed file is self-describing.
    points:
        Grid size, recorded in the header for forensics.
    append:
        ``True`` on resume — prior records are kept and a ``resume``
        header marks the new run's start.  ``False`` truncates.

    Every append is flushed, and every ``FSYNC_EVERY``-th is synced.
    """

    def __init__(
        self,
        path: str | os.PathLike[str],
        *,
        grid: str,
        points: int,
        append: bool = False,
    ) -> None:
        self.path = Path(path)
        self._pending_sync = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._file = open(self.path, "a" if append else "w", encoding="utf-8")
        self._append(
            {
                "journal": "repro.runner/sweep",
                "v": JOURNAL_SCHEMA_VERSION,
                "grid": grid,
                "points": points,
                "run": "resume" if append else "fresh",
            }
        )

    # -------------------------------------------------------------- recording

    def _append(self, record: Mapping[str, Any]) -> None:
        if self._file.closed:  # pragma: no cover - defensive
            return
        line = json.dumps(record, separators=(",", ":"), default=str)
        # One write per line: a killed process leaves at most one torn tail
        # line, which replay_journal discards.
        self._file.write(line + "\n")
        self._file.flush()
        self._pending_sync += 1
        if self._pending_sync >= FSYNC_EVERY:
            self._fsync()

    def _fsync(self) -> None:
        if self._pending_sync and not self._file.closed:
            try:
                os.fsync(self._file.fileno())
            except OSError:  # pragma: no cover - fsync-less filesystems
                pass
            self._pending_sync = 0

    def running(self, index: int, attempt: int) -> None:
        self._append({"i": index, "state": "running", "attempt": attempt})

    def done(
        self,
        index: int,
        metrics: Mapping[str, Any],
        wall_time: float,
        *,
        source: str = "exec",
    ) -> None:
        # Metrics ride inline (insertion order preserved by JSON objects),
        # so a resumed store replays byte-identically without needing the
        # result cache.
        self._append(
            {
                "i": index,
                "state": "done",
                "metrics": dict(metrics),
                "wall_time": wall_time,
                "source": source,
            }
        )

    def failed(self, index: int, attempt: int, error: str) -> None:
        self._append({"i": index, "state": "failed", "attempt": attempt, "error": error})

    def quarantined(
        self, index: int, error: str, traceback: str, attempts: int
    ) -> None:
        self._append(
            {
                "i": index,
                "state": "quarantined",
                "error": error,
                "traceback": traceback,
                "attempts": attempts,
            }
        )

    def complete(self) -> None:
        """Mark the sweep finished (resume of a complete journal is a no-op)."""
        self._append({"state": "complete"})
        self._fsync()

    # ------------------------------------------------------------------ close

    def close(self) -> None:
        if not self._file.closed:
            self._fsync()
            self._file.close()

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
