"""Parallel scenario-runner subsystem.

The runner turns the repo's embarrassingly parallel sweeps (alpha sweeps,
seed fans, loss × delay × buffer grids) into explicit, schedulable work:

* :mod:`repro.runner.spec` — :class:`ScenarioSpec` points and :func:`grid`
  expansion;
* :mod:`repro.runner.registry` — named scenario functions resolvable by
  worker processes;
* :mod:`repro.runner.backends` — :class:`RunnerBase`, the one resolve →
  execute → record → assemble loop, run by :class:`SerialRunner` (default,
  in process) and :class:`ParallelRunner` (one worker process per in-flight
  point); deterministic, and built by name (``"serial"``, ``"parallel"``)
  through :func:`make_runner`;
* :mod:`repro.runner.cache` — :class:`ResultCache`, persistent
  fingerprint-keyed reuse of executed grid points;
* :mod:`repro.runner.results` — :class:`ResultStore`, the canonical
  JSON/CSV artifact runs are compared by;
* :mod:`repro.runner.supervise` — the executor behind both backends, and
  :class:`Supervision`, the policy that adds per-point timeouts, retries
  with deterministic backoff, and quarantine (``None`` is the plain
  policy: no retries, the failing point's own exception);
* :mod:`repro.runner.journal` — :class:`SweepJournal`, the durable
  per-grid record that makes killed sweeps resumable (``--resume``);
* :mod:`repro.runner.faults` — :class:`FaultPlan`, the seeded
  fault-injection harness the robustness tests drive chaos with;
* ``python -m repro.runner`` — the CLI entry point.

Built-in scenarios live in :mod:`repro.runner.scenarios` and are loaded on
first name resolution (keeping imports acyclic with ``repro.experiments``).
"""

from repro.runner.backends import (
    ParallelRunner,
    RunnerBase,
    SerialRunner,
    make_runner,
    run_specs,
)
from repro.runner.cache import CACHE_DIR_ENV, ResultCache, default_cache_dir
from repro.runner.faults import FaultPlan, InjectedFaultError, PointFault
from repro.runner.journal import SweepJournal, journal_path, replay_journal
from repro.runner.registry import DEFAULT_REGISTRY, ScenarioEntry, ScenarioRegistry, scenario
from repro.runner.results import PointResult, QuarantinedPoint, ResultStore
from repro.runner.spec import ScenarioSpec, grid, grid_digest
from repro.runner.supervise import Supervision

__all__ = [
    "CACHE_DIR_ENV",
    "DEFAULT_REGISTRY",
    "FaultPlan",
    "InjectedFaultError",
    "ParallelRunner",
    "PointFault",
    "PointResult",
    "QuarantinedPoint",
    "ResultCache",
    "ResultStore",
    "RunnerBase",
    "ScenarioEntry",
    "ScenarioRegistry",
    "ScenarioSpec",
    "SerialRunner",
    "Supervision",
    "SweepJournal",
    "default_cache_dir",
    "grid",
    "grid_digest",
    "journal_path",
    "make_runner",
    "run_specs",
    "scenario",
]
