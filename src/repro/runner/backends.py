"""Execution backends: one run loop, executed inline or process-per-point.

Every backend is a :class:`RunnerBase` and exposes the same two operations:

* ``run(specs)`` — execute registered :class:`~repro.runner.spec.ScenarioSpec`
  points and aggregate their metrics into a
  :class:`~repro.runner.results.ResultStore`.  One loop serves every
  backend and policy: *resolve* what is already known (the sweep journal
  when resuming, then the :class:`~repro.runner.cache.ResultCache`),
  *execute* what is still pending, *record* each point the moment it
  completes (journal line, cache entry), *assemble* in spec order.  A warm
  run therefore comes back bit-identical to the cold run that populated
  the cache, and a failing or interrupted sweep keeps every point that had
  already completed;
* ``map(fn, kwargs_list)`` — execute an arbitrary top-level function once
  per kwargs dict (what the experiment sweeps use, since they return rich
  result dataclasses rather than flat metric dicts).

The two backends differ only in *where* a pending point executes:
:class:`SerialRunner` in the calling process, :class:`ParallelRunner` in
one worker process per in-flight point; :mod:`repro.runner.supervise` is
the executor behind both.  "Plain" versus "supervised" is a *policy* of
that executor, not a second path.

Results always come back in input order, and element-name counters are
reset before every point, so a sweep's outcome is a pure function of its
specs and seeds — identical serially, in parallel, and at any worker
count.  Only picklable results cross process boundaries: dataclasses and
metric dicts qualify; closures do not.

The two are named in :data:`RUNNERS`, the one lookup behind both
``--backend parallel`` on the CLI and ``make_runner("parallel")`` in code.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from pathlib import Path
from typing import Any, Callable, Mapping, Optional, Sequence

from repro._persist import cache_dir_override
from repro.errors import ConfigurationError
from repro.runner.cache import ResultCache
from repro.runner.faults import NO_FAULTS, FaultAssignment, corrupt_entry
from repro.runner.journal import SweepJournal, journal_path, replay_journal
from repro.runner.registry import DEFAULT_REGISTRY, ScenarioRegistry
from repro.runner.results import PointResult, ResultStore
from repro.runner.spec import ScenarioSpec, grid_digest
from repro.runner.supervise import (
    Supervision,
    SupervisedJob,
    SupervisedOutcome,
    run_supervised,
)
from repro.sim.element import fresh_instance_counters


def _execute_point(
    task: tuple[ScenarioRegistry | None, ScenarioSpec, str | None]
) -> PointResult:
    """Run one registered spec (top-level so worker processes can import it).

    ``task`` carries the runner's cache directory (or ``None``): it is
    exported as ``$REPRO_CACHE_DIR`` around this one execution, in this
    process, so scenario internals that cache their own artifacts — the
    policy-table precompute — share the directory whether the run was
    launched from the CLI or programmatically, and concurrent runs with
    different caches never see each other's export.
    """
    registry, spec, cache_env = task
    registry = registry if registry is not None else DEFAULT_REGISTRY
    with fresh_instance_counters(), cache_dir_override(cache_env):
        started = time.perf_counter()
        metrics = registry.run_point(spec)
        return PointResult(spec=spec, metrics=metrics, wall_time=time.perf_counter() - started)


def _execute_call(task: tuple[Callable[..., Any], Mapping[str, Any]]) -> Any:
    """Run one ``fn(**kwargs)`` task (top-level for picklability)."""
    fn, kwargs = task
    with fresh_instance_counters():
        return fn(**kwargs)


class RunnerBase:
    """The run loop and its executor; subclasses choose where points execute.

    Parameters
    ----------
    workers:
        Most points the process backend keeps in flight at once; defaults
        to the machine's CPU count.  The serial backend accepts and ignores
        it, so both backends share one construction signature and
        ``make_runner`` can build either.
    registry:
        Registry to resolve spec names against (defaults to the
        process-wide one).  Worker processes start by the platform's
        default method (``fork`` on Linux, which avoids re-import cost);
        where that is not ``fork``, a custom registry must hold
        module-level functions, so it can be pickled.
    cache:
        Optional :class:`~repro.runner.cache.ResultCache`.  ``run`` then
        consults it per point before executing, stores every freshly
        executed point as it completes, and stamps the returned store's
        ``cache_hits`` / ``cache_misses``.
    supervision:
        Optional :class:`~repro.runner.supervise.Supervision` policy:
        per-point retries with seeded backoff, quarantine instead of sweep
        poisoning, fault injection, heartbeat timeouts (process backend)
        and — when a journal location exists — a durable, resumable sweep
        journal.  ``None`` is the plain policy: no retries, no journal,
        and the first failing point's own exception ends the sweep.
    resume:
        Skip points a prior (killed) run of the *same grid* already
        journalled as done, and re-enqueue everything that was in flight.
        Implies supervision; requires a journal location.
    journal_dir:
        Where sweep journals live.  Defaults to the cache directory when a
        cache is attached; an explicit value enables journalling without a
        result cache (and implies supervision).
    """

    backend_name = "base"

    def __init__(
        self,
        workers: int | None = None,
        registry: ScenarioRegistry | None = None,
        cache: Optional[ResultCache] = None,
        supervision: Optional[Supervision] = None,
        resume: bool = False,
        journal_dir: "str | os.PathLike[str] | None" = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers!r}")
        self.workers = workers
        self._registry = registry
        self.cache = cache
        self.resume = bool(resume)
        self.journal_dir = Path(journal_dir) if journal_dir is not None else None
        if supervision is None and (self.resume or self.journal_dir is not None):
            supervision = Supervision()
        self.supervision = supervision
        if self.resume and self._journal_root() is None:
            raise ConfigurationError(
                "resume=True needs a journal location: attach a cache "
                "(cache=/cache_dir=) or pass journal_dir="
            )

    def _journal_root(self) -> Optional[Path]:
        if self.journal_dir is not None:
            return self.journal_dir
        return self.cache.root if self.cache is not None else None

    # ---------------------------------------------------------------- executor

    def _mp_context(self) -> Any:
        """The multiprocessing context points execute under.

        ``None`` means inline execution (the serial backend): retries and
        quarantine still apply, but hangs cannot be preempted and kill
        faults take the sweep process down (the journal covers that).
        """
        return None

    def _execute(
        self,
        jobs: list[SupervisedJob],
        worker: Callable[[Any], Any],
        record: Callable[[int, Any], None],
        supervision: Optional[Supervision] = None,
        assignment: FaultAssignment = NO_FAULTS,
        journal: Optional[SweepJournal] = None,
    ) -> SupervisedOutcome:
        return run_supervised(
            jobs,
            worker,
            record,
            supervision=supervision,
            assignment=assignment,
            journal=journal,
            workers=self.workers or os.cpu_count() or 1,
            mp_context=self._mp_context(),
        )

    def map(self, fn: Callable[..., Any], tasks: Sequence[Mapping[str, Any]]) -> list[Any]:
        """Run ``fn(**kwargs)`` per task, preserving input order.

        Always the plain policy — a rich-result list has no place for a
        quarantined hole — so the first failing task's exception surfaces.
        """
        results: dict[int, Any] = {}
        jobs = [
            SupervisedJob(index, f"{fn.__name__}[{index}]", (fn, kwargs))
            for index, kwargs in enumerate(tasks)
        ]
        self._execute(jobs, _execute_call, results.__setitem__)
        return [results[index] for index in range(len(jobs))]

    # --------------------------------------------------------------------- run

    def run(self, specs: Sequence[ScenarioSpec]) -> ResultStore:
        """Execute registered scenario points and aggregate their metrics.

        Resolve, execute, record, assemble.  Resolve: with ``resume``, the
        sweep journal's ``done`` records are replayed first; with a cache
        attached, each remaining point's fingerprint-derived key is looked
        up.  Execute: only what is still pending goes to the executor,
        under this runner's policy.  Record: a point is journalled and
        cached the moment it completes, so a killed sweep resumes mid-grid,
        re-executes only what was in flight, and a failing point never
        discards its finished siblings.  Assemble: the store is in spec
        order with quarantined points set aside, and is byte-identical to
        an uninterrupted cold run when nothing was quarantined.
        """
        specs = list(specs)
        supervision, cache = self.supervision, self.cache
        assignment = NO_FAULTS
        if supervision is not None and supervision.fault_plan is not None:
            assignment = supervision.fault_plan.assign(specs)

        results: dict[int, PointResult] = {}
        journal: Optional[SweepJournal] = None
        journal_root = self._journal_root() if supervision is not None else None
        if journal_root is not None:
            digest = grid_digest(specs)
            path = journal_path(journal_root, digest)
            if self.resume:
                for index, record in replay_journal(path).done.items():
                    if 0 <= index < len(specs):
                        prior = PointResult.from_record(specs[index], record)
                        if prior is not None:
                            results[index] = prior
            journal = SweepJournal(
                path, grid=digest, points=len(specs), append=self.resume
            )
        resumed = len(results)
        try:
            keys: dict[int, str] = {}
            corrupt_before = cache.corrupt if cache is not None else 0
            if cache is not None:
                for index, spec in enumerate(specs):
                    if index in results:
                        continue
                    key = keys[index] = cache.point_key(spec, registry=self._registry)
                    cached = cache.load_point(key, spec)
                    if cached is not None:
                        results[index] = cached
                        if journal is not None:
                            journal.done(
                                index, cached.metrics, cached.wall_time, source="cache"
                            )
            hits = len(results) - resumed

            pending = [index for index in range(len(specs)) if index not in results]
            outcome: Optional[SupervisedOutcome] = None
            if pending:
                cache_env = str(cache.root) if cache is not None else None

                def record(index: int, result: PointResult) -> None:
                    if journal is not None:
                        journal.done(index, result.metrics, result.wall_time)
                    if cache is not None:
                        stored = cache.store_point(keys[index], result)
                        if index in assignment.corrupt:
                            corrupt_entry(stored)
                    results[index] = result

                outcome = self._execute(
                    [
                        SupervisedJob(
                            index, specs[index], (self._registry, specs[index], cache_env)
                        )
                        for index in pending
                    ],
                    _execute_point,
                    record,
                    supervision=supervision,
                    assignment=assignment,
                    journal=journal,
                )
            if journal is not None:
                journal.complete()
        finally:
            if journal is not None:
                journal.close()

        store = ResultStore()
        store.extend(results[index] for index in range(len(specs)) if index in results)
        if outcome is not None:
            store.quarantined = [
                outcome.quarantined[index] for index in sorted(outcome.quarantined)
            ]
            store.partial = bool(store.quarantined)
            store.retries = outcome.retries
        if cache is not None:
            store.cache_hits = hits
            store.cache_misses = len(pending)
            store.cache_corrupt = cache.corrupt - corrupt_before
        store.resumed = resumed
        return store


class SerialRunner(RunnerBase):
    """Runs every point in the current process, one after another.

    The default backend: zero overhead, ideal for tiny sweeps and for unit
    tests, and the reference a parallel run must reproduce byte-for-byte.
    """

    backend_name = "serial"


class ParallelRunner(RunnerBase):
    """Runs each in-flight point in its own worker process.

    Process-per-point rather than a pool: it costs a fork per point (≈5 ms,
    against sweep points of 0.1–3 s) and in exchange the runner holds a pid
    for every point in flight — a hung or dying worker is killed and its
    point retried, a failing point or Ctrl-C stops the siblings at once —
    and points are handed out one at a time, the best load balance for
    heterogeneous grids like an α sweep, where the aggressive senders
    simulate many more events than the deferential ones.
    """

    backend_name = "parallel"

    def _mp_context(self) -> Any:
        return multiprocessing.get_context()


#: The two backends, by the name ``make_runner`` and ``--backend`` take.
RUNNERS = {"serial": SerialRunner, "parallel": ParallelRunner}


def make_runner(
    backend: str = "serial",
    workers: int | None = None,
    registry: ScenarioRegistry | None = None,
    cache: Optional[ResultCache] = None,
    cache_dir: "str | os.PathLike[str] | None" = None,
    supervision: Optional[Supervision] = None,
    resume: bool = False,
    journal_dir: "str | os.PathLike[str] | None" = None,
) -> RunnerBase:
    """Build a backend by name — the switch the CLI and examples expose.

    ``cache_dir`` is shorthand for ``cache=ResultCache(cache_dir)``; an
    explicit ``cache`` instance wins when both are given.  ``workers`` is
    accepted (and ignored) by the serial backend so sweep code can thread
    one knob through regardless of the chosen backend.  ``supervision``,
    ``resume`` and ``journal_dir`` select the fault-tolerance policy (see
    :class:`RunnerBase`).
    """
    if backend not in RUNNERS:
        raise ConfigurationError(
            f"unknown runner backend {backend!r}; expected one of {', '.join(RUNNERS)}"
        )
    cls = RUNNERS[backend]
    if cache is None and cache_dir is not None:
        cache = ResultCache(cache_dir)
    return cls(
        workers=workers,
        registry=registry,
        cache=cache,
        supervision=supervision,
        resume=resume,
        journal_dir=journal_dir,
    )


def run_specs(
    specs: Sequence[ScenarioSpec],
    backend: str = "serial",
    workers: int | None = None,
    registry: ScenarioRegistry | None = None,
    cache: Optional[ResultCache] = None,
    cache_dir: "str | os.PathLike[str] | None" = None,
    supervision: Optional[Supervision] = None,
    resume: bool = False,
    journal_dir: "str | os.PathLike[str] | None" = None,
) -> ResultStore:
    """One-call convenience: build a backend and run ``specs`` through it."""
    return make_runner(
        backend=backend,
        workers=workers,
        registry=registry,
        cache=cache,
        cache_dir=cache_dir,
        supervision=supervision,
        resume=resume,
        journal_dir=journal_dir,
    ).run(specs)
