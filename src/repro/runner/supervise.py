"""The runner's one executor: attempts, retries, backoff, quarantine.

``RunnerBase.run`` and ``RunnerBase.map`` hand every pending point to
:func:`run_supervised`, which executes it **inline** (the serial backend)
or **process-per-point** (the parallel backend) and asks one
:class:`_Policy` what each failed attempt means:

* process-per-point means every in-flight point runs in its *own* worker
  process (fork-cheap on Linux), so the supervisor holds a pid it can
  actually kill;
* liveness is heartbeat-based — a worker beats once when it starts its
  point, and a point that has not completed within ``point_timeout`` of
  its last beat is killed and treated as hung;
* ``supervision=None`` is the plain policy — no retries, no journal, and
  the failing point's **own** exception ends the sweep (across the pipe
  the worker sends the exception object when it pickles, and its name,
  message and traceback otherwise);
* under a :class:`Supervision`, failures (exceptions, worker death, hangs)
  are retried up to ``max_retries`` times with exponential backoff and
  *deterministic* seeded jitter, so a replayed chaos run schedules
  identically;
* a point that exhausts its retries is **quarantined** — recorded with
  its error and traceback instead of poisoning the sweep — unless
  ``strict`` asks for fail-fast (:class:`~repro.errors.PointFailureError`);
* user-initiated cancellation (``KeyboardInterrupt`` / ``CancelledError``)
  is never retried or quarantined under any policy: all workers are killed
  and the interrupt propagates promptly.

Every completed point goes to the caller's ``record`` callback the moment
it completes, and every other transition to the sweep journal when there
is one, which is what makes a sweep durable and resumable.
"""

from __future__ import annotations

import gc
import hashlib
import os
import pickle
import time
import traceback as traceback_module
from dataclasses import dataclass, field
from heapq import heappop, heappush
from multiprocessing import connection
from typing import Any, Callable, Optional, Sequence

from repro.errors import PointFailureError
from repro.runner.faults import (
    NO_FAULTS,
    KILLED_WORKER_EXIT,
    FaultAssignment,
    FaultPlan,
    perform_fault,
)
from repro.runner.journal import SweepJournal
from repro.runner.results import QuarantinedPoint
from repro.runner.spec import ScenarioSpec

__all__ = [
    "RemoteTraceback",
    "Supervision",
    "SupervisedJob",
    "SupervisedOutcome",
    "run_supervised",
]

#: Exception names from a worker that mean "the user cancelled", which must
#: shut the sweep down promptly instead of being retried or quarantined.
_CANCEL_NAMES = ("KeyboardInterrupt", "CancelledError")

#: Supervisor poll tick (seconds) — bounds hang-detection latency.
_TICK = 0.05

#: Relative width of the retry-backoff jitter: a delay is scaled by a
#: deterministic factor in ``[1 - JITTER/2, 1 + JITTER/2]``.
JITTER = 0.5


@dataclass(frozen=True)
class Supervision:
    """Fault-tolerance policy for one sweep.

    Parameters
    ----------
    max_retries:
        Failed attempts a point may retry before being quarantined (or,
        under ``strict``, failing the sweep).
    point_timeout:
        Seconds a point may run past its last heartbeat before the
        supervisor kills it as hung.  ``None`` disables hang detection.
        Enforced by the process backends; the serial backend executes
        inline and cannot preempt a hung point.
    backoff / backoff_cap:
        Base delay before retry ``k`` is ``backoff * 2**(k-1)``, scaled by
        a :data:`JITTER`-wide factor derived from ``(seed, point identity,
        attempt)`` — seeded, so replays schedule byte-identically — and
        capped at ``backoff_cap``.
    seed:
        Seeds the jitter stream (independent of the points' RNG seeds).
    strict:
        ``True`` restores fail-fast: the first exhausted point raises
        :class:`~repro.errors.PointFailureError`.  The default degrades
        gracefully to partial results with quarantine records.
    fault_plan:
        Optional :class:`~repro.runner.faults.FaultPlan` to inject
        deliberate failures — the chaos harness the recovery paths are
        tested against.
    """

    max_retries: int = 2
    point_timeout: Optional[float] = None
    backoff: float = 0.1
    backoff_cap: float = 5.0
    seed: int = 0
    strict: bool = False
    fault_plan: Optional[FaultPlan] = None

    def delay(self, key: str, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based) of point ``key``."""
        if attempt < 1 or self.backoff <= 0.0:
            return 0.0
        base = self.backoff * 2.0 ** (attempt - 1)
        digest = hashlib.sha256(
            f"{self.seed}:backoff:{key}:{attempt}".encode("utf-8")
        ).digest()
        uniform = int.from_bytes(digest[:8], "big") / 2.0**64
        jittered = base * (1.0 + JITTER * (uniform - 0.5))
        return min(jittered, self.backoff_cap)


@dataclass(frozen=True)
class SupervisedJob:
    """One pending point: its grid index, spec, and the worker's task.

    ``RunnerBase.map`` calls have no spec; they carry a plain label in its
    place, which is all the plain policy (the only one ``map`` runs under)
    ever reads of it.
    """

    index: int
    spec: "ScenarioSpec | str"
    task: Any


@dataclass
class SupervisedOutcome:
    """What an executed fan-out set aside or retried, keyed by grid index.

    Completed results are not collected here: each went to the caller's
    ``record`` callback the moment it completed.
    """

    quarantined: dict[int, QuarantinedPoint] = field(default_factory=dict)
    retries: int = 0


class RemoteTraceback(Exception):
    """A worker's formatted traceback, chained as the ``__cause__`` of the
    exception the supervisor raises for it (the traceback object itself
    cannot cross the pipe)."""

    def __str__(self) -> str:
        return f"\n{self.args[0]}"


# -------------------------------------------------------------------- policy


class _Policy:
    """What each attempt's start, success and failure mean for the sweep.

    Both executors ask this one object, so inline and process-per-point
    runs retry, quarantine and fail identically.  ``supervision=None`` is
    the plain policy: no retries, and the first failure ends the sweep.
    """

    def __init__(
        self,
        supervision: Optional[Supervision],
        assignment: FaultAssignment,
        journal: Optional[SweepJournal],
        record: Callable[[int, Any], None],
    ) -> None:
        self.sup = supervision
        self.assignment = assignment
        self.journal = journal
        self.record = record
        self.outcome = SupervisedOutcome()

    def starting(self, job: SupervisedJob, attempt: int) -> str | None:
        """Journal the attempt; returns the fault armed for it, if any."""
        if self.journal is not None:
            self.journal.running(job.index, attempt)
        return self.assignment.fault_for(job.index, attempt)

    def failed(
        self,
        job: SupervisedJob,
        attempt: int,
        reason: str,
        trace: str = "",
        error: Optional[BaseException] = None,
    ) -> Optional[float]:
        """Decide what a failed attempt means.

        Returns the backoff delay when the point is to be retried, ``None``
        when it was quarantined (the point is finished), and raises when
        the sweep must stop: the point's own exception under the plain
        policy (:class:`~repro.errors.PointFailureError` when there is no
        exception object to raise — a dead worker, an exception that does
        not pickle), ``PointFailureError`` under ``strict``.
        """
        sup = self.sup
        if sup is not None and attempt < sup.max_retries:
            self.outcome.retries += 1
            if self.journal is not None:
                self.journal.failed(job.index, attempt, reason)
            return sup.delay(job.spec.canonical(), attempt + 1)
        attempts = attempt + 1
        if sup is None and error is not None:
            raise error
        if sup is None or sup.strict:
            if error is None and trace:
                error = RemoteTraceback(trace)
            raise PointFailureError(job.spec, attempts, reason) from error
        point = QuarantinedPoint(
            spec=job.spec, error=reason, traceback=trace, attempts=attempts
        )
        self.outcome.quarantined[job.index] = point
        if self.journal is not None:
            self.journal.quarantined(job.index, reason, trace, attempts)
        return None


# --------------------------------------------------------------- worker side


def _child_main(
    conn: connection.Connection,
    worker: Callable[[Any], Any],
    job: SupervisedJob,
    fault: str | None,
    hang_seconds: float,
) -> None:
    """Run one attempt in a dedicated worker process.

    Protocol on ``conn``: ``("beat",)`` once at start (the heartbeat the
    hang detector times against), then ``("ok", result)`` or
    ``("err", type_name, message, traceback, exception_or_None)``.  A
    worker that dies without a final message is classified as killed by
    its exit code.
    """
    try:
        conn.send(("beat",))
        if fault is not None:
            perform_fault(
                fault, hang_seconds=hang_seconds, label=job.spec.label, in_worker=True
            )
        result = worker(job.task)
        conn.send(("ok", result))
    except BaseException as error:  # noqa: BLE001 - everything must be reported
        trace = traceback_module.format_exc()
        try:
            # The object rides along only when it survives the round trip
            # here, so the supervisor's recv can never fail on it.
            pickle.loads(pickle.dumps(error))
            portable: Optional[BaseException] = error
        except Exception:  # noqa: BLE001 - any pickling failure means "send the text"
            portable = None
        try:
            conn.send(("err", type(error).__name__, str(error), trace, portable))
        except Exception:  # pragma: no cover - parent already gone
            pass
    finally:
        try:
            conn.close()
        except Exception:  # pragma: no cover - defensive
            pass
        # Skip interpreter finalization: the result is already delivered,
        # and a forked child's teardown would copy-on-write (and then free)
        # every page it inherited — easily dwarfing the point itself.  The
        # pipe above is the only resource that needed an orderly goodbye.
        os._exit(0)


# ----------------------------------------------------------- supervisor side


@dataclass
class _InFlight:
    """Bookkeeping for one running worker."""

    job: SupervisedJob
    attempt: int
    process: Any
    conn: connection.Connection
    launched: float
    beat: Optional[float] = None
    final: Optional[tuple] = None

    @property
    def deadline_base(self) -> float:
        return self.beat if self.beat is not None else self.launched


class _Driver:
    """Process-per-point executor: at most ``workers`` points in flight."""

    def __init__(
        self,
        jobs: Sequence[SupervisedJob],
        worker: Callable[[Any], Any],
        policy: _Policy,
        workers: int,
        mp_context: Any,
    ) -> None:
        self.worker = worker
        self.policy = policy
        self.point_timeout = (
            policy.sup.point_timeout if policy.sup is not None else None
        )
        self.workers = max(1, workers)
        self.context = mp_context
        self._seq = 0
        #: Min-heap of (ready_at, seq, job, attempt) awaiting a worker slot.
        self.queue: list[tuple[float, int, SupervisedJob, int]] = []
        self.running: dict[Any, _InFlight] = {}  # sentinel → info
        for job in jobs:
            self._enqueue(job, attempt=0, ready_at=0.0)

    # ------------------------------------------------------------- scheduling

    def _enqueue(self, job: SupervisedJob, attempt: int, ready_at: float) -> None:
        heappush(self.queue, (ready_at, self._seq, job, attempt))
        self._seq += 1

    def _launch_ready(self) -> None:
        now = time.monotonic()
        while self.queue and len(self.running) < self.workers and self.queue[0][0] <= now:
            _, _, job, attempt = heappop(self.queue)
            fault = self.policy.starting(job, attempt)
            parent_conn, child_conn = self.context.Pipe(duplex=False)
            process = self.context.Process(
                target=_child_main,
                args=(
                    child_conn,
                    self.worker,
                    job,
                    fault,
                    self.policy.assignment.hang_seconds,
                ),
                daemon=False,
            )
            process.start()
            child_conn.close()
            self.running[process.sentinel] = _InFlight(
                job=job,
                attempt=attempt,
                process=process,
                conn=parent_conn,
                launched=time.monotonic(),
            )

    def _wait_timeout(self) -> float:
        now = time.monotonic()
        timeout = _TICK if self.point_timeout is not None else 0.5
        if self.queue and len(self.running) < self.workers:
            # A retry is backing off into a free slot: wake when it's due.
            # (A ready job with a free slot was already launched, so this
            # delta is positive and the wait never busy-spins.)
            timeout = min(timeout, max(0.0, self.queue[0][0] - now))
        return timeout

    # --------------------------------------------------------------- messages

    def _drain(self, info: _InFlight) -> None:
        try:
            while info.conn.poll(0):
                message = info.conn.recv()
                if message[0] == "beat":
                    info.beat = time.monotonic()
                else:
                    info.final = message
        except (EOFError, OSError):
            pass

    # --------------------------------------------------------------- failures

    def _failure(
        self,
        info: _InFlight,
        reason: str,
        trace: str = "",
        error: Optional[BaseException] = None,
    ) -> None:
        delay = self.policy.failed(info.job, info.attempt, reason, trace, error)
        if delay is not None:
            self._enqueue(info.job, info.attempt + 1, time.monotonic() + delay)

    def _kill_all(self) -> None:
        for info in self.running.values():
            try:
                info.process.kill()
            except Exception:  # pragma: no cover - already dead
                pass
        for info in self.running.values():
            info.process.join()
            info.conn.close()
        self.running.clear()

    # ------------------------------------------------------------ transitions

    def _finalize(self, sentinel: Any) -> None:
        info = self.running.pop(sentinel)
        self._drain(info)
        info.process.join()
        info.conn.close()
        final = info.final
        if final is not None and final[0] == "ok":
            self.policy.record(info.job.index, final[1])
            return
        if final is not None and final[0] == "err":
            _, name, message, trace, error = final
            if name in _CANCEL_NAMES:
                # User-initiated cancellation: never a point failure.
                raise KeyboardInterrupt(message or name)
            if error is not None:
                error.__cause__ = RemoteTraceback(trace)
            self._failure(info, f"{name}: {message}", trace, error)
            return
        code = info.process.exitcode
        label = "injected kill" if code == KILLED_WORKER_EXIT else "worker died"
        self._failure(info, f"{label} (exit code {code})")

    def _reap_hangs(self) -> None:
        if self.point_timeout is None:
            return
        now = time.monotonic()
        for sentinel, info in list(self.running.items()):
            self._drain(info)
            if info.final is not None or not info.process.is_alive():
                continue
            if now - info.deadline_base > self.point_timeout:
                info.process.kill()
                info.process.join()
                info.conn.close()
                self.running.pop(sentinel)
                self._failure(
                    info, f"hang (no result within {self.point_timeout:g}s of last heartbeat)"
                )

    # --------------------------------------------------------------- main loop

    def run(self) -> None:
        # Freeze the heap before fanning out: every point forks a fresh
        # child, and a child's first GC pass would otherwise scan — and
        # copy-on-write — every page inherited from this process, costing
        # more than a short point itself.  Frozen objects are exempt from
        # collection in parent and children alike; unfreeze restores
        # normal collection once the sweep is done.
        gc.collect()
        gc.freeze()
        try:
            while self.queue or self.running:
                self._launch_ready()
                if not self.running:
                    # Every pending retry is backing off; nothing to wait on.
                    time.sleep(min(self._wait_timeout(), _TICK))
                    continue
                ready = connection.wait(
                    list(self.running) + [info.conn for info in self.running.values()],
                    timeout=self._wait_timeout(),
                )
                fired = [
                    (sentinel, info)
                    for sentinel, info in self.running.items()
                    if sentinel in ready or info.conn in ready
                ]
                for sentinel, info in fired:
                    self._drain(info)
                    if info.final is not None or not info.process.is_alive():
                        self._finalize(sentinel)
                self._reap_hangs()
        except BaseException:
            # Whatever stops the sweep — the policy raising, an interrupting
            # point, Ctrl-C in this process — no worker outlives it.
            self._kill_all()
            raise
        finally:
            gc.unfreeze()


def _run_inline(
    jobs: Sequence[SupervisedJob], worker: Callable[[Any], Any], policy: _Policy
) -> None:
    """In-process executor: one point at a time, same policy.

    No preemption is possible here, so ``point_timeout`` is not enforced
    (an injected hang simply sleeps) and ``kill`` faults take the whole
    sweep down — which is exactly what the journal-and-resume path is for.
    """
    for job in jobs:
        attempt = 0
        while True:
            fault = policy.starting(job, attempt)
            try:
                if fault is not None:
                    perform_fault(
                        fault,
                        hang_seconds=policy.assignment.hang_seconds,
                        label=job.spec.label,
                        in_worker=False,
                    )
                result = worker(job.task)
            except BaseException as error:  # noqa: BLE001 - the policy decides
                if (
                    isinstance(error, (KeyboardInterrupt, SystemExit))
                    or type(error).__name__ in _CANCEL_NAMES
                ):
                    raise
                delay = policy.failed(
                    job,
                    attempt,
                    f"{type(error).__name__}: {error}",
                    traceback_module.format_exc(),
                    error,
                )
                if delay is None:
                    break
                time.sleep(delay)
                attempt += 1
            else:
                policy.record(job.index, result)
                break


# ------------------------------------------------------------------ front door


def run_supervised(
    jobs: Sequence[SupervisedJob],
    worker: Callable[[Any], Any],
    record: Callable[[int, Any], None],
    *,
    supervision: Optional[Supervision] = None,
    assignment: FaultAssignment = NO_FAULTS,
    journal: Optional[SweepJournal] = None,
    workers: int = 1,
    mp_context: Any = None,
) -> SupervisedOutcome:
    """Execute ``jobs``, handing each result to ``record`` as it completes.

    ``mp_context`` selects the executor: a :mod:`multiprocessing` context
    runs one worker process per in-flight point (timeouts, kill recovery);
    ``None`` runs inline (the serial backend).  ``supervision`` selects the
    policy (``None``: plain) and ``journal``, when given, is told of every
    attempt's start, failure and quarantine; the caller's ``record`` owns
    the ``done`` line.
    """
    policy = _Policy(supervision, assignment, journal, record)
    if mp_context is None:
        _run_inline(jobs, worker, policy)
    elif jobs:
        _Driver(jobs, worker, policy, workers, mp_context).run()
    return policy.outcome
