"""The tiered decision fallback chain: table → live planner → safe default.

Every request is answered by the first tier that can produce a decision,
so every failure mode degrades to a *correct (if slower or coarser)*
answer instead of an error:

1. **Policy-table lookup** — the served
   :class:`~repro.api.policy.PolicyTable` version for the request's config
   fingerprint, consulted at the request's decision signature.  Integrity
   failures quarantine the artifact and read as a miss.
2. **Live planning** — the config's own
   :class:`~repro.core.planner.ExpectedUtilityPlanner` run on a canonical
   belief reconstructed from the signature (:func:`belief_from_signature`),
   bounded by a per-call timeout and guarded by a per-config
   :class:`~repro.serving.breaker.CircuitBreaker`.  Only a signature whose
   every row's assignment digest names a point of the config's prior is
   planned; anything else goes to tier 3 without touching the breaker.
3. **Safe default** — the documented conservative action (see
   :func:`safe_default_decision`): wait one packet service time at the
   slowest link speed the config's prior entertains.  The paper breaks
   planning ties toward the longer delay so an indifferent sender does not
   flood the network (§3.2); the safe default extends that rule to the case
   where utilities cannot be evaluated at all — the most cautious answer
   that still makes forward progress.
"""

from __future__ import annotations

import concurrent.futures
import queue
import threading
import time
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from repro.api.config import SenderConfig
from repro.api.policy import decision_to_payload
from repro.core.actions import Action
from repro.core.planner import Decision, ExpectedUtilityPlanner
from repro.errors import CircuitOpenError, ServingError
from repro.inference.belief import BeliefState
from repro.inference.hypothesis import Hypothesis
from repro.serving.breaker import CircuitBreaker
from repro.serving.registry import PolicyTableRegistry

__all__ = [
    "DecisionService",
    "ServedDecision",
    "ServingCounters",
    "belief_from_signature",
    "safe_default_decision",
]

#: Serving tiers, in degradation order.
TIERS = ("table", "planner", "default")

#: Weight floor applied when reconstructing a belief from a signature —
#: signature weights are rounded to 3 decimals, so a top-k tail entry can
#: arrive as exactly 0.0 and must not degenerate the ensemble.
_WEIGHT_FLOOR = 1e-6

#: Fallback safe-default delay (seconds) when a config is unknown: one
#: default-size packet at the slowest link speed any built-in prior
#: entertains (8 kbit/s, the single-link prior's floor).
DEFAULT_SAFE_DELAY = 1_500.0 / 8_000.0


def belief_from_signature(
    signature: tuple,
    assignments: Mapping[str, Mapping[str, float]],
    *,
    queue_resolution_bits: float,
    now: float = 0.0,
) -> BeliefState:
    """The canonical belief state a decision signature describes.

    A :meth:`~repro.inference.belief.BeliefState.decision_signature` is, by
    construction, everything the planner's decision depends on: per top
    hypothesis the digest of its parameter assignment, the (rounded)
    weight, the gate state, the queue occupancy rounded to
    ``queue_resolution_bits``, and whether the link is busy.  This inverts
    it into a concrete ensemble — one
    :class:`~repro.inference.hypothesis.Hypothesis` per signature row, built
    from the assignment ``assignments`` (the config's
    :meth:`~repro.inference.prior.Prior.points_by_digest`) holds under the
    row's digest, with the queue refilled to the row's occupancy — so tier 2
    can run the *live planner* on exactly the state the table would have
    been keyed by.

    Canonicalization notes: occupancy is refilled as buffer fill (a busy
    row with zero rounded backlog gets a quarter-resolution filler so the
    link is genuinely transmitting), and renormalization may move a rounded
    weight by up to half an ulp of the 3-decimal rounding.  Both are below
    the signature's own resolution — the digest was lossy first.
    """
    if not signature:
        raise ServingError("cannot reconstruct a belief from an empty signature")
    hypotheses: list[Hypothesis] = []
    weights: list[float] = []
    for row in signature:
        try:
            digest, weight, gate_on, backlog_rounds, busy = row
            params = assignments[digest]
        except (TypeError, ValueError, KeyError) as error:
            raise ServingError(f"malformed signature row {row!r}: {error}") from error
        capacity = float(params["buffer_capacity_bits"])
        fill = float(backlog_rounds) * queue_resolution_bits
        if busy and fill <= 0.0:
            fill = min(queue_resolution_bits * 0.25, capacity)
        if not busy:
            fill = 0.0
        fill = min(fill, capacity)
        hypothesis = Hypothesis.from_params(
            params, start_time=now, initial_fill_bits=fill
        )
        hypothesis.model.set_gate(bool(gate_on), now)
        hypotheses.append(hypothesis)
        weights.append(max(float(weight), _WEIGHT_FLOOR))
    return BeliefState(hypotheses, weights)


def safe_default_decision(config: Optional[SenderConfig] = None) -> Decision:
    """The documented tier-3 action: the most conservative useful send.

    With a known config, the delay is one packet service time at the
    *slowest* link speed in the config's prior support — under every
    hypothesis the sender entertains, waiting that long cannot build queue.
    Without a config (or a prior), :data:`DEFAULT_SAFE_DELAY` applies the
    same rule at the built-in priors' global floor.  Provenance: the
    planner already breaks ties toward longer delays so an indifferent
    sender does not flood the network (§3.2); this is that rule, applied
    when no utilities can be evaluated at all.
    """
    delay = DEFAULT_SAFE_DELAY
    if config is not None:
        rates = []
        if config.prior is not None:
            rates = [
                assignment["link_rate_bps"]
                for assignment, _ in config.prior.combinations()
                if assignment.get("link_rate_bps", 0) > 0
            ]
        slowest = min(rates) if rates else 8_000.0
        delay = config.packet_bits / slowest
    return Decision(action=Action(delay))


class _DaemonThreadExecutor:
    """Runs each call on a daemon thread, reusing threads that finished.

    ``concurrent.futures.ThreadPoolExecutor`` joins its workers at
    interpreter shutdown, so a single abandoned hang — a tier-2 planner
    wedged for real, or stalled by an injected ``hang`` fault — would hold
    the whole process hostage for the hang's duration, and a pool of
    bounded width could be starved into nondeterministic timeouts by a few
    leaked hangs.  Daemon threads make abandonment safe and independent:
    the timed-out call keeps running harmlessly off to the side and dies
    with the process.

    Reuse rule: a worker that *settled its call's future* parks on an idle
    stack (at most :attr:`MAX_IDLE` deep, until :meth:`close`) and
    :meth:`submit` hands the next call to the most recently parked worker,
    starting a thread only when none is parked.  A future stays cancellable
    while its call runs, and ``future.cancel()`` is how a waiter abandons
    it: the worker then finds the future already cancelled, never parks and
    exits when (if) its call returns, so a hung thread is never handed a
    later request.  Measured on ``serve_planner``'s 1.5 ms plans, ``decide``
    minus rebuild-and-plan was 0.28-0.35 ms with a fresh thread per call
    (``Thread.start`` waits for the new thread to come up) and 0.16-0.19 ms
    with a parked one; admission control bounds how many are in flight.
    """

    MAX_IDLE = 8

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: list[queue.SimpleQueue] = []  # inboxes of parked workers

    def close(self) -> None:
        """Let the parked workers exit; a later submit starts a fresh one."""
        with self._lock:
            parked, self._idle = self._idle, []
        for inbox in parked:
            inbox.put(None)

    def submit(self, fn) -> concurrent.futures.Future:
        future: concurrent.futures.Future = concurrent.futures.Future()
        with self._lock:
            inbox = self._idle.pop() if self._idle else None
        if inbox is None:
            inbox = queue.SimpleQueue()
            threading.Thread(
                target=self._work, args=(inbox,), daemon=True,
                name="repro-serving-planner",
            ).start()
        inbox.put((fn, future))
        return future

    def _work(self, inbox: queue.SimpleQueue) -> None:
        while (call := inbox.get()) is not None:
            fn, future = call
            try:
                settle, outcome = future.set_result, fn()
            except BaseException as error:  # noqa: BLE001 - relayed via future
                settle, outcome = future.set_exception, error
            # Settle and park under one lock, so the woken waiter's next
            # submit already finds this worker instead of starting another.
            with self._lock:
                try:
                    settle(outcome)
                except concurrent.futures.InvalidStateError:
                    return  # abandoned while running: never reused
                if len(self._idle) >= self.MAX_IDLE:
                    return
                self._idle.append(inbox)


@dataclass
class ServingCounters:
    """Per-tier request accounting, surfaced in responses and ``/metrics``.

    ``table_hits`` + ``planner_fallbacks`` + ``default_served`` equals
    ``requests`` minus ``shed`` (a shed request is answered with the safe
    default but counted only as shed).  ``breaker_open`` counts requests
    that skipped the planner tier because the circuit was open (each also
    counts in ``default_served``); ``table_corrupt`` counts tier-1 misses
    caused by integrity failures (quarantines plus injected corruption);
    ``planner_failures`` counts tier-2 attempts that errored or timed out.
    ``errors`` counts requests that produced no decision at all — by
    construction it stays zero unless the safe-default tier itself raises.
    """

    requests: int = 0
    table_hits: int = 0
    table_misses: int = 0
    table_corrupt: int = 0
    planner_fallbacks: int = 0
    planner_failures: int = 0
    breaker_open: int = 0
    default_served: int = 0
    shed: int = 0
    errors: int = 0

    def snapshot(self) -> dict:
        return {
            "requests": self.requests,
            "table_hits": self.table_hits,
            "table_misses": self.table_misses,
            "table_corrupt": self.table_corrupt,
            "planner_fallbacks": self.planner_fallbacks,
            "planner_failures": self.planner_failures,
            "breaker_open": self.breaker_open,
            "default_served": self.default_served,
            "shed": self.shed,
            "errors": self.errors,
        }


@dataclass(frozen=True)
class ServedDecision:
    """One answered request: the decision, its tier, and bookkeeping."""

    status: str  # "ok" | "overloaded"
    tier: str  # one of TIERS
    decision: Decision
    fingerprint: str
    known_config: bool
    table_digest: Optional[str] = None

    def to_payload(self, counters: Optional[dict] = None) -> dict:
        """The wire form of this response."""
        payload = {
            "status": self.status,
            "tier": self.tier,
            "fingerprint": self.fingerprint,
            "known_config": self.known_config,
            "decision": decision_to_payload(self.decision),
        }
        if self.table_digest is not None:
            payload["table_digest"] = self.table_digest
        if counters is not None:
            payload["counters"] = counters
        return payload


class DecisionService:
    """The fallback chain behind every transport (HTTP server, in-process).

    Parameters
    ----------
    registry:
        The :class:`~repro.serving.registry.PolicyTableRegistry` tier 1
        reads from (hot-reloadable, shared between instances).
    configs:
        The :class:`~repro.api.config.SenderConfig` objects this server
        can plan live for, keyed by fingerprint, at the points of their
        priors (a config without a prior is never planned live).
        Fingerprints outside this set still get tier-1 answers when a table
        is published, and the global safe default otherwise.
    planner_timeout:
        Seconds a live planning call may run before it is abandoned and
        counted as a failure (the breaker's trip signal for hangs).
    breaker_threshold / breaker_cooldown / breaker_cooldown_cap / breaker_seed:
        Per-config :class:`~repro.serving.breaker.CircuitBreaker` shape.
    injector:
        Optional :class:`~repro.serving.chaos.ServingFaultInjector`; chaos
        mode for the acceptance tests and ``--inject-faults``.

    Thread-safe; one instance serves arbitrarily many transports.  Live
    planning runs on reused daemon threads (:class:`_DaemonThreadExecutor`),
    so an abandoned hang never starves later requests or blocks process exit.
    """

    def __init__(
        self,
        registry: PolicyTableRegistry,
        configs: Iterable[SenderConfig] = (),
        *,
        planner_timeout: float = 2.0,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 5.0,
        breaker_cooldown_cap: float = 300.0,
        breaker_seed: int = 0,
        injector=None,
    ) -> None:
        self.registry = registry
        self.configs = {config.fingerprint(): config for config in configs}
        # Tier 2's admission test and its way back from a row to a
        # configuration: each config's prior points, keyed by the digest a
        # signature row names them by.
        self._prior_points = {
            fingerprint: config.prior.points_by_digest() if config.prior is not None else {}
            for fingerprint, config in self.configs.items()
        }
        self.planner_timeout = planner_timeout
        self.injector = injector
        self.counters = ServingCounters()
        self._lock = threading.Lock()
        self._planners: dict[str, ExpectedUtilityPlanner] = {}
        self._defaults: dict[str, Decision] = {}
        self._breakers: dict[str, CircuitBreaker] = {}
        self._breaker_shape = dict(
            failure_threshold=breaker_threshold,
            cooldown=breaker_cooldown,
            cooldown_cap=breaker_cooldown_cap,
            seed=breaker_seed,
        )
        self._pool = _DaemonThreadExecutor()
        self._started = time.monotonic()
        self._request_index = 0

    # ------------------------------------------------------------- inspection

    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self._started

    def breaker_states(self) -> dict[str, str]:
        """Current breaker state per known config fingerprint."""
        with self._lock:
            return {key: breaker.state for key, breaker in self._breakers.items()}

    def breaker_for(self, fingerprint: str) -> CircuitBreaker:
        """The (lazily created) breaker guarding one config's planner."""
        with self._lock:
            breaker = self._breakers.get(fingerprint)
            if breaker is None:
                breaker = CircuitBreaker(fingerprint, **self._breaker_shape)
                self._breakers[fingerprint] = breaker
            return breaker

    def close(self) -> None:
        """Release the parked planner threads.  Nothing else to tear down:
        they are daemons and die with the process, and abandoned hangs run
        out harmlessly off to the side."""
        self._pool.close()

    # ----------------------------------------------------------------- tiers

    def _planner_for(
        self, fingerprint: str, config: SenderConfig
    ) -> ExpectedUtilityPlanner:
        with self._lock:
            planner = self._planners.get(fingerprint)
            if planner is None:
                planner = config.build_planner()
                self._planners[fingerprint] = planner
            return planner

    def _default_for(self, fingerprint: str) -> Decision:
        with self._lock:
            decision = self._defaults.get(fingerprint)
            if decision is None:
                decision = safe_default_decision(self.configs.get(fingerprint))
                self._defaults[fingerprint] = decision
            return decision

    def _count(self, counter: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self.counters, counter, getattr(self.counters, counter) + amount)

    def counters_snapshot(self) -> dict:
        with self._lock:
            return self.counters.snapshot()

    # ---------------------------------------------------------------- decide

    def decide(
        self, fingerprint: str, signature: tuple, now: float = 0.0, *, resident_only: bool = False
    ) -> Optional[ServedDecision]:
        """Answer one decision lookup through the fallback chain.

        Never raises for a servable request: every internal failure —
        corrupt table, planner exception, timeout, open breaker — degrades
        to the next tier, and tier 3 cannot fail.  (Malformed *requests*
        are the transport's problem; see the server's 400 handling.)

        With ``resident_only`` the answer is a tier-1 hit on the version
        already in memory, or ``None`` — nothing counted, no fault index
        consumed — when answering would take a version load, a live plan
        or (chaos mode) an injected fault.  That call cannot block, so the
        server makes it on its event loop and repeats the request in the
        executor, without the flag, on ``None``.
        """
        faults = None
        if not resident_only:
            with self._lock:
                self.counters.requests += 1
                request_index = self._request_index
                self._request_index += 1
            if self.injector is not None:
                faults = self.injector.faults_for(request_index)
        elif self.injector is not None:
            return None

        # Tier 1: registry table lookup at the request signature.
        table = None
        if faults is not None and faults.corrupt:
            # Injected table-store corruption: the artifact this request
            # read failed its integrity check.  The on-disk file is left
            # alone so the fault stays per-request (a *real* corrupt file
            # is quarantined by the registry and affects every reader).
            self._count("table_corrupt")
        elif resident_only:
            table = self.registry.lookup(fingerprint, load=False)
        else:
            before = self.registry.corrupt
            table = self.registry.lookup(fingerprint)
            if self.registry.corrupt > before:
                self._count("table_corrupt", self.registry.corrupt - before)
        if table is not None:
            decision = table.decision_for(signature)
            if decision is not None:
                with self._lock:
                    if resident_only:  # a full call counted its request on entry
                        self.counters.requests += 1
                    self.counters.table_hits += 1
                return ServedDecision(
                    status="ok",
                    tier="table",
                    decision=decision,
                    fingerprint=fingerprint,
                    known_config=fingerprint in self.configs,
                    # The version that produced the decision, not a second
                    # CURRENT read a concurrent publish may have moved.
                    table_digest=table.version_digest,
                )
        if resident_only:
            return None
        self._count("table_misses")

        # Tier 2: live planning behind the breaker, for a signature whose every
        # row is a configuration the config's prior holds.  Any other row is
        # one no sender of this config can report (an off-grid link rate, a
        # NaN or zero filler size): tier 3 answers it, and the breaker — which
        # guards the planner for every client — never sees it.
        config = self.configs.get(fingerprint)
        if config is not None and self._on_prior_grid(fingerprint, signature):
            resolution = (
                table.queue_resolution_bits
                if table is not None
                else config.policy_resolution_bits
            )
            try:
                decision = self._plan_live(
                    fingerprint, config, signature, now, resolution, faults
                )
            except CircuitOpenError:
                self._count("breaker_open")
            except Exception:  # noqa: BLE001 - every failure degrades
                self._count("planner_failures")
            else:
                self._count("planner_fallbacks")
                return ServedDecision(
                    status="ok",
                    tier="planner",
                    decision=decision,
                    fingerprint=fingerprint,
                    known_config=True,
                )

        # Tier 3: the safe default always answers.
        self._count("default_served")
        return ServedDecision(
            status="ok",
            tier="default",
            decision=self._default_for(fingerprint),
            fingerprint=fingerprint,
            known_config=config is not None,
        )

    def shed(self, fingerprint: str) -> ServedDecision:
        """Answer a load-shed request: explicit overload, safe default.

        Admission control calls this instead of :meth:`decide`; the client
        still receives a valid (tier-3) decision, but the response is
        marked ``overloaded`` so well-behaved callers back off.
        """
        with self._lock:
            self.counters.requests += 1
            self.counters.shed += 1
        return ServedDecision(
            status="overloaded",
            tier="default",
            decision=self._default_for(fingerprint),
            fingerprint=fingerprint,
            known_config=fingerprint in self.configs,
        )

    def _on_prior_grid(self, fingerprint: str, signature: tuple) -> bool:
        """Whether every row of ``signature`` names a point of the prior."""
        points = self._prior_points[fingerprint]
        try:
            return bool(signature) and all(row[0] in points for row in signature)
        except (TypeError, IndexError):  # an in-process caller's odd shape
            return False

    def _plan_live(
        self,
        fingerprint: str,
        config: SenderConfig,
        signature: tuple,
        now: float,
        queue_resolution_bits: float,
        faults,
    ) -> Decision:
        # ``fingerprint`` is the key ``decide`` found ``config`` under, so no
        # identity is recomputed anywhere on the request path.
        breaker = self.breaker_for(fingerprint)
        if not breaker.allow():
            raise CircuitOpenError(
                f"planner breaker for {fingerprint} is {breaker.state}"
            )
        planner = self._planner_for(fingerprint, config)

        def plan() -> Decision:
            if faults is not None:
                faults.perform_planner_fault()
            belief = belief_from_signature(
                signature,
                self._prior_points[fingerprint],
                queue_resolution_bits=queue_resolution_bits,
                now=now,
            )
            return planner.decide(belief, now)

        future = self._pool.submit(plan)
        try:
            decision = future.result(timeout=self.planner_timeout)
        except BaseException:
            # Timeout, injected exception, or a genuine planner bug: the
            # breaker counts it; cancelling abandons a still-running call,
            # whose daemon thread lasts until the stall ends and is never
            # reused, so a hang cannot starve later requests.
            future.cancel()
            breaker.record_failure()
            raise
        breaker.record_success()
        return decision
