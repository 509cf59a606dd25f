"""Chaos mode for the serving layer: seeded per-request fault injection.

Reuses the runner's :class:`~repro.runner.faults.FaultPlan` vocabulary, but
resolved over *request indices* instead of sweep grid points
(:meth:`~repro.runner.faults.FaultPlan.assign_keys`), and limited to the
kinds that make sense inside a long-lived server:

* ``exception`` — the live-planner call for that request raises;
* ``hang`` — the live-planner call stalls ``hang_seconds`` (long enough to
  trip the service's ``planner_timeout`` and feed the circuit breaker);
* ``corrupt`` — that request's table read fails integrity validation, as
  if it had raced a torn write.  Interposed in memory, per request — the
  on-disk artifact stays intact, so the *expected* tier counters are an
  exact function of the plan rather than of quarantine side effects.

``kill`` / ``kill_sweep`` are process-level faults with no per-request
analogue in a server; a plan carrying them is rejected eagerly.

Because the plan is seeded and resolution is deterministic, the serving
acceptance test can walk the same assignment the injector uses and predict
every counter — 100 % valid decisions is then a *checked* claim, not a
hopeful one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError
from repro.runner.faults import FaultAssignment, FaultPlan, InjectedFaultError

__all__ = ["RequestFaults", "SERVING_FAULT_KINDS", "ServingFaultInjector"]

#: Fault kinds a serving chaos plan may carry.
SERVING_FAULT_KINDS = ("exception", "hang", "corrupt")


@dataclass(frozen=True)
class RequestFaults:
    """The faults armed around one request: at most one of each family."""

    #: ``"exception"`` / ``"hang"`` to fire inside the planner call, or None.
    planner_kind: Optional[str]
    #: Whether this request's table read is corrupted.
    corrupt: bool
    hang_seconds: float

    def perform_planner_fault(self) -> None:
        """Fire the armed planner fault (no-op when none is armed)."""
        if self.planner_kind == "exception":
            raise InjectedFaultError("injected serving fault")
        if self.planner_kind == "hang":
            time.sleep(self.hang_seconds)


#: The no-fault request (what un-armed indices receive).
NO_REQUEST_FAULTS = RequestFaults(planner_kind=None, corrupt=False, hang_seconds=0.0)


class ServingFaultInjector:
    """A :class:`FaultPlan` resolved over a fixed-length request stream.

    Parameters
    ----------
    plan:
        The chaos plan (``exception`` rate, ``hangs`` / ``corrupt`` counts,
        targeted ``kind@index`` entries).  Kill kinds are rejected.
    requests:
        Length of the request stream the plan is resolved against.
        Requests beyond this window run fault-free — the injector is for
        bounded acceptance workloads, not open-ended sabotage.
    """

    def __init__(self, plan: FaultPlan, requests: int) -> None:
        if requests < 1:
            raise ConfigurationError(
                f"a serving fault injector needs at least 1 request, got {requests!r}"
            )
        forbidden = [t.kind for t in plan.targets if t.kind not in SERVING_FAULT_KINDS]
        if plan.kills:
            forbidden.append("kill")
        if forbidden:
            raise ConfigurationError(
                f"fault kind(s) {sorted(set(forbidden))} have no per-request "
                f"meaning in the serving layer; usable kinds: "
                f"{', '.join(SERVING_FAULT_KINDS)}"
            )
        self.plan = plan
        self.requests = requests
        self.assignment: FaultAssignment = plan.assign_keys(
            [f"request:{i}" for i in range(requests)]
        )

    def faults_for(self, index: int) -> RequestFaults:
        """The faults armed around request ``index`` (first attempt)."""
        kind = self.assignment.fault_for(index, 0)
        return RequestFaults(
            planner_kind=kind,
            corrupt=index in self.assignment.corrupt,
            hang_seconds=self.assignment.hang_seconds,
        )
