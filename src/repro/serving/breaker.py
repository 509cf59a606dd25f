"""Per-config circuit breaker around the live-planner fallback tier.

A wedged or crashing planner must not drag every request through its
timeout: after ``FAILURE_THRESHOLD`` consecutive failures the breaker
*opens* and the fallback chain skips straight to the safe-default tier.
After a cooldown the breaker goes *half-open* and admits exactly one probe
request; a successful probe closes the circuit, a failed one re-opens it
with a longer cooldown.

Cooldowns reuse the supervised runner's backoff machinery
(:meth:`repro.runner.supervise.Supervision.delay`): exponential growth per
consecutive trip with **deterministic seeded jitter**, so a replayed chaos
run schedules its probes identically — the property that makes the serving
acceptance test's counters exactly predictable from the fault plan.
"""

from __future__ import annotations

import threading
import time
from typing import Callable

from repro.runner.supervise import Supervision

__all__ = ["CircuitBreaker"]

#: Breaker states.
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"

#: Consecutive failures that open the circuit.
FAILURE_THRESHOLD = 3
#: Base of the open-state cooldown, in seconds: trip ``n`` waits
#: ``COOLDOWN * 2**(n-1)``, jittered and capped at :data:`COOLDOWN_CAP`,
#: exactly the supervised runner's retry-backoff rule under seed 0
#: (deterministic across processes).
COOLDOWN = 5.0
#: Longest open-state cooldown, in seconds, however many trips in a row.
COOLDOWN_CAP = 300.0


class CircuitBreaker:
    """Trip on consecutive failures; recover through seeded half-open probes.

    Parameters
    ----------
    key:
        Identity folded into the jitter stream (the serving layer passes
        the config fingerprint), so distinct configs probe at distinct,
        deterministic offsets instead of thundering together.

    It trips after :data:`FAILURE_THRESHOLD` consecutive failures and cools
    down by :data:`COOLDOWN`, on the monotonic clock ``_clock`` (tests
    replace it with a fake one).
    """

    def __init__(self, key: str = "") -> None:
        self.key = key
        self._backoff = Supervision(backoff=COOLDOWN, backoff_cap=COOLDOWN_CAP)
        self._clock: Callable[[], float] = time.monotonic
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._trips = 0
        self._retry_at = 0.0
        self._probing = False
        #: Times the breaker has opened (cumulative, surfaced in /metrics).
        self.opens = 0

    # ------------------------------------------------------------- inspection

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"``, or ``"half_open"`` (without advancing)."""
        with self._lock:
            return self._state

    # ---------------------------------------------------------------- guards

    def allow(self) -> bool:
        """Whether the protected call may run now.

        Closed admits everything.  Open admits nothing until the cooldown
        expires, at which point the breaker turns half-open and admits
        exactly one probe; further calls are refused until that probe
        reports via :meth:`record_success` / :meth:`record_failure`.
        """
        with self._lock:
            if self._state == CLOSED:
                return True
            if self._state == OPEN and self._clock() >= self._retry_at:
                self._state = HALF_OPEN
                self._probing = False
            if self._state == HALF_OPEN and not self._probing:
                self._probing = True
                return True
            return False

    def record_success(self) -> None:
        """The protected call succeeded: close and fully reset the circuit."""
        with self._lock:
            self._state = CLOSED
            self._consecutive_failures = 0
            self._trips = 0
            self._probing = False

    def record_failure(self) -> None:
        """The protected call failed: count it, tripping when the threshold
        is reached (a failed half-open probe re-opens immediately)."""
        with self._lock:
            self._consecutive_failures += 1
            should_open = (
                self._state == HALF_OPEN
                or self._consecutive_failures >= FAILURE_THRESHOLD
            )
            if should_open:
                self._trips += 1
                self.opens += 1
                self._state = OPEN
                self._probing = False
                self._retry_at = self._clock() + self._backoff.delay(
                    f"breaker:{self.key}", self._trips
                )
