"""The sender's action space: "send now" or "sleep until time t" (§3.2).

An :class:`Action` is simply a non-negative delay before the next
transmission; zero means "send now".  :func:`candidate_actions` builds the
list of candidate delays the planner evaluates — the paper's "list of
strategies including sending immediately and at every delay up to the
slowest rate the ISENDER could optimally send".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True, slots=True)
class Action:
    """One candidate strategy: transmit after ``delay`` seconds."""

    delay: float

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ConfigurationError(f"action delay must be non-negative, got {self.delay!r}")

    @property
    def send_now(self) -> bool:
        """Whether this action transmits immediately."""
        return self.delay == 0.0


#: The candidate delays, as multiples of the packet service time at the
#: (currently believed) link speed.  Sending slower than the largest multiple
#: can never be optimal for a throughput-seeking sender, because the sender
#: re-plans when it wakes: the largest multiple bounds how long it sleeps
#: before reconsidering.  0 makes "send now" always an option.
ACTION_MULTIPLES = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 8.0)


def candidate_actions(service_time: float) -> list[Action]:
    """The actions evaluated at a wake-up, given the believed packet service time in seconds."""
    if service_time <= 0:
        raise ConfigurationError(f"service_time must be positive, got {service_time!r}")
    delays: list[float] = []
    for multiple in ACTION_MULTIPLES:
        delay = multiple * service_time
        if delay not in delays:
            delays.append(delay)
    return [Action(delay) for delay in delays]
