"""The paper's primary contribution: model-based transmission control.

* :mod:`repro.core.utility` — explicit instantaneous utility functions
  (§3.3): exponentially discounted throughput, α-weighted cross traffic,
  optional latency penalty.
* :mod:`repro.core.actions` — the action space ("send now" / "sleep until
  *t*") and action-grid construction.
* :mod:`repro.core.planner` — the expected-utility planner that simulates
  the consequences of each candidate action on every hypothesis.
* :mod:`repro.core.isender` — the ISENDER element that ties the belief
  state, the planner, and the real network together.
* :mod:`repro.core.policy` — memoized decisions (the paper's observation
  that the utility-maximizing behaviour can be precomputed into a policy).
"""

from repro.core.actions import ACTION_MULTIPLES, Action, candidate_actions
from repro.core.isender import ISender
from repro.core.planner import Decision, ExpectedUtilityPlanner
from repro.core.policy import PolicyCache
from repro.core.utility import (
    AlphaWeightedUtility,
    LatencyPenaltyUtility,
    UtilityFunction,
)

__all__ = [
    "Action",
    "ACTION_MULTIPLES",
    "candidate_actions",
    "AlphaWeightedUtility",
    "Decision",
    "ExpectedUtilityPlanner",
    "ISender",
    "LatencyPenaltyUtility",
    "PolicyCache",
    "UtilityFunction",
]
