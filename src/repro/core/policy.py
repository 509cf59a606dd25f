"""Memoized decisions.

The paper notes (§3.3) that "for a particular model and distribution of
possible states, there will be a policy that can be computed in advance that
prescribes the utility-maximizing behavior".  :class:`PolicyCache` is the
*runtime* version of that observation: it memoizes planner decisions keyed
on a coarse digest of the belief state, so repeated visits to effectively
identical situations (for example the steady state once the parameters have
been inferred) reuse the earlier computation instead of re-simulating every
action.  The *offline* version — a table precomputed ahead of the run and
serializable between processes — is the ``PolicyTable`` of the layer above;
both plug into :class:`~repro.core.isender.ISender` through the same
``policy=`` slot (``SenderConfig(policy="cache" | "table")``).

:class:`SharedPlanner` applies the same observation across senders rather
than across visits: a decision is a function of the model and the belief,
so senders that share one planner and hold the same belief at the same
instant need to plan only once.  Its key is exact
(:meth:`~repro.inference.belief.BeliefState.plan_key`), not coarse, and it
holds only the plans of the current instant, so sharing changes no
decision.  It sits under each sender's own cache or table, in place of the
planner.
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.core.planner import Decision, ExpectedUtilityPlanner
from repro.inference.belief import BeliefState


class PolicyCache:
    """A decision cache keyed on a discretized belief signature.

    Parameters
    ----------
    planner:
        The planner to consult on cache misses.
    queue_resolution_bits:
        Queue occupancies are rounded to this resolution when building the
        cache key; coarser values give more cache hits at the cost of
        slightly stale decisions.
    max_entries:
        Hard cap on the cache size (oldest entries are evicted first).
    """

    #: Whether fallback-planned decisions are stored (subclasses may freeze).
    learn = True

    def __init__(
        self,
        planner: ExpectedUtilityPlanner,
        queue_resolution_bits: float = 3_000.0,
        max_entries: int = 4_096,
    ) -> None:
        self.planner = planner
        self.queue_resolution_bits = queue_resolution_bits
        self.max_entries = max_entries
        self._cache: dict[Hashable, Decision] = {}
        self.hits = 0
        self.misses = 0

    def decide(self, belief: BeliefState, now: float) -> Decision:
        """Return a cached decision when the belief looks the same, else plan."""
        key = self._belief_key(belief)
        cached = self._cache.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        decision = self._plan(belief, now)
        if self.learn:
            self._store(key, decision)
        return decision

    def _plan(self, belief: BeliefState, now: float) -> Decision:
        """Compute a decision for a signature the store does not cover."""
        return self.planner.decide(belief, now)

    def _store(self, key: Hashable, decision: Decision) -> None:
        """Insert one entry, evicting the oldest at the size cap.

        Eviction happens only when ``key`` is genuinely new: an
        update-in-place of an existing entry must never push an unrelated
        cached decision out of the store.
        """
        if key not in self._cache and len(self._cache) >= self.max_entries:
            self._cache.pop(next(iter(self._cache)))
        self._cache[key] = decision

    def clear(self) -> None:
        """Drop every cached decision."""
        self._cache.clear()

    @property
    def size(self) -> int:
        """Number of cached decisions."""
        return len(self._cache)

    def _belief_key(self, belief: BeliefState) -> Hashable:
        """A coarse, time-invariant digest of the belief's decision-relevant state.

        Delegated to :meth:`BeliefState.decision_signature` so the
        vectorized backend can build the digest straight from its ensemble
        rows — keeping the cached decide path free of scalar ``Hypothesis``
        materialization.
        """
        return belief.decision_signature(self.planner.top_k, self.queue_resolution_bits)


class SharedPlanner:
    """One planner shared by identical senders, planning each belief once.

    ``decide`` stores every plan it makes under the belief's exact
    :meth:`~repro.inference.belief.BeliefState.plan_key` and answers a
    repeat at the same ``now`` with the stored :class:`Decision`.  A plan at
    any other instant empties the store first: a plan depends on ``now`` as
    well as on the belief, and time only moves forward in one simulation,
    so the store never holds more than one instant's plans.

    Only senders of one simulation may share it — serving answers every
    request at ``now = 0.0``, where the store would never empty.
    """

    def __init__(self, planner: ExpectedUtilityPlanner) -> None:
        self.planner = planner
        self._now: Optional[float] = None
        self._plans: dict[Hashable, Decision] = {}
        self.hits = 0
        self.misses = 0

    @property
    def top_k(self) -> int:
        """The wrapped planner's top-k (what a policy cache keys on)."""
        return self.planner.top_k

    @property
    def packet_bits(self) -> float:
        """The wrapped planner's packet size (what a sleeping sender reads)."""
        return self.planner.packet_bits

    def decide(self, belief: BeliefState, now: float) -> Decision:
        """The stored plan for this belief at ``now``, else a fresh one."""
        if now != self._now:
            self._plans.clear()
            self._now = now
        key = belief.plan_key(self.planner.top_k)
        decision = self._plans.get(key)
        if decision is not None:
            self.hits += 1
            return decision
        self.misses += 1
        decision = self._plans[key] = self.planner.decide(belief, now)
        return decision
