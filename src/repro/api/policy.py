"""§3.3 as a subsystem: precomputed policy tables.

The paper observes that "for a particular model and distribution of
possible states, there will be a policy that can be computed in advance
that prescribes the utility-maximizing behavior".  The repo previously
approximated this with :class:`~repro.core.policy.PolicyCache` — a runtime
memo that forgets everything between processes.  This module promotes the
observation to a first-class artifact:

* :class:`PolicyTable` maps discretized belief signatures (the same digest
  :meth:`~repro.inference.belief.BeliefState.decision_signature` the cache
  uses: per top row an assignment digest, a rounded weight, the gate, the
  rounded backlog and the busy flag) to precomputed
  :class:`~repro.core.planner.Decision` objects.  It
  plugs into :class:`~repro.core.isender.ISender` through the same
  ``policy=`` slot as the cache; signatures outside the table fall back to
  live planning (and are learned, so the table keeps densifying).
* :func:`precompute_policy_table` computes the table **offline**: a pilot
  run of the config's own planning problem on the Figure-2 topology visits
  the signatures the inference transient produces, then a burst-grid sweep
  densifies the queue-occupancy axis of the signature grid around the
  converged belief.  The sweep's decisions are computed through the
  vectorized rollout lanes by default (PR 3's engine), which is what makes
  precomputation cheap enough to run per config.
* Tables serialize to canonical JSON keyed by
  :meth:`~repro.api.config.SenderConfig.fingerprint`, so a table computed
  once can ship with an experiment and refuses to load against a config it
  was not computed for.

The steady-state decide path through a populated table is a signature
computation plus one dict lookup.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro._persist import atomic_write_text, canonical_digest, read_json_or_quarantine
from repro.core.actions import Action
from repro.core.planner import Decision, ExpectedUtilityPlanner
from repro.core.policy import PolicyCache
from repro.errors import ConfigurationError
from repro.inference.belief import BeliefState
from repro.inference.prior import Prior

#: Serialization format version, bumped on incompatible layout changes.
#: Version 2: a signature row names its parameter assignment by digest.
TABLE_SCHEMA_VERSION = 2

#: Sequence-number base for synthetic sweep sends, clear of any real run.
_SWEEP_SEQ_BASE = 2_000_000


def decision_to_payload(decision: Decision) -> dict:
    """The canonical JSON-serializable form of one planner decision.

    The same layout :meth:`PolicyTable.to_payload` stores per entry and the
    serving layer puts on the wire, so a served decision deserializes
    bit-identically to a table entry.
    """
    return {
        "delay": decision.action.delay,
        "horizon": decision.horizon,
        "hypotheses_evaluated": decision.hypotheses_evaluated,
        "expected_utilities": sorted(decision.expected_utilities.items()),
    }


#: What a payload's sequences and numbers arrive as: lists from JSON,
#: tuples from an in-process payload; ``bool`` is not a number here.
_SEQUENCE = (list, tuple)
_NUMBER = (float, int)
_FLOAT_MAX = sys.float_info.max


def _finite(what: str, value) -> float:
    """``value`` as a float, if it is a finite JSON number; else raise."""
    if type(value) not in _NUMBER:
        raise TypeError(f"{what} is a number, not {type(value).__name__}")
    # One comparison rejects NaN, both infinities and an int too big for a
    # float (``float(10**400)`` would raise OverflowError instead).
    if not abs(value) <= _FLOAT_MAX:
        raise ValueError(f"{what} is finite, not {value!r}")
    return float(value)


def decision_from_payload(payload: dict) -> Decision:
    """Rebuild a :class:`~repro.core.planner.Decision` from payload form.

    The payload comes from a table file or the wire, so it is checked here
    for what every planner decision satisfies and ``Action`` alone does not
    (``nan < 0`` is false): a finite ``delay`` ≥ 0, a finite ``horizon``, an
    ``int`` ``hypotheses_evaluated`` ≥ 0 and ``expected_utilities`` as
    ``(delay, value)`` pairs of finite numbers.  Anything else raises
    :class:`TypeError`, :class:`ValueError` or :class:`KeyError`, which both
    table load paths turn into a quarantined file.
    """
    delay = _finite("a decision's delay", payload["delay"])
    if delay < 0:
        raise ValueError(f"a decision's delay is non-negative, not {delay!r}")
    evaluated = payload["hypotheses_evaluated"]
    if type(evaluated) is not int or evaluated < 0:
        raise TypeError(f"hypotheses_evaluated is a non-negative int, not {evaluated!r}")
    utilities = payload["expected_utilities"]
    if type(utilities) not in _SEQUENCE:
        raise TypeError(
            f"expected_utilities is a list of pairs, not {type(utilities).__name__}"
        )
    return Decision(
        action=Action(delay),
        expected_utilities={
            _finite("a candidate delay", candidate): _finite("an expected utility", value)
            for candidate, value in utilities
        },
        hypotheses_evaluated=evaluated,
        horizon=_finite("a decision's horizon", payload["horizon"]),
    )


def signature_from_json(value) -> tuple:
    """A belief decision signature decoded from its JSON (nested-list) form.

    JSON has no tuples, so a signature travelling through a table file or a
    serving request arrives as nested lists; this restores the exact
    hashable tuple :meth:`~repro.inference.belief.BeliefState.decision_signature`
    produces, suitable for direct table lookup.  It knows the signature's
    fixed shape — rows of ``(assignment_digest, weight, gate_on,
    backlog_rounds, busy)``: a ``str``, a finite number, a ``bool``, an
    ``int`` a float can hold and a ``bool`` — and raises :class:`TypeError`
    or :class:`ValueError` for anything else (``NaN`` and ``Infinity``
    included, which Python's JSON reader accepts), so untrusted input never
    reaches a table or a planner as an unhashable, mis-shaped or
    non-finite key.
    """
    if type(value) not in _SEQUENCE:
        raise TypeError(f"a signature is a list of rows, not {type(value).__name__}")
    if not value:
        raise ValueError("a signature has at least one row")
    rows = []
    for row in value:
        if type(row) not in _SEQUENCE:
            raise TypeError(f"a signature row is a list, not {type(row).__name__}")
        digest, weight, gate_on, backlog_rounds, busy = row
        if (
            type(digest) is not str
            or type(weight) not in _NUMBER
            or type(gate_on) is not bool
            or type(backlog_rounds) is not int
            or type(busy) is not bool
        ):
            raise TypeError(
                "a row is (str assignment digest, number weight, bool gate_on, "
                "int backlog_rounds, bool busy)"
            )
        # _finite's test, inline: this runs for every row of every request.
        if not (abs(weight) <= _FLOAT_MAX and abs(backlog_rounds) <= _FLOAT_MAX):
            raise ValueError(f"a row's numbers are finite, not {weight!r}, {backlog_rounds!r}")
        rows.append((digest, weight, gate_on, backlog_rounds, busy))
    return tuple(rows)


class PolicyTable(PolicyCache):
    """Precomputed utility-maximizing decisions over belief signatures.

    A :class:`~repro.core.policy.PolicyCache` whose decide/learn/evict
    mechanics are inherited, specialized for the offline §3.3 workflow:
    the signature ``top_k`` is frozen at precompute time (a deserialized
    table keys exactly as it was computed, whatever planner is attached
    later), the fallback planner is optional until attached, learning can
    be frozen, and the entries serialize to JSON keyed by the owning
    config's fingerprint.  A key names each row's parameter assignment by
    its 16-hex digest, so a Figure-3 ``/decide`` request is about 780 bytes
    of JSON.

    Parameters
    ----------
    planner:
        The planner consulted when a signature is missing from the table
        (and used for ``top_k`` unless the table was deserialized with its
        own).  ``None`` is allowed for a bare deserialized table; attach a
        planner with :meth:`with_planner` before deciding.
    queue_resolution_bits:
        Queue-occupancy resolution of the belief signature (same meaning as
        :class:`~repro.core.policy.PolicyCache`).
    fingerprint:
        The owning :meth:`~repro.api.config.SenderConfig.fingerprint`;
        stored in the JSON artifact and checked on load.
    learn:
        Whether live-planned fallback decisions are added to the table.
    max_entries:
        Hard cap on the table size (oldest entries evicted first).
    """

    #: Whether this instance was read back from a cache directory rather
    #: than computed.  ``False`` by default on every construction path;
    #: :func:`load_or_precompute_policy_table` sets it on cache hits.
    loaded_from_cache = False

    #: Content address of the registry version file this instance was
    #: validated against; set only by
    #: :class:`~repro.serving.registry.PolicyTableRegistry` on load.
    version_digest: Optional[str] = None

    def __init__(
        self,
        planner: Optional[ExpectedUtilityPlanner] = None,
        queue_resolution_bits: float = 3_000.0,
        *,
        top_k: Optional[int] = None,
        fingerprint: str = "",
        learn: bool = True,
        max_entries: int = 65_536,
    ) -> None:
        if queue_resolution_bits <= 0:
            raise ConfigurationError("queue_resolution_bits must be positive")
        if max_entries < 1:
            raise ConfigurationError("max_entries must be at least 1")
        if top_k is None:
            if planner is None:
                raise ConfigurationError(
                    "a PolicyTable needs either a planner or an explicit top_k"
                )
            top_k = planner.top_k
        super().__init__(
            planner,
            queue_resolution_bits=queue_resolution_bits,
            max_entries=max_entries,
        )
        self.top_k = top_k
        self.fingerprint = fingerprint
        self.learn = learn
        #: id(decision) -> (decision, its canonical JSON text); see
        #: :meth:`decision_json`.
        self._decision_json: dict[int, tuple[Decision, str]] = {}

    # ------------------------------------------------------------------ decide

    def _belief_key(self, belief: BeliefState) -> tuple:
        # Unlike the runtime cache, the signature width is frozen at the
        # table's own top_k, not the attached planner's.
        return belief.decision_signature(self.top_k, self.queue_resolution_bits)

    def _plan(self, belief: BeliefState, now: float) -> Decision:
        if self.planner is None:
            raise ConfigurationError(
                "this PolicyTable has no fallback planner attached; call "
                "with_planner(...) before deciding on signatures outside "
                "the table"
            )
        return self.planner.decide(belief, now)

    def seed(self, belief: BeliefState, now: float) -> Decision:
        """Precompute and store the decision for ``belief`` (sweep helper).

        Unlike :meth:`decide` this does not touch the hit/miss counters —
        it is the offline path :func:`precompute_policy_table` drives.
        """
        key = self._belief_key(belief)
        decision = self._cache.get(key)
        if decision is None:
            if self.planner is None:
                raise ConfigurationError("cannot seed a PolicyTable without a planner")
            decision = self.planner.decide(belief, now)
            self._store(key, decision)
        return decision

    # --------------------------------------------------------------- plumbing

    def with_planner(self, planner: ExpectedUtilityPlanner) -> "PolicyTable":
        """Attach the runtime fallback planner; returns the table itself."""
        self.planner = planner
        return self

    def contains(self, belief: BeliefState) -> bool:
        """Whether the belief's current signature has a precomputed decision."""
        return self._belief_key(belief) in self._cache

    def decision_for(self, signature: tuple) -> Optional[Decision]:
        """The precomputed decision stored under ``signature``, or ``None``.

        The serving layer's tier-1 lookup: unlike :meth:`decide` this takes
        the signature itself (a client computes it remotely and ships it
        over the wire), consults no fallback planner, and touches no
        hit/miss counters — the server keeps its own per-tier counters.
        """
        return self._cache.get(signature)

    def decision_json(self, decision: Decision) -> str:
        """``json.dumps(decision_to_payload(decision), sort_keys=True)``, kept
        on this table for each decision it serves.

        The policy server splices this text into every reply carrying the
        decision, so a table hit renders its decision once, not per request
        (a stored decision is never changed in place).  Kept by the decision
        object itself: an entry holds its decision, so the ``id`` it is
        keyed by cannot name another object while it is kept, and no
        second hash of the signature is paid.  The table keeps no more
        texts than it has entries (one, when it has none).
        """
        kept = self._decision_json.get(id(decision))
        if kept is not None and kept[0] is decision:
            return kept[1]
        text = json.dumps(decision_to_payload(decision), sort_keys=True)
        if len(self._decision_json) >= len(self._cache):
            self._decision_json.clear()
        self._decision_json[id(decision)] = (decision, text)
        return text

    def signatures(self) -> list[tuple]:
        """Every signature with a precomputed decision (serving workloads)."""
        return list(self._cache)

    # ------------------------------------------------------------ serialization

    def to_payload(self) -> dict:
        """The canonical JSON-serializable form of this table."""
        entries = []
        for key, decision in self._cache.items():
            entry = decision_to_payload(decision)
            entry["key"] = key
            entries.append(entry)
        return {
            "schema": TABLE_SCHEMA_VERSION,
            "fingerprint": self.fingerprint,
            "queue_resolution_bits": self.queue_resolution_bits,
            "top_k": self.top_k,
            "max_entries": self.max_entries,
            "entries": entries,
        }

    def to_json(self, path: str | Path) -> Path:
        """Write the table to ``path`` as canonical JSON (atomically)."""
        return atomic_write_text(
            Path(path),
            json.dumps(self.to_payload(), sort_keys=True, indent=1) + "\n",
        )

    @classmethod
    def from_payload(
        cls,
        payload: dict,
        planner: Optional[ExpectedUtilityPlanner] = None,
        expected_fingerprint: Optional[str] = None,
        learn: bool = True,
    ) -> "PolicyTable":
        """Rebuild a table from :meth:`to_payload` output."""
        if payload.get("schema") != TABLE_SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported policy-table schema {payload.get('schema')!r} "
                f"(this build reads version {TABLE_SCHEMA_VERSION})"
            )
        fingerprint = payload.get("fingerprint", "")
        if expected_fingerprint is not None and fingerprint != expected_fingerprint:
            raise ConfigurationError(
                f"policy table was precomputed for config fingerprint "
                f"{fingerprint!r}, not {expected_fingerprint!r}; recompute it "
                "with precompute_policy_table(config)"
            )
        table = cls(
            planner,
            queue_resolution_bits=float(payload["queue_resolution_bits"]),
            top_k=int(payload["top_k"]),
            fingerprint=fingerprint,
            learn=learn,
            # Older artifacts (schema 1 before the cap was persisted) omit
            # the key; they were all written with the construction default.
            max_entries=int(payload.get("max_entries", 65_536)),
        )
        for entry in payload["entries"]:
            table._cache[signature_from_json(entry["key"])] = decision_from_payload(entry)
        return table

    @classmethod
    def from_json(
        cls,
        path: str | Path,
        planner: Optional[ExpectedUtilityPlanner] = None,
        expected_fingerprint: Optional[str] = None,
        learn: bool = True,
    ) -> "PolicyTable":
        """Load a table written by :meth:`to_json`."""
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls.from_payload(
            payload,
            planner=planner,
            expected_fingerprint=expected_fingerprint,
            learn=learn,
        )


def precompute_policy_table(
    config,
    prior: Optional[Prior] = None,
    *,
    queue_resolution_bits: Optional[float] = None,
    pilot_duration: float = 30.0,
    seed: int = 1,
    switch_interval: float = 30.0,
    link_rate_bps: float = 12_000.0,
    cross_fraction: float = 0.7,
    loss_rate: float = 0.2,
    buffer_capacity_bits: float = 96_000.0,
    burst_levels: Sequence[int] = (0, 1, 2, 3, 4, 6, 8, 11, 14),
    sweep_backend: str = "vectorized",
) -> PolicyTable:
    """Compute a :class:`PolicyTable` for ``config`` ahead of time (§3.3).

    Two coverage passes populate the table:

    1. **Pilot run** — the config's sender runs on a shortened Figure-2
       scenario (the distribution of states the paper's "particular model"
       language refers to), learning a decision for every belief signature
       the inference transient and steady state visit.
    2. **Burst-grid sweep** — from the pilot's converged belief, a grid of
       queued send bursts sweeps the queue-occupancy axis of the signature
       space; each grid point's decision is computed through the
       ``sweep_backend`` rollout engine (vectorized lanes by default, the
       engine PR 3 built for exactly this fan-out).

    The returned table keeps ``learn=True`` so runtime misses continue to
    densify it, and carries ``config.fingerprint()`` for serialization.
    """
    from repro.topology.presets import figure2_network

    prior = prior if prior is not None else config.prior
    if prior is None:
        raise ConfigurationError(
            "precompute_policy_table needs a prior: pass one explicitly or "
            "construct the SenderConfig with prior=..."
        )
    if queue_resolution_bits is None:
        queue_resolution_bits = config.policy_resolution_bits

    # The stored fingerprint must cover the prior actually swept, including
    # one passed explicitly over a prior-less config — otherwise two tables
    # computed for different priors would share an identity.
    config = config.with_prior(prior)
    planner = config.build_planner(rollout_backend=sweep_backend)
    table = PolicyTable(
        planner,
        queue_resolution_bits=queue_resolution_bits,
        fingerprint=config.fingerprint(),
        learn=True,
    )

    # Pass 1: pilot run on the Figure-2 scenario, decisions recorded by the
    # learning table itself.
    from repro.core.isender import ISender

    network = figure2_network(
        link_rate_bps=link_rate_bps,
        cross_fraction=cross_fraction,
        loss_rate=loss_rate,
        buffer_capacity_bits=buffer_capacity_bits,
        switch_interval=switch_interval,
        packet_bits=config.packet_bits,
        seed=seed,
    )
    belief = config.build_belief()
    sender = ISender(
        belief,
        planner,
        network.sender_receiver,
        flow=network.sender_flow,
        packet_bits=config.packet_bits,
        policy=table,
    )
    sender.connect(network.entry)
    network.network.add(sender)
    network.network.run(until=pilot_duration)

    # Pass 2: burst-grid sweep over queue occupancy around the converged
    # belief.  Each level forks the pilot's final belief, queues that many
    # sends, and seeds the resulting signature's decision.
    for level in burst_levels:
        forked = copy.deepcopy(belief)
        for index in range(level):
            forked.record_send(
                _SWEEP_SEQ_BASE + index, config.packet_bits, pilot_duration
            )
        forked.update(pilot_duration)
        table.seed(forked, pilot_duration)

    return table


# --------------------------------------------------------- cross-run reuse

#: Corrupt or mismatched cached table files moved to quarantine by this
#: process (see :func:`table_quarantine_count`).
_table_quarantines = 0


def table_quarantine_count() -> int:
    """How many cached policy-table files this process has quarantined.

    Incremented by :func:`load_or_precompute_policy_table` whenever a
    cached table fails to load (truncated JSON, stale schema, fingerprint
    mismatch) and is moved to the cache's ``quarantine/`` directory — the
    same never-silently-delete convention
    :class:`~repro.runner.cache.ResultCache` follows.
    """
    return _table_quarantines


def _effective_sweep_params(sweep_params: dict) -> dict:
    """``sweep_params`` with :func:`precompute_policy_table` defaults resolved.

    Keys the cache on what the precompute will actually run with — the
    shared :func:`repro._persist.signature_defaults` rule the runner's
    result cache also applies, so the two invalidation behaviours cannot
    drift.  ``prior`` is identity, not a sweep parameter; the config
    fingerprint already covers it.
    """
    from repro._persist import signature_defaults

    effective = signature_defaults(precompute_policy_table, exclude=("prior",))
    effective.update(sweep_params)
    return effective


def policy_table_cache_path(cache_dir: str | Path, config, sweep_params: dict) -> Path:
    """Where a precomputed table for ``config`` lives under ``cache_dir``.

    The filename carries the config fingerprint (so a directory listing is
    self-describing) plus a digest of the *effective* precompute sweep
    parameters — the same config precomputed over a different pilot
    scenario is a different artifact.
    """
    from repro._version import __version__

    sweep_digest = canonical_digest(
        {
            "schema": TABLE_SCHEMA_VERSION,
            "version": __version__,
            "sweep": _effective_sweep_params(sweep_params),
        }
    )
    return Path(cache_dir) / "policy" / f"{config.fingerprint()}-{sweep_digest}.json"


def load_or_precompute_policy_table(
    config,
    prior: Optional[Prior] = None,
    *,
    cache_dir: Optional[str | Path] = None,
    **precompute_kwargs,
) -> PolicyTable:
    """A :class:`PolicyTable` for ``config``, reused across runs and workers.

    With ``cache_dir=None`` this is exactly :func:`precompute_policy_table`.
    Otherwise the table is keyed by ``config.fingerprint()`` (prior
    included) plus a digest of the precompute parameters and persisted under
    ``cache_dir/policy/``: the first caller — in any process — computes and
    writes it, every later caller loads it.  Writes go through a
    process-unique temporary file and an atomic :func:`os.replace`, so
    parallel sweep workers racing on the same directory each end up with a
    complete table (last writer wins; the content is deterministic, so the
    winners are bit-identical).  A corrupted or fingerprint-mismatched file
    is moved to ``cache_dir/quarantine/`` (the
    :class:`~repro.runner.cache.ResultCache` convention — never left in
    place to be re-read and re-fail, never silently deleted), counted on
    :func:`table_quarantine_count`, and recomputed.

    The returned table carries ``loaded_from_cache`` (``True`` when it was
    read back rather than computed), which the cache-semantics tests
    observe.
    """
    effective = config.with_prior(prior if prior is not None else config.prior)
    if cache_dir is None:
        return precompute_policy_table(config, prior, **precompute_kwargs)

    path = policy_table_cache_path(cache_dir, effective, dict(precompute_kwargs))
    table, quarantined = read_json_or_quarantine(
        Path(cache_dir),
        path,
        lambda payload: PolicyTable.from_payload(
            payload, expected_fingerprint=effective.fingerprint()
        ),
    )
    if quarantined:
        global _table_quarantines
        _table_quarantines += 1
    if table is not None:
        table.loaded_from_cache = True
        return table

    table = precompute_policy_table(config, prior, **precompute_kwargs)
    table.to_json(path)
    return table
