"""Bisect two backend replays to the first diverging kernel stage.

Both belief backends emit per-stage checkpoints through
``BeliefState.stage_hook`` (``fork`` → ``advance`` → ``score`` →
``compact`` → ``prune`` → ``posterior``) and every decision through
``ExpectedUtilityPlanner.decision_probe`` (``summary`` → ``lanes`` →
``rollout`` → ``utility`` → ``decision``; the planner emits three, each
rollout engine ``lanes`` and ``rollout``), in the same order with
comparable payloads.  :func:`replay_trace` drives one
:class:`~repro.api.config.SenderConfig` through a seeded event script while
recording those checkpoints; :func:`compare_traces` walks two recordings in
lockstep to the first event and stage whose payloads differ beyond the
equivalence tolerance; :func:`diagnose_divergence` wraps both, re-replays
with canonically ordered acknowledgements to separate event-ordering
sensitivity from genuine kernel drift, and ranks candidate causes with the
:class:`~repro.diagnostics.evidence.BayesianScorer`.

:func:`inject_stage_perturbation` deliberately skews one array-engine stage
— the test harness (and the CLI's ``--perturb``) uses it to check that the
fingerprinter localizes a known fault to the right stage.
"""

from __future__ import annotations

import contextlib
import math
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.api.config import SenderConfig
from repro.diagnostics.evidence import BayesianScorer, CauseHypothesis
from repro.inference import AckObservation, figure3_prior
from repro.units import DEFAULT_PACKET_BITS

__all__ = [
    "INJECTABLE_STAGES",
    "Divergence",
    "DivergenceReport",
    "EventTrace",
    "backend_config",
    "compare_traces",
    "diagnose_divergence",
    "inject_stage_perturbation",
    "replay_trace",
    "seeded_events",
]

#: Kernel stages of one belief update, in emission order.
KERNEL_STAGES = ("fork", "advance", "score", "compact", "prune", "posterior")

#: Stages of one planner decision, in emission order.
DECISION_STAGES = ("summary", "lanes", "rollout", "utility", "decision")

#: Stage comparison order per event kind.
_STAGE_ORDER = {
    "send": ("send",),
    "update": KERNEL_STAGES,
    "decide": DECISION_STAGES,
}

#: Human naming of each stage, used in cause-hypothesis labels.
_STAGE_LABEL = {
    "send": "kernel stage 'send' (record_send / advance-to-send)",
    "fork": "kernel stage 'fork' (gate branching)",
    "advance": "kernel stage 'advance' (forward simulation)",
    "score": "kernel stage 'score' (likelihood)",
    "compact": "kernel stage 'compact' (signature merging)",
    "prune": "kernel stage 'prune' (threshold + cap)",
    "posterior": "kernel stage 'posterior' (normalization)",
    "summary": "rollout frontier stage 'summary' (top-k aggregates)",
    "lanes": "rollout frontier stage 'lanes' (lane packing)",
    "rollout": "rollout frontier stage 'rollout' (event frontier)",
    "utility": "rollout frontier stage 'utility' (lane valuation)",
    "decision": "rollout frontier stage 'decision' (argmax)",
}

#: Stages :func:`inject_stage_perturbation` can skew (array-engine side).
INJECTABLE_STAGES = ("fork", "advance", "score", "compact", "prune", "rollout")


# ------------------------------------------------------------------ scenarios


def backend_config(
    belief_backend: str = "scalar",
    rollout_backend: str = "scalar",
    max_hypotheses: int = 48,
    top_k: int = 8,
) -> SenderConfig:
    """A small, fully featured config for differential replays.

    Its prior is the differential fuzz suite's too
    (``tests/test_differential_backends.py`` reads it from here): few enough
    grid points to replay fast, but with forking, loss, and buffer
    uncertainty so every kernel stage does real work.
    """
    return SenderConfig(
        prior=figure3_prior(
            link_rate_points=2,
            cross_fraction_points=2,
            loss_points=2,
            buffer_points=2,
            fill_points=2,
        ),
        kernel_scale=0.5,
        max_hypotheses=max_hypotheses,
        top_k=top_k,
        belief_backend=belief_backend,
        rollout_backend=rollout_backend,
    )


def seeded_events(seed: int, packet_bits: float = DEFAULT_PACKET_BITS) -> list:
    """A reproducible send/update/decide script derived entirely from ``seed``.

    Time only moves forward, every ack references a real outstanding send
    within its plausible window, no sequence number is acknowledged twice,
    and a ``decide`` event follows every update so rollout-stage checkpoints
    are exercised too.  The ``decide`` events draw nothing from the RNG: the
    differential fuzz suite replays these same scripts with them dropped.
    """
    rng = random.Random(seed)
    events: list[tuple[str, tuple]] = []
    now = 0.0
    seq = 0
    outstanding: list[tuple[int, float]] = []
    for _ in range(rng.randint(4, 8)):
        if rng.random() < 0.55:
            events.append(("send", (seq, packet_bits, now)))
            outstanding.append((seq, now))
            seq += 1
            now += rng.uniform(0.05, 0.9)
        else:
            now += rng.uniform(0.3, 6.0)  # occasionally long: loss charging
            acks = []
            for entry in list(outstanding):
                if rng.random() < 0.6:
                    sent_seq, sent_at = entry
                    at = min(now, sent_at + rng.uniform(0.2, 2.5))
                    acks.append(AckObservation(seq=sent_seq, received_at=at, ack_at=at))
                    outstanding.remove(entry)
            rng.shuffle(acks)  # update order must not matter
            events.append(("update", (now, acks)))
            events.append(("decide", (now,)))
    now += rng.uniform(0.5, 2.0)
    events.append(("update", (now, [])))
    events.append(("decide", (now,)))
    return events


def canonical_event_order(events: Sequence) -> list:
    """``events`` with every update's acknowledgements sorted canonically.

    If a divergence disappears under this reordering, the backends disagree
    only on *event ordering* within an update, not on any kernel stage.
    """
    reordered = []
    for kind, args in events:
        if kind == "update":
            now, acks = args
            acks = sorted(acks, key=lambda ack: (ack.seq, ack.received_at))
            reordered.append((kind, (now, acks)))
        else:
            reordered.append((kind, args))
    return reordered


# --------------------------------------------------------------------- replay


@dataclass
class EventTrace:
    """The stage checkpoints one event produced during a replay."""

    kind: str
    stages: dict = field(default_factory=dict)


def _belief_snapshot(belief) -> dict:
    """A backend-agnostic checkpoint of the full posterior."""
    state = getattr(belief, "state", None)
    if state is not None:
        snapshot = state.checkpoint()
    else:
        hypotheses = belief.hypotheses
        snapshot = {
            "time": hypotheses[0].model.export_state()["time"],
            "size": len(hypotheses),
            "signatures": [hypothesis.signature() for hypothesis in hypotheses],
        }
    snapshot["weights"] = belief.weights
    return snapshot


def replay_trace(config: SenderConfig, events: Sequence) -> list[EventTrace]:
    """Drive ``config``'s belief + planner through ``events``, checkpointing.

    Returns one :class:`EventTrace` per event.  ``send`` events checkpoint
    the post-send posterior; ``update`` events record the kernel stages the
    belief's ``stage_hook`` emits; ``decide`` events record the rollout
    stages the planner's ``decision_probe`` emits.
    """
    belief = config.build_belief()
    planner = config.build_planner()
    current: dict = {}

    def hook(stage: str, payload) -> None:
        current[stage] = payload

    belief.stage_hook = hook
    planner.decision_probe = hook

    trace: list[EventTrace] = []
    for kind, args in events:
        current = {}
        if kind == "send":
            belief.record_send(*args)
            current["send"] = _belief_snapshot(belief)
        elif kind == "update":
            belief.update(*args)
        elif kind == "decide":
            planner.decide(belief, args[0])
        else:
            raise ValueError(f"unknown event kind {kind!r}")
        trace.append(EventTrace(kind=kind, stages=current))
    return trace


# ----------------------------------------------------------------- comparison


def _floats_close(a: float, b: float, tolerance: float) -> bool:
    if a == b:
        return True
    if math.isnan(a) and math.isnan(b):
        return True
    return abs(a - b) <= max(tolerance, tolerance * max(abs(a), abs(b)))


def _first_diff(a, b, tolerance: float, path: str = "") -> Optional[tuple[str, object, object]]:
    """The path and values of the first difference, or ``None`` if equal.

    Numbers compare with absolute+relative ``tolerance`` (the documented
    backend equivalence bound); containers recurse in deterministic order;
    tuples and lists are interchangeable (backends build one or the other).
    """
    number_a = isinstance(a, (int, float)) and not isinstance(a, bool)
    number_b = isinstance(b, (int, float)) and not isinstance(b, bool)
    if number_a and number_b:
        if not _floats_close(float(a), float(b), tolerance):
            return (path or "value", a, b)
        return None
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if len(a) != len(b):
            return (f"{path}.length", len(a), len(b))
        for index, (x, y) in enumerate(zip(a, b)):
            diff = _first_diff(x, y, tolerance, f"{path}[{index}]")
            if diff is not None:
                return diff
        return None
    if isinstance(a, dict) and isinstance(b, dict):
        if set(a) != set(b):
            return (f"{path}.keys", sorted(map(str, a)), sorted(map(str, b)))
        for key in a:
            diff = _first_diff(a[key], b[key], tolerance, f"{path}.{key}")
            if diff is not None:
                return diff
        return None
    if isinstance(a, (set, frozenset)) and isinstance(b, (set, frozenset)):
        if a != b:
            return (path or "value", sorted(a), sorted(b))
        return None
    if a != b:
        return (path or "value", a, b)
    return None


def _differing_rows(payload_a, payload_b, tolerance: float) -> list[int]:
    """Indices of per-row/per-lane list elements that differ.

    Stage payloads are dicts whose list-valued entries are aligned per
    hypothesis row or rollout lane, so element indices localize a
    divergence to specific rows.
    """
    rows: set[int] = set()
    if isinstance(payload_a, dict) and isinstance(payload_b, dict):
        for key in set(payload_a) & set(payload_b):
            value_a, value_b = payload_a[key], payload_b[key]
            if (
                isinstance(value_a, (list, tuple))
                and isinstance(value_b, (list, tuple))
                and len(value_a) == len(value_b)
            ):
                for index, (x, y) in enumerate(zip(value_a, value_b)):
                    if _first_diff(x, y, tolerance) is not None:
                        rows.add(index)
    return sorted(rows)


@dataclass
class Divergence:
    """The first point where two backend replays disagree."""

    event_index: int
    event_kind: str
    stage: str
    path: str
    value_a: object
    value_b: object
    rows: list[int] = field(default_factory=list)

    @property
    def detail(self) -> str:
        return (
            f"event {self.event_index} ({self.event_kind}), stage {self.stage!r}, "
            f"at {self.path or 'payload'}: {self.value_a!r} vs {self.value_b!r}"
        )


def compare_traces(
    trace_a: Sequence[EventTrace],
    trace_b: Sequence[EventTrace],
    tolerance: float = 1e-9,
) -> Optional[Divergence]:
    """Bisect two replays to their first diverging event and stage."""
    for index, (event_a, event_b) in enumerate(zip(trace_a, trace_b)):
        if event_a.kind != event_b.kind:
            raise ValueError(
                f"traces replay different scripts: event {index} is "
                f"{event_a.kind!r} vs {event_b.kind!r}"
            )
        order = _STAGE_ORDER.get(event_a.kind, ())
        seen = [stage for stage in order if stage in event_a.stages or stage in event_b.stages]
        for stage in seen:
            if stage not in event_a.stages or stage not in event_b.stages:
                return Divergence(
                    event_index=index,
                    event_kind=event_a.kind,
                    stage=stage,
                    path="presence",
                    value_a=stage in event_a.stages,
                    value_b=stage in event_b.stages,
                )
            diff = _first_diff(event_a.stages[stage], event_b.stages[stage], tolerance)
            if diff is not None:
                path, value_a, value_b = diff
                return Divergence(
                    event_index=index,
                    event_kind=event_a.kind,
                    stage=stage,
                    path=path,
                    value_a=value_a,
                    value_b=value_b,
                    rows=_differing_rows(
                        event_a.stages[stage], event_b.stages[stage], tolerance
                    ),
                )
    if len(trace_a) != len(trace_b):
        raise ValueError(
            f"traces replay different scripts: {len(trace_a)} vs {len(trace_b)} events"
        )
    return None


# ---------------------------------------------------------------- attribution


@dataclass
class DivergenceReport:
    """Where two backend configurations first disagree, and the likely why."""

    backend_a: str
    backend_b: str
    seed: Optional[int]
    diverged: bool
    divergence: Optional[Divergence]
    order_sensitive: bool
    causes: list[CauseHypothesis]

    @property
    def top_cause(self) -> CauseHypothesis:
        return self.causes[0]

    def render(self) -> str:
        lines = [f"divergence report: {self.backend_a} vs {self.backend_b}"]
        if self.seed is not None:
            lines[0] += f" (seed {self.seed})"
        if not self.diverged:
            lines.append("  replays agree at every checkpointed stage")
        else:
            assert self.divergence is not None
            lines.append(f"  first divergence: {self.divergence.detail}")
            if self.divergence.rows:
                lines.append(
                    f"  implicated hypothesis rows / lanes: {self.divergence.rows}"
                )
            if self.order_sensitive:
                lines.append(
                    "  canonically ordered acks remove the divergence "
                    "(event-ordering sensitivity)"
                )
        lines.append("  ranked causes:")
        for rank, cause in enumerate(self.causes, start=1):
            lines.append(
                f"    {rank}. {cause.name}  p={cause.posterior:.2f} "
                f"(prior {cause.prior:.2f})"
            )
            for evidence in cause.evidence_for:
                lines.append(f"       + [{evidence.source}] {evidence.description}")
            for evidence in cause.evidence_against:
                lines.append(f"       - [{evidence.source}] {evidence.description}")
        return "\n".join(lines)


def _attribute(
    divergence: Optional[Divergence], order_sensitive: bool
) -> list[CauseHypothesis]:
    """Rank candidate causes for (the absence of) a divergence."""
    stage_causes = {
        stage: CauseHypothesis(
            name=f"backend drift in {label}",
            description=f"the two engines disagree at the {label}",
            prior=0.2,
        )
        for stage, label in _STAGE_LABEL.items()
    }
    ordering = CauseHypothesis(
        name="event-ordering sensitivity",
        description="the backends apply simultaneous observations in different orders",
        prior=0.15,
    )
    noise = CauseHypothesis(
        name="no backend divergence (environment noise elsewhere)",
        description="the replays agree; any reported regression is environmental",
        prior=0.2,
    )
    if divergence is None:
        noise.support("replays matched at every checkpointed stage", "divergence", 0.9)
        ordering.refute("no divergence to be order-sensitive about", "divergence", 0.7)
        for cause in stage_causes.values():
            cause.refute("no stage checkpoint differed", "divergence", 0.7)
    else:
        noise.refute(divergence.detail, "divergence", 0.9)
        hit = stage_causes[divergence.stage]
        hit.support(f"first divergence: {divergence.detail}", "divergence", 0.9)
        if divergence.rows:
            hit.support(
                f"isolated to hypothesis rows / lanes {divergence.rows}",
                "divergence",
                0.6,
            )
        for stage, cause in stage_causes.items():
            if stage != divergence.stage:
                cause.refute(
                    "checkpoints matched up to the first divergence",
                    "divergence",
                    0.6,
                )
        if order_sensitive:
            ordering.support(
                "divergence disappears under canonical ack ordering",
                "divergence",
                0.95,
            )
            hit.refute(
                "divergence disappears under canonical ack ordering",
                "divergence",
                0.6,
            )
        else:
            ordering.refute(
                "divergence persists under canonical ack ordering",
                "divergence",
                0.8,
            )
    return BayesianScorer().score([*stage_causes.values(), ordering, noise])


def _describe_backends(config: SenderConfig) -> str:
    return f"belief={config.belief_backend}/rollout={config.rollout_backend}"


def diagnose_divergence(
    config_a: SenderConfig,
    config_b: SenderConfig,
    seed: Optional[int] = 0,
    events: Optional[Sequence] = None,
    tolerance: float = 1e-9,
) -> DivergenceReport:
    """Replay both configs through one script and attribute the first drift.

    ``events`` defaults to :func:`seeded_events(seed) <seeded_events>`.
    When the replays diverge, a second pair of replays with canonically
    ordered acknowledgements separates event-ordering sensitivity from
    genuine kernel-stage drift.
    """
    if events is None:
        if seed is None:
            raise ValueError("diagnose_divergence needs a seed or explicit events")
        events = seeded_events(seed)
    trace_a = replay_trace(config_a, events)
    trace_b = replay_trace(config_b, events)
    divergence = compare_traces(trace_a, trace_b, tolerance)
    order_sensitive = False
    if divergence is not None:
        reordered = canonical_event_order(events)
        order_sensitive = (
            compare_traces(
                replay_trace(config_a, reordered),
                replay_trace(config_b, reordered),
                tolerance,
            )
            is None
        )
    return DivergenceReport(
        backend_a=_describe_backends(config_a),
        backend_b=_describe_backends(config_b),
        seed=seed,
        diverged=divergence is not None,
        divergence=divergence,
        order_sensitive=order_sensitive,
        causes=_attribute(divergence, order_sensitive),
    )


# ------------------------------------------------------------------ injection


@contextlib.contextmanager
def inject_stage_perturbation(stage: str, epsilon: float = 1.0):
    """Deliberately skew one array-engine kernel/rollout stage.

    The test harness (and the CLI's ``--perturb``) wraps a differential
    replay in this context to verify the fingerprinter localizes a known
    fault to ``stage``.  Only the array engine is touched, so a
    scalar-vs-array diagnosis (under either accepted spelling) sees the
    skew as backend drift at exactly that stage:

    * ``fork`` — scales sub-unity branch probabilities by ``1 + epsilon``;
    * ``advance`` — adds ``epsilon`` bits to every branch's queued bits;
    * ``score`` — subtracts ``epsilon`` from every finite log-likelihood;
    * ``compact`` — disables signature merging entirely;
    * ``prune`` — drops one extra (lightest) surviving row;
    * ``rollout`` — shifts every own-packet delivery ``epsilon`` s later.
    """
    import numpy as np

    from repro.inference.vectorized import belief as vectorized_belief
    from repro.inference.vectorized import engine as vectorized_engine
    from repro.inference.vectorized import rollout as vectorized_rollout
    from repro.inference.vectorized.belief import VectorizedBeliefState

    restores: list[tuple[object, str, object]] = []

    def patch(target, name: str, replacement) -> None:
        # ``None`` marks an attribute the array class inherits from the one
        # update body: restoring it means deleting the override.
        restores.append((target, name, vars(target).get(name)))
        setattr(target, name, replacement)

    if stage == "fork":
        original_fork = vectorized_engine.fork_and_advance

        def perturbed_fork(state, now):
            branch_state, parent, probability = original_fork(state, now)
            probability = np.where(
                probability < 1.0, probability * (1.0 + epsilon), probability
            )
            return branch_state, parent, probability

        patch(vectorized_engine, "fork_and_advance", perturbed_fork)
    elif stage == "advance":
        original_advance = vectorized_engine.fork_and_advance

        def perturbed_advance(state, now):
            branch_state, parent, probability = original_advance(state, now)
            branch_state.queue_bits = branch_state.queue_bits + epsilon
            return branch_state, parent, probability

        patch(vectorized_engine, "fork_and_advance", perturbed_advance)
    elif stage == "score":
        original_score = vectorized_belief.score_and_bookkeep

        def perturbed_score(*args, **kwargs):
            result = original_score(*args, **kwargs)
            return result - np.where(np.isfinite(result), epsilon, 0.0)

        patch(vectorized_belief, "score_and_bookkeep", perturbed_score)
    elif stage == "compact":

        def perturbed_compact(self, ensemble, rows, weights):
            return rows, weights

        patch(VectorizedBeliefState, "_compact", perturbed_compact)
    elif stage == "prune":
        original_prune = VectorizedBeliefState._prune

        def perturbed_prune(self, rows, weights):
            rows, weights = original_prune(self, rows, weights)
            if len(rows) > 1:
                return rows[:-1], weights[:-1]
            return rows, weights

        patch(VectorizedBeliefState, "_prune", perturbed_prune)
    elif stage == "rollout":
        original_rollout = vectorized_rollout.batched_rollout_rows

        def perturbed_rollout(*args, **kwargs):
            outcome = original_rollout(*args, **kwargs)
            outcome.own_time = outcome.own_time + epsilon
            return outcome

        patch(vectorized_rollout, "batched_rollout_rows", perturbed_rollout)
    else:
        raise ValueError(
            f"unknown stage {stage!r}; injectable stages are {INJECTABLE_STAGES}"
        )
    try:
        yield
    finally:
        for target, name, original in reversed(restores):
            if original is None:
                delattr(target, name)
            else:
                setattr(target, name, original)
