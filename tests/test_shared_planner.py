"""Identical senders share a plan, and sharing changes nothing.

:class:`~repro.core.policy.SharedPlanner` answers a repeat of a plan made
at the same instant from its store, keyed on the belief's exact
``plan_key``.  That is only sound if the key holds everything the planner
reads — two beliefs with one history agree on it, and any single planner
input moves it — and the proof that it does is a contention point whose
metrics are the same bytes with the store switched off.
"""

from __future__ import annotations

import copy
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api.config import SenderConfig
from repro.api.sender import build_components
from repro.core.planner import Decision, ExpectedUtilityPlanner
from repro.core.policy import SharedPlanner
from repro.core.utility import AlphaWeightedUtility
from repro.errors import ConfigurationError
from repro.inference import AckObservation, BeliefState, figure3_prior, single_link_prior
from repro.inference.prior import DerivedPrior
from repro.inference.vectorized.state import FLOW_OWN
from repro.runner import ScenarioSpec
from repro.runner import scenarios
from repro.runner.registry import DEFAULT_REGISTRY

PACKET_BITS = 12_000.0
TOP_K = 3

single_link_priors = st.builds(
    single_link_prior,
    link_rate_points=st.integers(min_value=1, max_value=3),
    fill_points=st.integers(min_value=1, max_value=3),
    loss_rate=st.sampled_from([0.0, 0.1]),
    cross_rate_pps=st.sampled_from([0.0, 0.5]),
)
figure3_priors = st.builds(
    lambda prior, mean_time_to_switch: DerivedPrior(
        grid=prior.grid, fixed={**prior.fixed, "mean_time_to_switch": mean_time_to_switch}
    ),
    st.builds(
        figure3_prior,
        link_rate_points=st.integers(min_value=1, max_value=2),
        cross_fraction_points=st.just(1),
        loss_points=st.integers(min_value=1, max_value=2),
        buffer_points=st.just(1),
        fill_points=st.integers(min_value=1, max_value=2),
    ),
    st.sampled_from([5.0, 100.0]),
)
priors = st.one_of(single_link_priors, figure3_priors)

#: ``(operation, seconds since the previous one, acknowledge the oldest
#: unacknowledged packet)`` — a sender's history, replayed on a fresh belief.
histories = st.lists(
    st.tuples(
        st.sampled_from(["send", "update"]),
        st.floats(min_value=0.0, max_value=3.0),
        st.booleans(),
    ),
    max_size=6,
)
backends = st.sampled_from(["scalar", "vectorized"])


def replay(prior, backend: str, history) -> tuple[BeliefState, float]:
    """A belief built from ``prior`` after ``history``, and the time it ends at."""
    belief = BeliefState.from_prior(prior, backend=backend, max_hypotheses=32)
    now = 0.0
    belief.update(now, [])
    seq = 0
    unacked: list[tuple[int, float]] = []
    for operation, gap, acknowledge in history:
        now += gap
        if operation == "send":
            belief.record_send(seq, PACKET_BITS, now)
            unacked.append((seq, now))
            seq += 1
            continue
        acks = []
        if acknowledge and unacked:
            acked, sent_at = unacked.pop(0)
            received = max(sent_at, now - 0.5)
            acks.append(AckObservation(seq=acked, received_at=received, ack_at=now))
        belief.update(now, acks)
    return belief, now


def bumped(value):
    """A value of the same type that differs from ``value``."""
    if isinstance(value, (bool, np.bool_)):
        return not value
    if not np.isfinite(value):
        return type(value)(1.0)
    return value + 1


def room_for_queues(state) -> None:
    """Grow the planes to hold every row's packets behind its fillers, as
    ``engine._enqueue`` does before it writes: a mutation that lengthens a
    full queue must leave a state the program could hold."""
    state.ensure_queue_capacity(int((state.q_len - state.q_fill).max(initial=0)))


def array_mutations(belief: BeliefState):
    """``(planner input, mutate)`` for each input of a belief that holds rows."""
    state = belief.state
    rows, _ = belief.top_rows(TOP_K)
    row = int(rows[0])
    fields = state.lane_arrays(rows, int(state.q_len[rows].max())).keys()

    def set_row(name: str):
        def mutate(target: BeliefState) -> None:
            array = getattr(target.state, name)
            array[row] = bumped(array[row])
            room_for_queues(target.state)

        return mutate

    mutations = [(name, set_row(name)) for name in fields if name not in ("q_flow", "q_size")]
    # The queue is held compact: a count of fillers ahead of the planes.
    behind = {int(r): int(state.q_len[r] - state.q_fill[r]) for r in rows}
    queued = [r for r, count in behind.items() if count > 0]
    if queued:
        queued_row = queued[0]

        def flow(target: BeliefState) -> None:
            target.state.q_flow[queued_row, 0] = bumped(target.state.q_flow[queued_row, 0])

        mutations.append(("q_flow", flow))
    filled = [int(r) for r in rows if state.q_fill[r] > 0]
    if filled:
        filled_row = filled[0]

        def filler_count(target: BeliefState) -> None:
            target.state.q_fill[filled_row] -= 1
            room_for_queues(target.state)

        def filler_tail_number(target: BeliefState) -> None:
            target.state.filler_tail_seq[filled_row] -= 1

        def filler_tail(target: BeliefState) -> None:
            target.state.filler_tail_bits[filled_row] += 1

        mutations += [
            ("q_fill", filler_count),
            ("filler tail number", filler_tail_number),
            ("filler tail", filler_tail),
        ]
    # A queued size is derived, not stored: mutate each input it is derived
    # from that a top row's queue reads.
    slots = [(r, slot) for r, count in behind.items() for slot in range(count)]
    own = [(r, slot) for r, slot in slots if state.q_flow[r, slot] == FLOW_OWN]
    if own:
        column = state.column_of(int(state.q_seq[own[0]]))

        def own_size(target: BeliefState) -> None:
            target.state.own_sizes[column] += 1

        mutations.append(("recorded own size", own_size))
    filler = [int(r) for r in rows if state.q_fill[r] > 1]
    if filler:

        def filler_size(target: BeliefState) -> None:
            target.state.filler_packet_bits[filler[0]] += 1

        mutations.append(("filler size", filler_size))

    def weight(target: BeliefState) -> None:
        target._weights[row] += 0.25

    def clock(target: BeliefState) -> None:
        target.state.time += 1.0

    return mutations + [("weight", weight), ("clock", clock)]


def hypothesis_mutations(belief: BeliefState):
    """``(planner input, mutate)`` for each input of a hypothesis-held belief."""
    heaviest, _ = belief.top(1)[0]
    index = belief.hypotheses.index(heaviest)

    def on_model(change):
        def mutate(target: BeliefState) -> None:
            change(target.hypotheses[index].model)

        return mutate

    def param(name: str):
        def change(model) -> None:
            value = getattr(model.params, name)
            new = (value + 0.5) % 1.0 if name == "loss_rate" else bumped(value)
            model.params = dataclasses.replace(model.params, **{name: new})

        return change

    def attribute(name: str):
        def change(model) -> None:
            setattr(model, name, bumped(getattr(model, name)))

        return change

    def in_service(part: int):
        def change(model) -> None:
            flow, seq, size = model._in_service or ("cross", -1, 1_000.0)
            entry = [flow, seq, size]
            entry[part] = {"own": "cross", "cross": "own"}[flow] if part == 0 else size + 1
            model._in_service = tuple(entry)

        return change

    mutations = [
        (name, on_model(param(name)))
        for name in (
            "link_rate_bps",
            "buffer_capacity_bits",
            "loss_rate",
            "cross_rate_pps",
            "cross_packet_bits",
        )
    ]
    mutations += [
        (name, on_model(attribute(name)))
        for name in ("time", "gate_on", "next_cross_time", "_service_completion", "_queue_bits")
    ]
    mutations += [
        ("in-service flow", on_model(in_service(0))),
        ("in-service size", on_model(in_service(2))),
    ]
    if heaviest.model._queue:

        def queued_size(model) -> None:
            flow, seq, size = model._queue[0]
            model._queue[0] = (flow, seq, size + 1)

        mutations.append(("queued size", on_model(queued_size)))

    def weight(target: BeliefState) -> None:
        target._weights[index] += 0.25

    return mutations + [("weight", weight)]


class TestPlanKeyIsExact:
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(prior=priors, backend=backends, history=histories)
    def test_one_history_one_key_and_every_input_moves_it(self, prior, backend, history):
        belief, _ = replay(prior, backend, history)
        twin, _ = replay(prior, backend, history)
        key = belief.plan_key(TOP_K)
        assert twin.plan_key(TOP_K) == key
        assert hash(twin.plan_key(TOP_K)) == hash(key)

        holds_rows = getattr(belief, "state", None) is not None
        mutations = array_mutations(belief) if holds_rows else hypothesis_mutations(belief)
        for name, mutate in mutations:
            changed = copy.deepcopy(belief)
            mutate(changed)
            assert changed.plan_key(TOP_K) != key, name

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(prior=priors, backend=backends, history=histories)
    def test_a_shared_plan_is_the_plan(self, prior, backend, history):
        planner = ExpectedUtilityPlanner(
            AlphaWeightedUtility(), top_k=TOP_K, rollout_backend=backend
        )
        shared = SharedPlanner(planner)
        first, now = replay(prior, backend, history)
        second, _ = replay(prior, backend, history)
        fresh, _ = replay(prior, backend, history)

        planned = shared.decide(first, now)
        repeated = shared.decide(second, now)
        direct = planner.decide(fresh, now)
        assert (shared.hits, shared.misses) == (1, 1)
        assert repeated is planned
        for spec in dataclasses.fields(Decision):
            assert getattr(planned, spec.name) == getattr(direct, spec.name), spec.name

    def test_a_later_instant_empties_the_store(self):
        planner = ExpectedUtilityPlanner(AlphaWeightedUtility(), top_k=TOP_K)
        shared = SharedPlanner(planner)
        belief, _ = replay(single_link_prior(), "scalar", [])
        shared.decide(belief, 0.0)
        shared.decide(belief, 0.0)
        shared.decide(belief, 1.0)
        assert (shared.hits, shared.misses) == (1, 2)
        assert len(shared._plans) == 1


class TestSuppliedPlanner:
    def test_build_components_takes_the_planner_it_is_given(self):
        config = SenderConfig(prior=single_link_prior(), policy="cache")
        shared = SharedPlanner(config.build_planner())
        first, second = (build_components(config, planner=shared) for _ in range(2))
        assert first.planner is second.planner is shared
        assert first.policy.planner is shared
        assert first.belief is not second.belief and first.policy is not second.policy

    def test_a_planner_and_a_utility_together_are_refused(self):
        config = SenderConfig(prior=single_link_prior())
        with pytest.raises(ConfigurationError, match="planner= or utility="):
            build_components(
                config, planner=config.build_planner(), utility=AlphaWeightedUtility()
            )


def contention_metrics(engine: str) -> dict:
    spec = ScenarioSpec(
        "many_flow_contention",
        params={
            "flows": 8,
            "isender_flows": 4,
            "duration": 2.0,
            "per_flow_metrics": True,
            "belief_backend": engine,
            "rollout_backend": engine,
        },
    )
    return DEFAULT_REGISTRY.run_point(spec)


class TestSharingChangesNoOutcome:
    @pytest.mark.parametrize("engine", ["scalar", "fused"])
    def test_metrics_equal_a_run_that_never_shares(self, engine, monkeypatch):
        made: list[SharedPlanner] = []

        class Recorded(SharedPlanner):
            def __init__(self, planner) -> None:
                super().__init__(planner)
                made.append(self)

        monkeypatch.setattr(scenarios, "SharedPlanner", Recorded)
        shared = contention_metrics(engine)
        (memo,) = made
        # Each sender's two opening plans are made once for all four, and
        # a few later instants repeat too.
        assert (memo.hits, memo.misses) == (20, 126)

        monkeypatch.setattr(
            SharedPlanner,
            "decide",
            lambda self, belief, now: self.planner.decide(belief, now),
        )
        unshared = contention_metrics(engine)
        assert made[1].hits == 0
        assert json.dumps(shared, sort_keys=True) == json.dumps(unshared, sort_keys=True)
