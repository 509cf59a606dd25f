"""Scalar ↔ array planner-rollout equivalence suite.

The array engine is exercised under its ``"vectorized"`` spelling
(``"fused"`` resolves to the identical callable; ``tests/test_api_config.py``
pins that).  The batched rollout engine replays the scalar ``Hypothesis.rollout`` event
arithmetic bit for bit, so per-lane outcomes compare *exactly*; expected
utilities carry the documented ``1e-9`` relative tolerance (the batch
utility path uses ``np.exp`` where the scalar path uses ``math.exp``), and
the chosen action must be identical.

Covered regimes: randomized belief states (drops, gated cross traffic on
and off, busy links, queued backlogs), candidate delays beyond the rollout
horizon, fixed and derived horizons, both belief backends under both
rollout backends, custom utilities without a batch path, the end-to-end
guarantee that a fully vectorized sender never materializes a scalar
``Hypothesis`` on the decide path, and the frontier's per-call choice
between lockstep and drained departure runs (bit-identical either way).
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core import (
    ActionGrid,
    AlphaWeightedUtility,
    ExpectedUtilityPlanner,
    LatencyPenaltyUtility,
    PolicyCache,
    ThroughputUtility,
)
from repro.errors import ConfigurationError, InferenceError
from repro.inference import (
    AckObservation,
    BeliefState,
    GaussianKernel,
    Hypothesis,
    figure3_prior,
    single_link_prior,
)
from repro.inference.vectorized import EnsembleState, batched_rollout_rows
from repro.inference.vectorized import rollout as rollout_module


def rollout_hypotheses(hypotheses, delays, **kwargs):
    """Roll scalar hypotheses through the array engine, one lane block."""
    state = EnsembleState.from_hypotheses(hypotheses)
    return batched_rollout_rows(state, np.arange(state.size), delays, **kwargs)


def random_hypothesis(rng: random.Random) -> Hypothesis:
    """One fully random network configuration (may include a gated source)."""
    params = {
        "link_rate_bps": rng.uniform(6_000.0, 30_000.0),
        "buffer_capacity_bits": rng.choice([24_000.0, 36_000.0, 96_000.0]),
        "initial_fill_bits": rng.choice([0.0, 12_000.0, 24_000.0]),
        "loss_rate": rng.choice([0.0, 0.1, 0.3]),
        "cross_rate_pps": rng.choice([0.0, 0.4, 1.1, 2.0]),
        "mean_time_to_switch": rng.choice([None, 10.0, 30.0]),
        "cross_initially_on": rng.choice([True, False]),
    }
    return Hypothesis.from_params(
        {key: value for key, value in params.items() if value is not None}
    )


def random_belief(rng: random.Random) -> tuple[BeliefState, float]:
    """A randomized scalar belief with latent queue/drop/gate state, plus now."""
    count = rng.randint(1, 6)
    hypotheses = [random_hypothesis(rng) for _ in range(count)]
    weights = [rng.uniform(0.1, 1.0) for _ in range(count)]
    belief = BeliefState(hypotheses, weights)
    at = 0.0
    for seq in range(rng.randint(0, 10)):
        at += rng.uniform(0.05, 0.8)
        belief.record_send(seq, 12_000.0, at)
    now = at + rng.uniform(0.5, 3.0)
    belief.update(now)
    return belief, now


def assert_decisions_equivalent(scalar, vectorized, rel=1e-9):
    assert vectorized.action == scalar.action
    assert vectorized.horizon == scalar.horizon
    assert vectorized.hypotheses_evaluated == scalar.hypotheses_evaluated
    assert set(vectorized.expected_utilities) == set(scalar.expected_utilities)
    for delay, value in scalar.expected_utilities.items():
        assert vectorized.expected_utilities[delay] == pytest.approx(
            value, rel=rel, abs=rel
        )


class TestRolloutBackendSelection:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            ExpectedUtilityPlanner(ThroughputUtility(), rollout_backend="quantum")

    def test_default_is_scalar(self):
        assert ExpectedUtilityPlanner(ThroughputUtility()).rollout_backend == "scalar"


class TestBatchedRolloutExactness:
    """Per-lane outcomes match the scalar rollout bit for bit."""

    DELAYS = (0.0, 0.7, 2.5, 30.0)

    def assert_lane_outcomes_match(self, hypotheses, now, horizon=4.0, delays=DELAYS):
        """Every (action × hypothesis) lane of one batch against the scalar
        rollout of that hypothesis."""
        batch = rollout_hypotheses(
            hypotheses, delays, horizon=horizon, packet_bits=12_000.0, now=now
        )
        for action, delay in enumerate(delays):
            for row, hypothesis in enumerate(hypotheses):
                reference = hypothesis.rollout(
                    action_delay=delay, horizon=horizon, packet_bits=12_000.0, now=now
                )
                lane = batch.lane_outcome(action * len(hypotheses) + row)
                assert lane.own_deliveries == reference.own_deliveries
                assert lane.own_drops == reference.own_drops
                assert lane.cross_deliveries == reference.cross_deliveries
                assert lane.cross_drops == reference.cross_drops
                assert lane.final_queue_bits == reference.final_queue_bits
                assert lane.final_cross_backlog_bits == reference.final_cross_backlog_bits
                assert lane.hypothetical_delivered == reference.hypothetical_delivered
                assert lane.hypothetical_delivery_time == reference.hypothetical_delivery_time
                assert lane.action_delay == delay
                assert lane.decision_time == reference.decision_time

    def test_randomized_lane_outcomes(self):
        rng = random.Random(31)
        for _ in range(30):
            hypothesis = random_hypothesis(rng)
            at = 0.0
            for seq in range(rng.randint(0, 6)):
                at += rng.uniform(0.1, 0.9)
                hypothesis.record_send(seq, 12_000.0, at)
            self.assert_lane_outcomes_match([hypothesis], now=at + 1.0)

    def test_same_instant_events_match_the_scalar_rollout(self):
        """Completions, cross arrivals and sends due at one instant, across
        lanes that free their servers in different iterations: a lane fires
        the arrival or send a completion leaves it owing in the iteration
        that frees it, in the scalar rollout's tie order."""
        rng = random.Random(47)
        for _ in range(30):
            hypotheses = [
                # 12 kbit/s serves a 12 kbit packet in exactly 1 s, and the
                # cross intervals are whole or half seconds, so events keep
                # coinciding with each other and with the integer-spaced sends.
                # Tie order shows only in a full buffer (who is tail-dropped),
                # so the buffers hold one or two packets and the link is
                # mostly overloaded.
                Hypothesis.from_params(
                    {
                        "link_rate_bps": rng.choice([6_000.0, 12_000.0, 24_000.0]),
                        "buffer_capacity_bits": rng.choice([12_000.0, 24_000.0]),
                        "initial_fill_bits": rng.choice([0.0, 12_000.0]),
                        "loss_rate": rng.choice([0.0, 0.2]),
                        "cross_rate_pps": rng.choice([0.5, 1.0, 2.0]),
                        "cross_packet_bits": rng.choice([6_000.0, 12_000.0, 18_000.0]),
                        "mean_time_to_switch": 10.0,
                        "cross_initially_on": rng.random() < 0.8,
                    }
                )
                for _ in range(rng.randint(1, 4))
            ]
            sends = sorted(rng.choice([0.0, 0.5, 1.0, 2.0]) for _ in range(rng.randint(0, 5)))
            for seq, at in enumerate(sends):
                for hypothesis in hypotheses:
                    hypothesis.record_send(seq, 12_000.0, at)
            # The decision instant is past the model clock, so no send shares
            # it with the clock (the scalar tie rule there is ROADMAP 1(a)).
            self.assert_lane_outcomes_match(
                hypotheses,
                now=(sends[-1] if sends else 0.0) + 1.0,
                horizon=rng.choice([3.0, 6.0]),
                delays=(0.0, 0.5, 1.0, 2.0, 3.0),
            )

    def test_tail_drop_of_the_hypothetical(self):
        hypothesis = Hypothesis.from_params(
            {"link_rate_bps": 12_000.0, "buffer_capacity_bits": 12_000.0}
        )
        # Fill the link and the single-packet buffer so the hypothetical drops.
        hypothesis.record_send(0, 12_000.0, 0.0)
        hypothesis.record_send(1, 12_000.0, 0.0)
        batch = rollout_hypotheses(
            [hypothesis], (0.0,), horizon=0.5, packet_bits=12_000.0, now=0.0
        )
        lane = batch.lane_outcome(0)
        reference = hypothesis.rollout(
            action_delay=0.0, horizon=0.5, packet_bits=12_000.0, now=0.0
        )
        assert not lane.hypothetical_delivered
        assert lane.own_drops == reference.own_drops
        assert lane.own_drops  # the hypothetical really was dropped

    def test_delay_beyond_horizon_observes_late_sends(self):
        hypothesis = Hypothesis.from_params(
            {"link_rate_bps": 12_000.0, "buffer_capacity_bits": 96_000.0}
        )
        hypothesis.record_send(0, 12_000.0, 0.0)
        self.assert_lane_outcomes_match([hypothesis], now=0.0, horizon=1.5)

    def test_stay_silent_stops_at_the_horizon(self):
        """send_packet=False must not advance lanes past the horizon end."""
        hypothesis = Hypothesis.from_params(
            {"link_rate_bps": 12_000.0, "buffer_capacity_bits": 96_000.0}
        )
        for seq in range(8):
            hypothesis.record_send(seq, 12_000.0, 0.0)
        batch = rollout_hypotheses(
            [hypothesis], (30.0,), horizon=2.0, packet_bits=12_000.0, now=0.0,
            send_packet=False,
        )
        reference = hypothesis.rollout(
            action_delay=30.0, horizon=2.0, packet_bits=12_000.0, now=0.0,
            send_packet=False,
        )
        lane = batch.lane_outcome(0)
        assert lane.own_deliveries == reference.own_deliveries
        assert lane.final_queue_bits == reference.final_queue_bits
        assert len(lane.own_deliveries) == 2  # only the horizon's worth

    def test_gated_cross_traffic_off_stays_off(self):
        hypothesis = Hypothesis.from_params(
            {
                "link_rate_bps": 12_000.0,
                "buffer_capacity_bits": 96_000.0,
                "cross_rate_pps": 1.0,
                "mean_time_to_switch": 10.0,
                "cross_initially_on": False,
            }
        )
        batch = rollout_hypotheses(
            [hypothesis], (0.0,), horizon=8.0, packet_bits=12_000.0, now=0.0
        )
        assert batch.lane_outcome(0).cross_deliveries == []

    def test_lockstep_clock_required(self):
        early = Hypothesis.from_params(
            {"link_rate_bps": 12_000.0, "buffer_capacity_bits": 96_000.0}
        )
        late = Hypothesis.from_params(
            {"link_rate_bps": 12_000.0, "buffer_capacity_bits": 96_000.0},
            start_time=2.0,
        )
        with pytest.raises(InferenceError):
            EnsembleState.from_hypotheses([early, late])

    def test_rollout_cannot_run_backwards(self):
        hypothesis = Hypothesis.from_params(
            {"link_rate_bps": 12_000.0, "buffer_capacity_bits": 96_000.0},
            start_time=5.0,
        )
        with pytest.raises(InferenceError):
            rollout_hypotheses(
                [hypothesis], (0.0,), horizon=1.0, packet_bits=12_000.0, now=1.0
            )


class TestDecisionEquivalence:
    """decide() agrees across rollout backends on randomized beliefs."""

    GRID = ActionGrid(multiples=(0.0, 0.5, 1.0, 3.0, 8.0, 40.0))

    def test_randomized_beliefs(self):
        rng = random.Random(47)
        for trial in range(25):
            belief, now = random_belief(rng)
            utility = rng.choice(
                [
                    AlphaWeightedUtility(alpha=rng.uniform(0.0, 3.0), discount_timescale=15.0),
                    LatencyPenaltyUtility(latency_penalty=0.05),
                    ThroughputUtility(),
                ]
            )
            horizon = rng.choice([None, 5.0])
            kwargs = dict(
                action_grid=self.GRID, top_k=len(belief), horizon=horizon
            )
            scalar = ExpectedUtilityPlanner(
                utility, rollout_backend="scalar", **kwargs
            ).decide(belief, now=now)
            vectorized = ExpectedUtilityPlanner(
                utility, rollout_backend="vectorized", **kwargs
            ).decide(belief, now=now)
            assert_decisions_equivalent(scalar, vectorized)

    def test_all_four_backend_combinations_agree(self):
        prior = figure3_prior(
            link_rate_points=3, cross_fraction_points=2, loss_points=2,
            buffer_points=2, fill_points=2,
        )
        decisions = {}
        for belief_backend in ("scalar", "vectorized"):
            for rollout_backend in ("scalar", "vectorized"):
                belief = BeliefState.from_prior(
                    prior, kernel=GaussianKernel(sigma=0.4), backend=belief_backend
                )
                for seq in range(5):
                    belief.record_send(seq, 12_000.0, 0.4 * seq)
                belief.update(
                    3.0, [AckObservation(seq=0, received_at=1.1, ack_at=1.1)]
                )
                planner = ExpectedUtilityPlanner(
                    AlphaWeightedUtility(alpha=1.0, discount_timescale=20.0),
                    top_k=12,
                    rollout_backend=rollout_backend,
                )
                decisions[(belief_backend, rollout_backend)] = planner.decide(
                    belief, now=3.0
                )
                assert planner.rollouts_performed == 12 * len(
                    ActionGrid.DEFAULT_MULTIPLES
                )
        reference = decisions[("scalar", "scalar")]
        for decision in decisions.values():
            assert_decisions_equivalent(reference, decision)

    def test_custom_utility_without_batch_path(self):
        class HypotheticalOnlyUtility:
            """Scalar-only utility: rewards the hypothetical's delivery."""

            def evaluate(self, outcome):
                if not outcome.hypothetical_delivered:
                    return 0.0
                return 1.0 / (1.0 + outcome.hypothetical_delivery_time)

        belief = BeliefState.from_prior(
            single_link_prior(link_rate_points=3, fill_points=2),
            kernel=GaussianKernel(sigma=0.3),
        )
        belief.record_send(0, 12_000.0, 0.0)
        belief.update(0.5)
        kwargs = dict(top_k=6, horizon=6.0)
        scalar = ExpectedUtilityPlanner(
            HypotheticalOnlyUtility(), rollout_backend="scalar", **kwargs
        ).decide(belief, now=0.5)
        vectorized = ExpectedUtilityPlanner(
            HypotheticalOnlyUtility(), rollout_backend="vectorized", **kwargs
        ).decide(belief, now=0.5)
        assert_decisions_equivalent(scalar, vectorized)


class TestSinglePassAggregation:
    """The one-walk aggregates reproduce the original three walks exactly."""

    def test_service_time_and_horizon_match_reference_formulas(self):
        belief, now = random_belief(random.Random(3))
        planner = ExpectedUtilityPlanner(ThroughputUtility(), top_k=len(belief))
        decision = planner.decide(belief, now=now)

        top = belief.top(planner.top_k)
        total = sum(weight for _, weight in top)
        rate = sum(
            (weight / total) * hyp.model.params.link_rate_bps for hyp, weight in top
        )
        drain = sum((weight / total) * hyp.model.drain_time() for hyp, weight in top)
        service_time = planner.packet_bits / rate
        assert decision.horizon == drain + planner.horizon_service_multiples * service_time


class TestNoMaterializationOnDecidePath:
    """belief=vectorized + rollout=vectorized never rebuilds a Hypothesis."""

    @pytest.fixture
    def forbid_materialize(self, monkeypatch):
        def boom(self, row):  # pragma: no cover - the assertion is the point
            raise AssertionError(
                "EnsembleState.materialize called on the vectorized decide path"
            )

        monkeypatch.setattr(EnsembleState, "materialize", boom)

    def make_belief(self):
        belief = BeliefState.from_prior(
            figure3_prior(
                link_rate_points=3, cross_fraction_points=2, loss_points=2,
                buffer_points=2, fill_points=1,
            ),
            kernel=GaussianKernel(sigma=0.4),
            backend="vectorized",
        )
        for seq in range(4):
            belief.record_send(seq, 12_000.0, 0.5 * seq)
        belief.update(2.5)
        return belief

    def test_decide_is_materialization_free(self, forbid_materialize):
        belief = self.make_belief()
        planner = ExpectedUtilityPlanner(
            AlphaWeightedUtility(), top_k=8, rollout_backend="vectorized"
        )
        decision = planner.decide(belief, now=2.5)
        assert decision.hypotheses_evaluated == 8
        assert decision.expected_utilities

    def test_policy_cache_decide_is_materialization_free(self, forbid_materialize):
        belief = self.make_belief()
        planner = ExpectedUtilityPlanner(
            AlphaWeightedUtility(), top_k=8, rollout_backend="vectorized"
        )
        cache = PolicyCache(planner)
        first = cache.decide(belief, now=2.5)
        second = cache.decide(belief, now=2.5)
        assert cache.hits == 1 and cache.misses == 1
        assert second.expected_utilities == first.expected_utilities

    def test_full_isender_run_is_materialization_free(self, forbid_materialize):
        from repro.api import SenderConfig
        from repro.experiments.ablation import run_ablation_point

        outcome = run_ablation_point(
            "vectorized/vectorized",
            SenderConfig(belief_backend="vectorized", rollout_backend="vectorized"),
            duration=8.0,
        )
        assert outcome.packets_sent > 0
        assert outcome.rollouts > 0

    def test_scalar_rollout_backend_still_materializes(self):
        # Sanity check on the spy: the scalar rollout path *does* materialize.
        belief = self.make_belief()
        calls = {"count": 0}
        original = EnsembleState.materialize

        def counting(self, row):
            calls["count"] += 1
            return original(self, row)

        EnsembleState.materialize = counting
        try:
            planner = ExpectedUtilityPlanner(
                AlphaWeightedUtility(), top_k=8, rollout_backend="scalar"
            )
            planner.decide(belief, now=2.5)
        finally:
            EnsembleState.materialize = original
        assert calls["count"] > 0


class TestVectorizedBeliefAccessors:
    """top_rows / decision_signature / map_link_rate_bps backend parity."""

    def build_pair(self):
        prior = figure3_prior(
            link_rate_points=3, cross_fraction_points=2, loss_points=2,
            buffer_points=2, fill_points=1,
        )
        pair = []
        for backend in ("scalar", "vectorized"):
            belief = BeliefState.from_prior(
                prior, kernel=GaussianKernel(sigma=0.4), backend=backend
            )
            belief.record_send(0, 12_000.0, 0.0)
            belief.update(1.0, [AckObservation(seq=0, received_at=1.0, ack_at=1.0)])
            pair.append(belief)
        return pair

    def test_top_rows_matches_top(self):
        _, vectorized = self.build_pair()
        rows, weights = vectorized.top_rows(5)
        top = vectorized.top(5)
        assert [w for _, w in top] == weights
        for (hypothesis, _), row in zip(top, rows.tolist()):
            assert hypothesis.params == vectorized.state.params_dicts[row]

    def test_decision_signature_matches_across_backends(self):
        scalar, vectorized = self.build_pair()
        assert scalar.decision_signature(6, 3_000.0) == vectorized.decision_signature(
            6, 3_000.0
        )

    def test_map_link_rate_matches_across_backends(self):
        scalar, vectorized = self.build_pair()
        assert scalar.map_link_rate_bps() == vectorized.map_link_rate_bps()


# ------------------------------------------------- frontier selection + identity

#: ``BatchedRolloutOutcome``'s flat event streams: lane column → value columns.
EVENT_STREAMS = {
    "own_lane": ("own_time", "own_is_hyp"),
    "own_drop_lane": ("own_drop_time", "own_drop_is_hyp"),
    "cross_lane": ("cross_time", "cross_bits"),
    "cross_drop_lane": ("cross_drop_time", "cross_drop_bits"),
}

#: ``BatchedRolloutOutcome``'s per-lane / per-action arrays.
LANE_ARRAYS = (
    "action_delays",
    "own_survival",
    "final_queue_bits",
    "final_cross_backlog_bits",
)


def outcome_bytes(outcome) -> dict:
    """Every field of one outcome, arrays as raw bytes.

    Event streams are regrouped lane-major with a stable sort first: each
    stream is chronological *per lane* by contract, while the interleaving
    across lanes is the one thing draining may change.
    """
    fields = {
        name: getattr(outcome, name)
        for name in ("decision_time", "horizon", "packet_bits", "k")
    }
    for lane_column, value_columns in EVENT_STREAMS.items():
        lanes = getattr(outcome, lane_column)
        order = np.argsort(lanes, kind="stable")
        fields[lane_column] = lanes[order].tobytes()
        for column in value_columns:
            fields[column] = getattr(outcome, column)[order].tobytes()
    for name in LANE_ARRAYS:
        fields[name] = getattr(outcome, name).tobytes()
    assert set(fields) == {f.name for f in dataclasses.fields(outcome)}
    return fields


def standing_queue_rollout(draw_seed: int, depth: int, horizon: float) -> dict:
    """``batched_rollout_rows`` arguments for three random hypotheses, each
    holding ``depth`` queued own packets (plus one in service) in a buffer
    deep enough for all of them."""
    rng = random.Random(draw_seed)
    hypotheses = []
    for _ in range(3):
        hypothesis = Hypothesis.from_params(
            {
                "link_rate_bps": rng.uniform(6_000.0, 30_000.0),
                "buffer_capacity_bits": 12_000.0 * (depth + rng.randint(1, 4)),
                "loss_rate": rng.choice([0.0, 0.2]),
                "cross_rate_pps": rng.choice([0.0, 0.3, 1.1]),
                "mean_time_to_switch": 10.0,
                "cross_initially_on": rng.choice([True, False]),
            }
        )
        for seq in range(depth + 1):
            hypothesis.record_send(seq, 12_000.0, 0.0)
        hypotheses.append(hypothesis)
    state = EnsembleState.from_hypotheses(hypotheses)
    assert int(state.q_len.max()) == depth
    return dict(
        state=state,
        rows=np.arange(state.size),
        action_delays=(0.0, 0.4, 3.0, horizon + 1.0),
        horizon=horizon,
        packet_bits=12_000.0,
        now=0.0,
    )


class TestFrontierSelection:
    """Draining is chosen per call from the lanes' deepest initial queue, and
    never changes a result."""

    THRESHOLD = rollout_module.DRAIN_MIN_QUEUE_DEPTH

    @seed(20260929)
    @settings(max_examples=40, deadline=None)
    @given(
        draw_seed=st.integers(0, 10_000),
        depths=st.lists(
            st.sampled_from([0, 1, 3, THRESHOLD - 1, THRESHOLD, THRESHOLD + 9, 40]),
            min_size=1,
            max_size=3,
        ),
        horizons=st.lists(st.sampled_from([1.5, 4.0, 9.0]), min_size=3, max_size=3),
    )
    def test_draining_on_and_off_is_byte_identical(self, draw_seed, depths, horizons):
        """Random lane states on both sides of the constant, with different
        horizons: forcing draining on, forcing it off, and the constant's own
        choice all give the same bytes."""
        rollouts = [
            standing_queue_rollout(draw_seed + index, depth, horizons[index])
            for index, depth in enumerate(depths)
        ]
        results = []
        with pytest.MonkeyPatch.context() as patch:
            for constant in (0, 10**9, self.THRESHOLD):
                patch.setattr(rollout_module, "DRAIN_MIN_QUEUE_DEPTH", constant)
                results.append(
                    [outcome_bytes(batched_rollout_rows(**kwargs)) for kwargs in rollouts]
                )
        drained, lockstep, chosen = results
        assert drained == lockstep == chosen

    @pytest.fixture
    def drain_calls(self, monkeypatch):
        calls = []
        original = rollout_module._drain_runs

        def spy(*args, **kwargs):
            calls.append(len(args[0]))
            return original(*args, **kwargs)

        monkeypatch.setattr(rollout_module, "_drain_runs", spy)
        return calls

    #: The deep-buffer prior: 1.15–1.3 Mbit buffers (~96–108 packets) and
    #: sparse cross traffic, the Figure-2 single-flow regime where the
    #: standing queue is self-inflicted.
    DEEP_PRIOR = dict(
        cross_fraction_low=0.03,
        cross_fraction_high=0.06,
        buffer_low=1_150_000.0,
        buffer_high=1_300_000.0,
        fill_points=1,
    )

    @staticmethod
    def burst_belief(backend: str, burst: int, **prior) -> BeliefState:
        """A Figure-3 prior's belief with ``burst`` packets sent at t = 0."""
        belief = BeliefState.from_prior(figure3_prior(**prior), backend=backend)
        for seq in range(burst):
            belief.record_send(seq, 12_000.0, 0.0)
        return belief

    def test_shallow_figure3_state_never_drains(self, drain_calls):
        """A Figure-3-style belief (§4 buffers hold ≤ 9 packets) runs lockstep."""
        belief = self.burst_belief("vectorized", burst=14)
        rows, _ = belief.top_rows(8)
        assert int(belief.state.q_len[rows].max()) < self.THRESHOLD
        planner = ExpectedUtilityPlanner(
            AlphaWeightedUtility(discount_timescale=20.0), top_k=8, rollout_backend="vectorized"
        )
        decision = planner.decide(belief, 0.0)
        assert decision.hypotheses_evaluated == 8
        assert drain_calls == []

    def test_deep_standing_queue_drains(self, drain_calls, monkeypatch):
        """A 128-packet standing queue drains runs — and decides exactly as
        it would lockstep, and as the scalar oracle does."""
        belief = self.burst_belief("vectorized", burst=128, **self.DEEP_PRIOR)
        rows, _ = belief.top_rows(8)
        assert int(belief.state.q_len[rows].max()) >= 64
        utility = AlphaWeightedUtility(discount_timescale=20.0)
        planner = ExpectedUtilityPlanner(utility, top_k=8, rollout_backend="vectorized")
        drained = planner.decide(belief, 0.0)
        assert len(drain_calls) >= 1
        del drain_calls[:]
        monkeypatch.setattr(rollout_module, "DRAIN_MIN_QUEUE_DEPTH", 10**9)
        lockstep = planner.decide(belief, 0.0)
        assert drain_calls == []
        assert lockstep.action == drained.action
        assert lockstep.expected_utilities == drained.expected_utilities
        # The oracle plans over its own scalar belief: same action,
        # utilities within the documented cross-backend tolerance.
        oracle = ExpectedUtilityPlanner(utility, top_k=8, rollout_backend="scalar").decide(
            self.burst_belief("scalar", burst=128, **self.DEEP_PRIOR), 0.0
        )
        assert oracle.action.delay == pytest.approx(drained.action.delay, rel=1e-9, abs=1e-9)
        assert oracle.expected_utilities == pytest.approx(
            drained.expected_utilities, rel=1e-9, abs=1e-9
        )
