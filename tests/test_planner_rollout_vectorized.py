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
``Hypothesis`` on the decide path, fractional sizes (where the waiting bits
are replayed rather than taken from prefix sums), and standing queues deep
and shallow.
"""

from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core import (
    ACTION_MULTIPLES,
    AlphaWeightedUtility,
    ExpectedUtilityPlanner,
    LatencyPenaltyUtility,
    PolicyCache,
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
from repro.inference.vectorized.rollout import follow_rows


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


def assert_lane_outcomes_match(
    hypotheses, now, horizon=4.0, delays=(0.0, 0.7, 2.5, 30.0), packet_bits=12_000.0,
):
    """Every (action × hypothesis) lane of one batch against the scalar
    rollout of that hypothesis; returns the scalar outcomes, lane order."""
    batch = rollout_hypotheses(
        hypotheses, delays, horizon=horizon, packet_bits=packet_bits, now=now
    )
    references = []
    for action, delay in enumerate(delays):
        for row, hypothesis in enumerate(hypotheses):
            reference = hypothesis.rollout(
                action_delay=delay, horizon=horizon, packet_bits=packet_bits, now=now
            )
            references.append(reference)
            lane = batch.lane_outcome(action * len(hypotheses) + row)
            assert lane.own_deliveries == reference.own_deliveries
            assert lane.own_drops == reference.own_drops
            assert lane.cross_deliveries == reference.cross_deliveries
            assert lane.cross_drops == reference.cross_drops
            assert lane.final_queue_bits == reference.final_queue_bits
            assert lane.final_cross_backlog_bits == reference.final_cross_backlog_bits
            assert lane.hypothetical_delivered == reference.hypothetical_delivered
            assert lane.hypothetical_delivery_time == reference.hypothetical_delivery_time
            assert lane.decision_time == reference.decision_time
    return references


class TestRolloutBackendSelection:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            ExpectedUtilityPlanner(AlphaWeightedUtility(alpha=0.0), rollout_backend="quantum")

    def test_default_is_scalar(self):
        assert ExpectedUtilityPlanner(AlphaWeightedUtility(alpha=0.0)).rollout_backend == "scalar"


class TestBatchedRolloutExactness:
    """Per-lane outcomes match the scalar rollout bit for bit."""

    def test_randomized_lane_outcomes(self):
        rng = random.Random(31)
        for _ in range(30):
            hypothesis = random_hypothesis(rng)
            at = 0.0
            for seq in range(rng.randint(0, 6)):
                at += rng.uniform(0.1, 0.9)
                hypothesis.record_send(seq, 12_000.0, at)
            assert_lane_outcomes_match([hypothesis], now=at + 1.0)

    @pytest.mark.parametrize("draw_seed", [0, 1])
    def test_fractional_sizes_match_the_scalar_rollout(self, draw_seed):
        """Fractional link rates, capacities, fills and packet sizes: the
        waiting bits are no longer whole numbers, so the kernel must replay
        the scalar's float loads and enqueues rather than difference prefix
        sums.  One row holds a standing queue over 64 packets deep and one
        sees over 200 cross arrivals; the decision instant sits clear of
        the model clock (the same-instant tie of the strict xfail)."""
        rng = random.Random(draw_seed)

        def fractional(**fixed):
            capacity = rng.uniform(20_000.0, 150_000.0)
            params = {
                "link_rate_bps": rng.uniform(5_000.0, 40_000.0),
                "buffer_capacity_bits": capacity,
                "initial_fill_bits": rng.uniform(0.0, capacity),
                "loss_rate": rng.choice([0.0, 0.15]),
                "cross_rate_pps": rng.choice([0.0, rng.uniform(0.2, 3.0)]),
                "cross_packet_bits": rng.uniform(3_000.0, 15_000.0),
                "mean_time_to_switch": 10.0,
                "cross_initially_on": rng.random() < 0.8,
            }
            params.update(fixed)
            return Hypothesis.from_params(params)

        hypotheses = [fractional() for _ in range(12)]
        hypotheses.append(
            fractional(buffer_capacity_bits=1_000_000.5, initial_fill_bits=0.0, cross_rate_pps=0.0)
        )
        hypotheses.append(
            fractional(link_rate_bps=900_000.3, cross_rate_pps=83.7, cross_initially_on=True)
        )
        sends = sorted(rng.uniform(0.0, 0.3) for _ in range(4))
        # One size per sequence number, as every row of an ensemble sees
        # the same sends (a queued packet's size follows from its number).
        sizes = [rng.uniform(4_000.0, 14_000.0) for _ in sends]
        for hypothesis in hypotheses[:-2]:
            for seq, at in enumerate(sends):
                hypothesis.record_send(seq, sizes[seq], at)
        for seq in range(len(sends), len(sends) + 80):
            hypotheses[-2].record_send(seq, 11_999.37, sends[0])
        for hypothesis in (hypotheses[-2], hypotheses[-1]):
            hypothesis.model.advance(sends[-1])
        assert len(hypotheses[-2].model.export_state()["queue"]) >= 64

        references = assert_lane_outcomes_match(
            hypotheses,
            now=0.37,
            horizon=3.0,
            delays=(0.0, 0.23, 1.7, 4.1),
            packet_bits=rng.uniform(6_000.0, 14_000.0),
        )
        busiest = references[len(hypotheses) - 1]
        assert len(busiest.cross_deliveries) + len(busiest.cross_drops) >= 200

    def test_same_instant_events_match_the_scalar_rollout(self):
        """Completions, cross arrivals and sends due at one instant: a
        completion at an arrival's instant frees the link (and buffer space)
        first, and a cross arrival goes before the send, in the scalar
        rollout's tie order."""
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
            assert_lane_outcomes_match(
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
        assert_lane_outcomes_match([hypothesis], now=0.0, horizon=1.5)

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

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("argument", ["now", "horizon", "delay"])
    def test_non_finite_times_are_refused(self, argument, value):
        """The kernel sizes each lane's arrival schedule from these values."""
        hypothesis = Hypothesis.from_params(
            {"link_rate_bps": 12_000.0, "buffer_capacity_bits": 96_000.0, "cross_rate_pps": 1.0}
        )
        kwargs = dict(horizon=4.0, packet_bits=12_000.0, now=0.5)
        delays = (0.0, value) if argument == "delay" else (0.0, 1.0)
        if argument != "delay":
            kwargs[argument] = value
        with pytest.raises(InferenceError, match="finite"):
            rollout_hypotheses([hypothesis], delays, **kwargs)

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

    def test_randomized_beliefs(self):
        rng = random.Random(47)
        for trial in range(25):
            belief, now = random_belief(rng)
            utility = rng.choice(
                [
                    AlphaWeightedUtility(alpha=rng.uniform(0.0, 3.0), discount_timescale=15.0),
                    LatencyPenaltyUtility(latency_penalty=0.05),
                    AlphaWeightedUtility(alpha=0.0),
                ]
            )
            horizon = rng.choice([None, 5.0])
            kwargs = dict(top_k=len(belief), horizon=horizon)
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
                    ACTION_MULTIPLES
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
        planner = ExpectedUtilityPlanner(AlphaWeightedUtility(alpha=0.0), top_k=len(belief))
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


# ------------------------------------------------------------ standing queues


def standing_queue_hypotheses(draw_seed: int, depth: int) -> list[Hypothesis]:
    """Three random hypotheses, each holding ``depth`` queued own packets
    (plus one in service) in a buffer deep enough for all of them."""
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
    return hypotheses


class TestStandingQueues:
    """Deep and shallow initial queues, mixed in one call, roll out and
    decide exactly as the scalar oracle does."""

    @seed(20260929)
    @settings(max_examples=40, deadline=None)
    @given(
        draw_seed=st.integers(0, 10_000),
        depth=st.sampled_from([0, 1, 3, 15, 16, 25, 40]),
        horizon=st.sampled_from([1.5, 4.0, 9.0]),
    )
    def test_standing_queue_lanes_match_the_scalar_rollout(self, draw_seed, depth, horizon):
        """Random lane states with up to 40 queued packets, delays before
        and past the horizon: every lane equals the scalar rollout.  The
        decision instant is past the model clock, clear of the same-instant
        tie of the strict xfail."""
        hypotheses = standing_queue_hypotheses(draw_seed, depth)
        assert max(len(h.model.export_state()["queue"]) for h in hypotheses) == depth
        assert_lane_outcomes_match(
            hypotheses, now=0.37, horizon=horizon, delays=(0.0, 0.4, 3.0, horizon + 1.0)
        )

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

    def assert_decides_as_the_oracle(self, burst: int, **prior) -> BeliefState:
        """The array engine's decision on a burst belief against the scalar
        oracle's on its own scalar belief: same action, utilities within
        the documented cross-backend tolerance."""
        belief = self.burst_belief("vectorized", burst, **prior)
        utility = AlphaWeightedUtility(discount_timescale=20.0)
        decision = ExpectedUtilityPlanner(
            utility, top_k=8, rollout_backend="vectorized"
        ).decide(belief, 0.0)
        assert decision.hypotheses_evaluated == 8
        oracle = ExpectedUtilityPlanner(utility, top_k=8, rollout_backend="scalar").decide(
            self.burst_belief("scalar", burst, **prior), 0.0
        )
        assert oracle.action.delay == pytest.approx(decision.action.delay, rel=1e-9, abs=1e-9)
        assert oracle.expected_utilities == pytest.approx(
            decision.expected_utilities, rel=1e-9, abs=1e-9
        )
        return belief

    def test_shallow_figure3_state_decides_as_the_oracle(self):
        """A Figure-3-style belief: §4 buffers hold at most 9 packets."""
        belief = self.assert_decides_as_the_oracle(burst=14)
        rows, _ = belief.top_rows(8)
        assert int(belief.state.q_len[rows].max()) <= 9

    def test_deep_standing_queue_decides_as_the_oracle(self):
        """A 128-packet burst into the deep-buffer prior: ≈95–108 packets
        queued in every lane the planner rolls out."""
        belief = self.assert_decides_as_the_oracle(burst=128, **self.DEEP_PRIOR)
        rows, _ = belief.top_rows(8)
        assert int(belief.state.q_len[rows].max()) >= 64

    @staticmethod
    def deep_and_empty_rows(fractional: bool) -> list[Hypothesis]:
        """Standing queues hundreds of packets deep — fillers, own sends or
        both — beside empty rows, some with cross traffic arriving.  With
        ``fractional`` no size is a whole number of bits, so the kernel
        replays the scalar's waiting bits."""
        rng = random.Random(11)
        bits = 11_999.37 if fractional else 12_000.0
        hypotheses = []
        for fill, sends in ((0, 0), (200, 100), (0, 3), (450, 0), (60, 240), (0, 0)):
            hypothesis = Hypothesis.from_params(
                {
                    "link_rate_bps": rng.uniform(50_000.0, 120_000.0),
                    "buffer_capacity_bits": bits * (fill + sends + rng.randint(2, 6)),
                    "initial_fill_bits": bits * fill,
                    "filler_packet_bits": bits,
                    "cross_packet_bits": bits,
                    "loss_rate": rng.choice([0.0, 0.2]),
                    "cross_rate_pps": rng.choice([0.0, 3.0, 9.0]),
                    "mean_time_to_switch": 10.0,
                    "cross_initially_on": True,
                }
            )
            for seq in range(sends):
                hypothesis.record_send(seq, bits, 0.0)
            hypothesis.model.advance(0.3)
            hypotheses.append(hypothesis)
        return hypotheses

    @pytest.mark.parametrize("fractional", [False, True], ids=["whole", "replay"])
    def test_deep_and_empty_rows_match_the_scalar_rollout(self, fractional):
        """Each lane sees the prefix of its row's base that completes by its
        own deadline, and the rest pending."""
        bits = 11_999.37 if fractional else 12_000.0
        assert_lane_outcomes_match(
            self.deep_and_empty_rows(fractional),
            now=0.37,
            horizon=4.0,
            delays=(0.0, 0.5, 3.0, 12.0),
            packet_bits=bits,
        )

    @staticmethod
    def flat_lane_values(utility, outcome) -> np.ndarray:
        """``evaluate_batch``'s arithmetic on flat ``(time, lane)`` event
        columns, rebuilt from every ``lane_outcome``: one ``np.add.at`` per
        sum over each lane's events in chronological order."""
        lanes = [outcome.lane_outcome(lane) for lane in range(outcome.lanes)]

        def flat(events):
            """Every lane's (time, bits, survival) events, then their lanes."""
            rows = [(*event, lane) for lane, each in enumerate(events) for event in each]
            *values, lane = list(zip(*rows)) or [()] * 4
            return [np.array(value, dtype=float) for value in values] + [
                np.array(lane, dtype=np.int64)
            ]

        own_time, own_bits, own_survival, own_lane = flat([lane.own_deliveries for lane in lanes])
        cross_time, cross_bits, cross_survival, cross_lane = flat(
            [lane.cross_deliveries for lane in lanes]
        )
        reference, timescale = outcome.decision_time, utility.discount.timescale

        def discounted(bits, survival, time, lane):
            total = np.zeros(outcome.lanes)
            factor = np.exp(-np.maximum(0.0, time - reference) / timescale)
            np.add.at(total, lane, (bits * survival) * factor)
            return total

        value = discounted(own_bits, own_survival, own_time, own_lane) + utility.alpha * (
            discounted(cross_bits, cross_survival, cross_time, cross_lane)
        )
        if utility.latency_penalty > 0.0:
            lateness = np.zeros(outcome.lanes)
            np.add.at(lateness, cross_lane, cross_bits * np.maximum(0.0, cross_time - reference))
            backlog = np.array([lane.final_cross_backlog_bits for lane in lanes])
            lateness += backlog * outcome.horizon
            dropped = np.zeros(outcome.lanes)
            for index, lane in enumerate(lanes):
                for _time, bits in lane.cross_drops:
                    dropped[index] += bits
            lateness += dropped * outcome.horizon
            value = value - utility.latency_penalty * utility.alpha * lateness
        return value

    @pytest.mark.parametrize(
        "utility",
        [
            AlphaWeightedUtility(alpha=0.7, discount_timescale=3.0),
            LatencyPenaltyUtility(alpha=1.3, discount_timescale=5.0, latency_penalty=0.05),
        ],
        ids=["alpha", "latency"],
    )
    @pytest.mark.parametrize("follow_up", [False, True], ids=["rows", "follow-up"])
    @pytest.mark.parametrize("fractional", [False, True], ids=["whole", "replay"])
    def test_batch_values_are_the_flat_per_lane_arithmetic(self, fractional, follow_up, utility):
        """The base valued once per row, each lane starting from its row's
        partial sums, equals bit for bit the per-lane ``np.add.at`` over
        every lane's own events; delays fall before and past each row's
        horizon."""
        state = EnsembleState.from_hypotheses(self.deep_and_empty_rows(fractional))
        assert state.q_len.tolist() == [0, 297, 0, 450, 298, 0]
        packet_bits = 11_999.37 if fractional else 12_000.0
        rows = np.arange(state.size)
        horizons = np.array([2.0, 9.0, 4.0, 30.0, 6.0, 1.0])
        if follow_up:
            (state, rows), _ = follow_rows((state, rows), packet_bits, 0.37, drains=False)
            horizons = np.concatenate([horizons, horizons])
        delays = (0.0, 0.5, 3.0, 12.0, 40.0)
        outcome = batched_rollout_rows(state, rows, delays, horizons, packet_bits, 0.37)
        # The whole-number rule holds the base once per row; the replay
        # tiles it across the actions.
        assert outcome.base_time.shape[1] == (outcome.lanes if fractional else rows.size)
        assert outcome.base_own.any() and outcome.base_cross.any()
        assert (outcome.base_done < outcome.base_time.shape[0]).any()
        batch = utility.evaluate_batch(outcome)
        assert batch.tolist() == self.flat_lane_values(utility, outcome).tolist()

    def test_the_standing_queue_is_held_once_per_row(self):
        """16 rows with 600 packets queued: valuing 9 actions must peak
        under twice what valuing one does (1.1× here).  Lanes that carry
        their own copy of their row's base peak over four times as high."""
        state = EnsembleState.from_hypotheses(
            [
                Hypothesis.from_params(
                    {
                        "link_rate_bps": 40_000.0 + 2_000.0 * index,
                        "buffer_capacity_bits": 12_000.0 * 602,
                        "initial_fill_bits": 12_000.0 * 601,
                    }
                )
                for index in range(16)
            ]
        )
        assert state.q_len.tolist() == [600] * 16
        utility = AlphaWeightedUtility(alpha=1.0)

        def peak(actions: int) -> int:
            tracemalloc.start()
            try:
                outcome = batched_rollout_rows(
                    state, np.arange(16), [0.5 * a for a in range(actions)], 4.0, 12_000.0, 0.0
                )
                utility.evaluate_batch(outcome)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, nine = peak(1), peak(9)
        assert nine < 2 * one, (one, nine)
