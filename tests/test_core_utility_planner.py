"""Tests for utility functions, the action grid, the planner, and the policy cache."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.core import (
    Action,
    ACTION_MULTIPLES,
    AlphaWeightedUtility,
    ExpectedUtilityPlanner,
    LatencyPenaltyUtility,
    PolicyCache,
    candidate_actions,
)
from repro.core.utility import ExponentialDiscount
from repro.errors import ConfigurationError, UtilityError
from repro.inference import BeliefState, GaussianKernel, Hypothesis, single_link_prior
from repro.inference.hypothesis import RolloutOutcome


def outcome_with(own=(), cross=(), cross_drops=(), backlog=0.0, horizon=10.0):
    return RolloutOutcome(
        decision_time=0.0,
        horizon=horizon,
        own_deliveries=list(own),
        cross_deliveries=list(cross),
        cross_drops=list(cross_drops),
        final_cross_backlog_bits=backlog,
    )


class TestExponentialDiscount:
    def test_validation(self):
        with pytest.raises(UtilityError):
            ExponentialDiscount(0.0)
        with pytest.raises(UtilityError):
            ExponentialDiscount(math.nan)

    def test_now_is_undiscounted(self):
        assert ExponentialDiscount(10.0).factor(5.0, 5.0) == pytest.approx(1.0)

    def test_future_is_discounted(self):
        discount = ExponentialDiscount(10.0)
        assert discount.factor(15.0, 5.0) == pytest.approx(pytest.approx(0.3678794), rel=1e-5)

    def test_past_is_clamped(self):
        assert ExponentialDiscount(10.0).factor(0.0, 5.0) == pytest.approx(1.0)

    @given(lag=st.floats(min_value=0.0, max_value=100.0))
    def test_property_factor_in_unit_interval_and_decreasing(self, lag):
        discount = ExponentialDiscount(7.0)
        factor = discount.factor(lag, 0.0)
        assert 0.0 < factor <= 1.0
        assert discount.factor(lag + 1.0, 0.0) <= factor


class TestAlphaWeightedUtility:
    def test_validation(self):
        with pytest.raises(UtilityError):
            AlphaWeightedUtility(alpha=-1.0)
        with pytest.raises(UtilityError):
            AlphaWeightedUtility(latency_penalty=-0.1)
        for field in ("alpha", "latency_penalty"):
            with pytest.raises(UtilityError, match=field):
                AlphaWeightedUtility(**{field: math.nan})
        assert issubclass(UtilityError, ConfigurationError)

    def test_own_bits_rewarded(self):
        utility = AlphaWeightedUtility(alpha=0.0, discount_timescale=1e9)
        value = utility.evaluate(outcome_with(own=[(1.0, 12_000, 1.0)]))
        assert value == pytest.approx(12_000)

    def test_survival_scales_reward(self):
        utility = AlphaWeightedUtility(alpha=0.0, discount_timescale=1e9)
        value = utility.evaluate(outcome_with(own=[(1.0, 12_000, 0.8)]))
        assert value == pytest.approx(9_600)

    def test_delay_discounts_reward(self):
        utility = AlphaWeightedUtility(alpha=0.0, discount_timescale=10.0)
        sooner = utility.evaluate(outcome_with(own=[(1.0, 12_000, 1.0)]))
        later = utility.evaluate(outcome_with(own=[(5.0, 12_000, 1.0)]))
        assert sooner > later

    def test_alpha_weights_cross_traffic(self):
        outcome = outcome_with(cross=[(1.0, 12_000, 1.0)])
        low = AlphaWeightedUtility(alpha=0.5, discount_timescale=1e9).evaluate(outcome)
        high = AlphaWeightedUtility(alpha=2.0, discount_timescale=1e9).evaluate(outcome)
        assert high == pytest.approx(4.0 * low)

    def test_latency_penalty_charges_lateness_backlog_and_drops(self):
        utility = AlphaWeightedUtility(alpha=1.0, discount_timescale=1e9, latency_penalty=1.0)
        base = outcome_with(cross=[(2.0, 12_000, 1.0)], horizon=10.0)
        with_backlog = outcome_with(cross=[(2.0, 12_000, 1.0)], backlog=12_000, horizon=10.0)
        with_drop = outcome_with(
            cross=[(2.0, 12_000, 1.0)], cross_drops=[(1.0, 12_000)], horizon=10.0
        )
        assert utility.evaluate(with_backlog) < utility.evaluate(base)
        assert utility.evaluate(with_drop) < utility.evaluate(base)

    def test_throughput_and_latency_presets(self):
        assert LatencyPenaltyUtility().latency_penalty > 0.0

    @given(alpha=st.floats(min_value=0.0, max_value=10.0))
    def test_property_more_cross_value_never_hurts(self, alpha):
        utility = AlphaWeightedUtility(alpha=alpha, discount_timescale=20.0)
        small = outcome_with(cross=[(1.0, 1_000, 1.0)])
        large = outcome_with(cross=[(1.0, 2_000, 1.0)])
        assert utility.evaluate(large) >= utility.evaluate(small)


class TestActions:
    def test_action_validation(self):
        with pytest.raises(ConfigurationError):
            Action(delay=-1.0)

    def test_send_now_flag(self):
        assert Action(0.0).send_now
        assert not Action(0.5).send_now

    def test_grid_scales_with_service_time(self):
        actions = candidate_actions(service_time=0.5)
        assert [a.delay for a in actions] == pytest.approx([0.5 * m for m in ACTION_MULTIPLES])
        assert actions[0].send_now

    def test_grid_validation(self):
        with pytest.raises(ConfigurationError):
            candidate_actions(service_time=0.0)


def make_belief(points=3):
    prior = single_link_prior(
        link_rate_low=10_000.0, link_rate_high=14_000.0, link_rate_points=points, fill_points=1
    )
    return BeliefState.from_prior(prior, kernel=GaussianKernel(sigma=0.3))


class TestPlanner:
    def test_validation(self):
        utility = AlphaWeightedUtility(alpha=0.0)
        with pytest.raises(ConfigurationError):
            ExpectedUtilityPlanner(utility, packet_bits=0)
        with pytest.raises(ConfigurationError):
            ExpectedUtilityPlanner(utility, top_k=0)
        with pytest.raises(ConfigurationError):
            ExpectedUtilityPlanner(utility, horizon=0.0)
        with pytest.raises(ConfigurationError):
            ExpectedUtilityPlanner(utility, horizon_service_multiples=0.0)

    @pytest.mark.parametrize("rollout_backend", ["scalar", "vectorized"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("setting", ["horizon", "horizon_service_multiples", "packet_bits"])
    def test_non_finite_settings_are_refused(self, setting, value, rollout_backend):
        """NaN and infinity passed the old ``<= 0`` checks; ``decide`` then
        hung or raised a bare ValueError deep in a rollout."""
        with pytest.raises(ConfigurationError, match=setting):
            ExpectedUtilityPlanner(
                AlphaWeightedUtility(alpha=0.0), rollout_backend=rollout_backend, **{setting: value}
            )

    def test_decision_contains_all_candidate_delays(self):
        planner = ExpectedUtilityPlanner(AlphaWeightedUtility(alpha=0.0), top_k=3)
        decision = planner.decide(make_belief(), now=0.0)
        assert len(decision.expected_utilities) == len(ACTION_MULTIPLES)
        assert decision.hypotheses_evaluated == 3
        assert decision.horizon > 0

    def test_empty_link_sends_now(self):
        planner = ExpectedUtilityPlanner(AlphaWeightedUtility(alpha=0.0), top_k=3)
        decision = planner.decide(make_belief(), now=0.0)
        assert decision.send_now

    def test_busy_link_defers(self):
        belief = make_belief(points=1)
        # Put three packets into every hypothesis: the link is busy for three
        # service times, so sending again immediately buys nothing.
        for seq in range(3):
            belief.record_send(seq, 12_000, 0.0)
        planner = ExpectedUtilityPlanner(AlphaWeightedUtility(alpha=0.0), top_k=1)
        decision = planner.decide(belief, now=0.0)
        assert not decision.send_now
        assert decision.delay > 0

    def test_fixed_horizon_is_respected(self):
        planner = ExpectedUtilityPlanner(AlphaWeightedUtility(alpha=0.0), horizon=7.5, top_k=1)
        decision = planner.decide(make_belief(points=1), now=0.0)
        assert decision.horizon == pytest.approx(7.5)

    def test_rollout_counter_increases(self):
        planner = ExpectedUtilityPlanner(AlphaWeightedUtility(alpha=0.0), top_k=2)
        planner.decide(make_belief(), now=0.0)
        assert planner.rollouts_performed == 2 * len(ACTION_MULTIPLES)


class TestPolicyCache:
    def test_cache_hits_on_repeated_belief(self):
        planner = ExpectedUtilityPlanner(AlphaWeightedUtility(alpha=0.0), top_k=2)
        cache = PolicyCache(planner)
        belief = make_belief()
        first = cache.decide(belief, now=0.0)
        second = cache.decide(belief, now=0.0)
        assert cache.hits == 1
        assert cache.misses == 1
        assert first.delay == second.delay

    def test_cache_misses_on_different_belief_state(self):
        planner = ExpectedUtilityPlanner(AlphaWeightedUtility(alpha=0.0), top_k=2)
        cache = PolicyCache(planner)
        belief = make_belief()
        cache.decide(belief, now=0.0)
        belief.record_send(0, 12_000, 0.0)
        cache.decide(belief, now=0.0)
        assert cache.misses == 2

    def test_cache_size_and_clear(self):
        planner = ExpectedUtilityPlanner(AlphaWeightedUtility(alpha=0.0), top_k=2)
        cache = PolicyCache(planner)
        cache.decide(make_belief(), now=0.0)
        assert cache.size == 1
        cache.clear()
        assert cache.size == 0

    @pytest.mark.parametrize("rollout_backend", ["scalar", "vectorized"])
    def test_hit_miss_semantics_per_rollout_backend(self, rollout_backend):
        planner = ExpectedUtilityPlanner(
            AlphaWeightedUtility(alpha=0.0), top_k=2, rollout_backend=rollout_backend
        )
        cache = PolicyCache(planner)
        belief = make_belief()
        first = cache.decide(belief, now=0.0)
        second = cache.decide(belief, now=0.0)
        assert (cache.hits, cache.misses) == (1, 1)
        assert second is first  # the cached Decision object itself
        belief.record_send(0, 12_000, 0.0)
        third = cache.decide(belief, now=0.0)
        assert (cache.hits, cache.misses) == (1, 2)
        assert third is not first

    @pytest.mark.parametrize("rollout_backend", ["scalar", "vectorized"])
    def test_cached_decisions_keep_their_diagnostics(self, rollout_backend):
        planner = ExpectedUtilityPlanner(
            AlphaWeightedUtility(alpha=0.0), top_k=3, rollout_backend=rollout_backend
        )
        cache = PolicyCache(planner)
        belief = make_belief()
        cache.decide(belief, now=0.0)
        cached = cache.decide(belief, now=0.0)
        assert cache.hits == 1
        assert cached.hypotheses_evaluated == 3
        assert cached.horizon > 0
        assert len(cached.expected_utilities) == len(ACTION_MULTIPLES)
        # The cache does not re-run the fan-out on a hit.
        assert planner.rollouts_performed == 3 * len(ACTION_MULTIPLES)

    @pytest.mark.parametrize("rollout_backend", ["scalar", "vectorized"])
    def test_eviction_drops_oldest_entry_first(self, rollout_backend):
        planner = ExpectedUtilityPlanner(
            AlphaWeightedUtility(alpha=0.0), top_k=2, rollout_backend=rollout_backend
        )
        cache = PolicyCache(planner, max_entries=2)
        beliefs = []
        for sends in range(3):
            belief = make_belief()
            for seq in range(sends):
                belief.record_send(seq, 12_000, 0.0)
            beliefs.append(belief)
            cache.decide(belief, now=0.0)
        assert cache.size == 2  # capped
        assert cache.misses == 3
        # The oldest key (zero sends) was evicted: deciding it again misses...
        cache.decide(beliefs[0], now=0.0)
        assert cache.misses == 4
        # ...while the newest entries still hit.
        cache.decide(beliefs[2], now=0.0)
        assert cache.hits == 1

    @pytest.mark.parametrize("cap", [1, 2])
    def test_store_update_in_place_never_evicts_at_capacity(self, cap):
        """Re-storing an existing key at the size cap must not evict.

        Regression test: ``_store`` used to evict whenever the cache was
        full, so updating an entry in place at ``max_entries`` pushed an
        unrelated cached decision out (and at ``max_entries=1`` evicted
        the very entry being updated before re-inserting it).
        """
        planner = ExpectedUtilityPlanner(AlphaWeightedUtility(alpha=0.0), top_k=2)
        cache = PolicyCache(planner, max_entries=cap)
        sentinels = {("key", index): object() for index in range(cap)}
        for key, decision in sentinels.items():
            cache._store(key, decision)
        assert cache.size == cap
        # Update the newest key in place: nothing may be evicted.
        replacement = object()
        cache._store(("key", cap - 1), replacement)
        assert cache.size == cap
        assert set(cache._cache) == set(sentinels)
        assert cache._cache[("key", cap - 1)] is replacement
        # A genuinely new key at capacity still evicts the oldest.
        cache._store(("key", cap), object())
        assert cache.size == cap
        assert ("key", 0) not in cache._cache

    def test_cache_key_is_backend_invariant(self):
        """Scalar and vectorized beliefs produce the same cache key."""
        from repro.inference import figure3_prior

        prior = figure3_prior(
            link_rate_points=2, cross_fraction_points=2, loss_points=2,
            buffer_points=2, fill_points=1,
        )
        keys = []
        for backend in ("scalar", "vectorized"):
            belief = BeliefState.from_prior(
                prior, kernel=GaussianKernel(sigma=0.3), backend=backend
            )
            belief.record_send(0, 12_000, 0.0)
            belief.update(1.0)
            keys.append(belief.decision_signature(4, 3_000.0))
        assert keys[0] == keys[1]
