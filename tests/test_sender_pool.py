"""Unit tests for :class:`repro.api.pool.BatchedSenderPool`.

The pool's contract has two halves: construction is literally
``build_components`` per prior (so pooled senders are indistinguishable
from independently built ones), and ``decide_all`` — the (sender × action
× hypothesis) batch-synchronous decide — returns decisions *bit-identical*
to running each sender's planner decide on its own.  The pool asks a belief
class for ``top_rows`` rather than matching backend names, so it takes the
array engine under either accepted spelling and refuses the scalar one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api.config import SenderConfig
from repro.api.pool import BatchedSenderPool
from repro.api.sender import build_components
from repro.errors import ConfigurationError
from repro.inference import AckObservation, single_link_prior

PACKET_BITS = 8_000.0


def _priors(count: int):
    """Deliberately heterogeneous priors: each sender spans different rates."""
    return [
        single_link_prior(
            link_rate_low=2e5 * (index + 1),
            link_rate_high=2e6 * (index + 1),
            link_rate_points=5,
            buffer_capacity_bits=8e6,
            fill_points=3,
        )
        for index in range(count)
    ]


def _drive(belief_pairs, steps: int = 30, seed: int = 3) -> float:
    """Feed every belief in every pair the same send/ack script; return now."""
    rng = np.random.default_rng(seed)
    now = 0.0
    seq = 0
    for step in range(steps):
        now += float(rng.uniform(0.01, 0.08))
        for beliefs in belief_pairs:
            for belief in beliefs:
                belief.record_send(seq, PACKET_BITS, now)
        seq += 1
        acks = []
        if step % 3 == 2 and seq >= 2:
            acks = [
                AckObservation(seq=seq - 2, received_at=now - 0.005, ack_at=now)
            ]
        for beliefs in belief_pairs:
            for belief in beliefs:
                belief.update(now, acks)
    return now + 0.05


class TestPoolConstruction:
    def test_requires_row_ensemble_backend(self):
        config = SenderConfig(belief_backend="scalar", rollout_backend="scalar")
        with pytest.raises(ConfigurationError, match="row-ensemble"):
            BatchedSenderPool(config, _priors(2))

    def test_requires_at_least_one_prior(self):
        config = SenderConfig(belief_backend="fused", rollout_backend="fused")
        with pytest.raises(ConfigurationError, match="at least one prior"):
            BatchedSenderPool(config, [])

    def test_parts_match_independent_construction(self):
        config = SenderConfig(
            belief_backend="fused", rollout_backend="fused", policy="cache"
        )
        pool = BatchedSenderPool(config, _priors(3))
        solo = [build_components(config, prior) for prior in _priors(3)]
        assert len(pool) == 3
        for pooled, independent in zip(pool, solo):
            assert type(pooled.belief) is type(independent.belief)
            assert type(pooled.planner) is type(independent.planner)
            assert type(pooled.policy) is type(independent.policy)
            assert list(pooled.belief.weights) == list(independent.belief.weights)


@pytest.mark.parametrize("backend", ["vectorized", "fused"])
class TestDecideAllBitIdentity:
    def test_decisions_match_per_sender_fused_decides(self, backend):
        config = SenderConfig(
            belief_backend=backend, rollout_backend="fused", policy="none"
        )
        count = 6
        pool = BatchedSenderPool(config, _priors(count))
        solo = [build_components(config, prior) for prior in _priors(count)]
        now = _drive(
            [
                (pool[index].belief, solo[index].belief)
                for index in range(count)
            ]
        )
        pooled = pool.decide_all(now)
        single = [parts.planner.decide(parts.belief, now) for parts in solo]
        assert len(pooled) == count
        for index, (ours, theirs) in enumerate(zip(pooled, single)):
            context = f"sender={index}"
            assert ours.action.delay == theirs.action.delay, context
            assert list(ours.expected_utilities) == list(
                theirs.expected_utilities
            ), context
            for delay, value in theirs.expected_utilities.items():
                assert (
                    float(ours.expected_utilities[delay]).hex()
                    == float(value).hex()
                ), context
            assert (
                pool[index].planner.rollouts_performed
                == solo[index].planner.rollouts_performed
            ), context

    def test_decide_all_is_repeatable(self, backend):
        config = SenderConfig(
            belief_backend=backend, rollout_backend="fused", policy="none"
        )
        pool = BatchedSenderPool(config, _priors(4))
        now = _drive([(parts.belief,) for parts in pool], steps=20)
        first = pool.decide_all(now)
        second = pool.decide_all(now)
        for a, b in zip(first, second):
            assert a.action.delay == b.action.delay
            assert a.expected_utilities == b.expected_utilities


class TestDecidePooled:
    def test_scalar_and_array_beliefs_share_one_frontier(self):
        """``decide_pooled`` takes any mix of beliefs: a scalar one is packed
        through ``EnsembleState.from_hypotheses`` into its own lane block, and
        every sender decides exactly as it would alone."""
        from repro.inference.vectorized.rollout import decide_pooled

        senders = []
        for index, belief_backend in enumerate(("scalar", "vectorized", "scalar")):
            config = SenderConfig(
                belief_backend=belief_backend, rollout_backend="vectorized", policy="none"
            )
            senders.append(build_components(config, _priors(3)[index]))
        now = _drive([(parts.belief,) for parts in senders], steps=12)
        pooled = decide_pooled([(p.planner, p.belief) for p in senders], now)
        for parts, ours in zip(senders, pooled):
            alone = parts.planner.decide(parts.belief, now)
            assert ours.action.delay == alone.action.delay
            assert ours.expected_utilities == alone.expected_utilities
