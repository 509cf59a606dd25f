"""Property-based invariants of :class:`~repro.inference.belief.BeliefState`.

Seeded stdlib-:mod:`random` exploration of the invariants every belief
backend must hold at *every* point of *any* update trajectory — not just
the endpoints the equivalence suites compare:

* weights come back normalized (sum 1) and non-negative after each
  evolve/score/compact/prune cycle;
* the ensemble never exceeds ``max_hypotheses``, whatever forking does;
* ``effective_sample_size`` stays within ``[1, len]`` and ``entropy``
  within ``[0, ln(len)]``;
* ``top(k)`` is weight-sorted and consistent with ``map_estimate``;
* ``decision_signature`` is a pure function of the belief: repeated calls
  and no-op round trips (a zero-elapsed update with no acknowledgements)
  leave it unchanged — the property the policy cache/table keys rely on;
* the posterior does not depend on the order the hypotheses were listed in
  (a ``hypothesis`` property over permutations of the prior's grid).
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.diagnostics import seeded_events
from repro.inference import BeliefState, GaussianKernel, Hypothesis, figure3_prior

#: Random trajectories explored per backend.
TRAJECTORIES = 12

#: Queue resolution used for the signature-stability checks.
RESOLUTION_BITS = 3_000.0

PACKET_BITS = 12_000.0

BACKENDS = ("scalar", "vectorized")


def suite_prior():
    return figure3_prior(
        link_rate_points=2,
        cross_fraction_points=2,
        loss_points=2,
        buffer_points=2,
        fill_points=1,
    )


def build_belief(backend: str, max_hypotheses: int) -> BeliefState:
    return BeliefState.from_prior(
        suite_prior(),
        backend=backend,
        kernel=GaussianKernel(sigma=0.5),
        max_hypotheses=max_hypotheses,
    )


def random_step(rng: random.Random, belief: BeliefState, now: float, seq: int, acked: set):
    """Apply one random send-or-update step; returns the new (now, seq).

    ``acked`` holds every sequence number acknowledged so far, which this
    step extends: each packet is acknowledged at most once, as a receiver
    does (the belief's own ``acked_seqs`` forgets retired packets).
    """
    if rng.random() < 0.5:
        belief.record_send(seq, PACKET_BITS, now)
        return now + rng.uniform(0.05, 0.8), seq + 1
    now += rng.uniform(0.2, 4.0)
    acks = []
    from repro.inference import AckObservation

    for pending in sorted(set(range(seq)) - acked):
        if rng.random() < 0.4:
            acks.append(
                AckObservation(
                    seq=pending,
                    received_at=now - rng.uniform(0.0, 0.3),
                    ack_at=now,
                )
            )
    acked.update(each.seq for each in acks)
    belief.update(now, acks)
    return now, seq


def assert_invariants(belief: BeliefState, max_hypotheses: int, context: str):
    weights = belief.weights
    assert len(belief) >= 1, context
    if belief.updates_applied > 0:
        # The cap is enforced by the update cycle's prune; the raw prior may
        # legitimately exceed it until the first update runs.
        assert len(belief) <= max_hypotheses, context
    assert len(weights) == len(belief), context
    assert all(weight >= 0.0 for weight in weights), context
    assert sum(weights) == pytest.approx(1.0, abs=1e-9), context

    ess = belief.effective_sample_size()
    assert 1.0 - 1e-9 <= ess <= len(belief) + 1e-9, context
    entropy = belief.entropy()
    assert -1e-12 <= entropy <= math.log(len(belief)) + 1e-9, context

    top = belief.top(len(belief))
    top_weights = [weight for _, weight in top]
    assert top_weights == sorted(top_weights, reverse=True), context
    assert belief.map_estimate().params == top[0][0].params, context

    marginal = belief.posterior_marginal("link_rate_bps")
    assert sum(marginal.values()) == pytest.approx(1.0, abs=1e-9), context


class TestBeliefInvariants:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_invariants_hold_along_random_trajectories(self, backend):
        for trajectory in range(TRAJECTORIES):
            rng = random.Random(1_000 + trajectory)
            max_hypotheses = rng.choice((4, 16, 48))
            belief = build_belief(backend, max_hypotheses)
            now, seq, acked = 0.0, 0, set()
            for step in range(rng.randint(3, 7)):
                now, seq = random_step(rng, belief, now, seq, acked)
                assert_invariants(
                    belief,
                    max_hypotheses,
                    f"backend={backend} trajectory={trajectory} step={step}",
                )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_weights_renormalize_even_when_degenerate(self, backend):
        from repro.inference import AckObservation, ExactMatchKernel

        belief = BeliefState.from_prior(
            figure3_prior(link_rate_points=2, fill_points=1),
            backend=backend,
            kernel=ExactMatchKernel(tolerance=1e-6),
            max_hypotheses=32,
        )
        belief.record_send(0, PACKET_BITS, 0.0)
        # An impossibly early ack rejects every hypothesis (degenerate keep).
        belief.update(0.05, [AckObservation(seq=0, received_at=0.05, ack_at=0.05)])
        assert belief.degenerate_updates >= 1
        assert_invariants(belief, 32, f"backend={backend} degenerate")


class TestDecisionSignatureStability:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_signature_is_pure_and_survives_noop_round_trips(self, backend):
        for trajectory in range(TRAJECTORIES):
            rng = random.Random(2_000 + trajectory)
            belief = build_belief(backend, max_hypotheses=32)
            now, seq, acked = 0.0, 0, set()
            for _ in range(rng.randint(2, 5)):
                now, seq = random_step(rng, belief, now, seq, acked)
            # Settle at `now` so the round trip below is genuinely no-op —
            # a trajectory ending in a send still has time to make up.
            belief.update(now, [])
            top_k = rng.choice((1, 4, 8))
            context = f"backend={backend} trajectory={trajectory}"

            signature = belief.decision_signature(top_k, RESOLUTION_BITS)
            # Pure: recomputing must not perturb or depend on hidden state.
            assert belief.decision_signature(top_k, RESOLUTION_BITS) == signature, context

            # No-op round trip: zero elapsed time, no acknowledgements.
            updates_before = belief.updates_applied
            belief.update(now, [])
            assert belief.updates_applied == updates_before + 1, context
            assert belief.decision_signature(top_k, RESOLUTION_BITS) == signature, context

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_signature_is_hashable_and_resolution_sensitive(self, backend):
        belief = build_belief(backend, max_hypotheses=32)
        belief.record_send(0, PACKET_BITS, 0.0)
        belief.update(1.0, [])
        signature = belief.decision_signature(4, RESOLUTION_BITS)
        hash(signature)  # usable as a cache/table key
        assert len(signature) <= 4
        # A full-ensemble signature refines the truncated one.
        wide = belief.decision_signature(len(belief), RESOLUTION_BITS)
        assert wide[: len(signature)] == signature


# --------------------------------------------------- hypothesis-order invariance

#: The suite's prior as (params, probability) pairs, in grid order.
GRID = list(suite_prior().combinations())


def posterior_after_script(backend: str, order, seed: int, max_hypotheses: int) -> list:
    """``(signature, weight)`` pairs, canonically sorted, after ``seeded_events(seed)``
    on a belief whose initial hypotheses are ``GRID`` listed in ``order``."""
    belief = BeliefState.for_backend(backend)(
        [Hypothesis.from_params(GRID[index][0]) for index in order],
        [GRID[index][1] for index in order],
        kernel=GaussianKernel(sigma=0.5),
        max_hypotheses=max_hypotheses,
    )
    for kind, args in seeded_events(seed):
        if kind == "send":
            belief.record_send(*args)
        elif kind == "update":
            belief.update(*args)
    pairs = [(repr(hyp.signature()), weight) for hyp, weight in belief.top(len(belief))]
    return sorted(pairs)


class TestHypothesisOrderInvariance:
    """ROADMAP direction 1(2): permutation invariance of hypothesis order."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @settings(max_examples=25, deadline=None)
    @given(order=st.permutations(range(len(GRID))), seed=st.integers(0, 199))
    def test_shuffled_prior_gives_the_same_posterior_multiset(self, backend, order, seed):
        # The cap is out of reach on purpose: a prune that must cut through a
        # run of equal weights keeps whichever rows come first, and that is
        # the one place order is allowed to show.
        reference = posterior_after_script(backend, range(len(GRID)), seed, 4_096)
        shuffled = posterior_after_script(backend, order, seed, 4_096)
        assert len(shuffled) == len(reference)
        for (signature, weight), (expected_signature, expected_weight) in zip(
            shuffled, reference
        ):
            assert signature == expected_signature
            assert weight == pytest.approx(expected_weight, abs=1e-12)
