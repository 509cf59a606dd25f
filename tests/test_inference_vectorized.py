"""Scalar ↔ vectorized belief-backend equivalence suite.

Every test drives both backends through *identical* send/acknowledgement
sequences and compares the resulting posteriors, MAP estimates, marginals,
and bookkeeping counters.  The two implementations are designed to apply
the same float operations in the same order, so the assertions here are
mostly exact; where a documented tolerance applies (transcendental calls),
``approx`` with ``abs=1e-9`` is used.

Covered regimes: plain convergence, gate forking + compaction merges,
degenerate updates (keep and raise policies), prune-at-cap, missing-ack
loss charging, charged-lost contradictions, and a property-style sweep over
randomized acknowledgement timings.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InferenceError
from repro.inference import (
    AckObservation,
    BeliefState,
    ExactMatchKernel,
    GaussianKernel,
    Hypothesis,
    figure3_prior,
    single_link_prior,
)
from repro.inference.vectorized import VectorizedBeliefState
from test_planner_rollout_vectorized import assert_decisions_equivalent


def both_backends(prior, **kwargs):
    """One scalar and one vectorized belief over the same prior."""
    scalar = BeliefState.from_prior(prior, backend="scalar", **kwargs)
    vectorized = BeliefState.from_prior(prior, backend="vectorized", **kwargs)
    return scalar, vectorized


def replay(belief, events):
    for kind, args in events:
        if kind == "send":
            belief.record_send(*args)
        else:
            belief.update(*args)
    return belief


def assert_equivalent(scalar, vectorized, weight_tolerance=1e-9):
    """Posteriors, MAP, marginals, and counters agree across backends."""
    assert len(scalar) == len(vectorized)
    assert scalar.updates_applied == vectorized.updates_applied
    assert scalar.degenerate_updates == vectorized.degenerate_updates
    assert scalar.compacted_away == vectorized.compacted_away
    assert scalar.acked_seqs == vectorized.acked_seqs

    for expected, actual in zip(scalar.weights, vectorized.weights):
        assert actual == pytest.approx(expected, abs=weight_tolerance)

    assert scalar.map_estimate().params == vectorized.map_estimate().params

    for parameter in ("link_rate_bps",):
        expected = scalar.posterior_marginal(parameter)
        actual = vectorized.posterior_marginal(parameter)
        assert set(expected) == set(actual)
        for value in expected:
            assert actual[value] == pytest.approx(expected[value], abs=weight_tolerance)
        assert vectorized.posterior_mean(parameter) == pytest.approx(
            scalar.posterior_mean(parameter), abs=1e-6
        )

    assert vectorized.effective_sample_size() == pytest.approx(
        scalar.effective_sample_size(), rel=1e-9
    )
    assert vectorized.entropy() == pytest.approx(scalar.entropy(), abs=1e-9)

    # The ensembles hold the same latent states, hypothesis for hypothesis.
    for (s_hyp, s_w), (v_hyp, v_w) in zip(scalar.top(len(scalar)), vectorized.top(len(vectorized))):
        assert s_hyp.params == v_hyp.params
        assert s_hyp.signature() == v_hyp.signature()
        assert v_w == pytest.approx(s_w, abs=weight_tolerance)


def ack(seq, at):
    return AckObservation(seq=seq, received_at=at, ack_at=at)


class TestBackendSelection:
    def test_from_prior_backend_switch(self):
        prior = single_link_prior()
        assert type(BeliefState.from_prior(prior)) is BeliefState
        assert type(BeliefState.from_prior(prior, backend="scalar")) is BeliefState
        assert (
            type(BeliefState.from_prior(prior, backend="vectorized"))
            is VectorizedBeliefState
        )

    def test_backend_attribute(self):
        prior = single_link_prior()
        assert BeliefState.from_prior(prior).backend == "scalar"
        assert BeliefState.from_prior(prior, backend="vectorized").backend == "vectorized"

    def test_unknown_backend_rejected(self):
        with pytest.raises(InferenceError):
            BeliefState.from_prior(single_link_prior(), backend="quantum")

    def test_vectorized_requires_lockstep_clocks(self):
        early = Hypothesis.from_params(
            {"link_rate_bps": 12_000.0, "buffer_capacity_bits": 96_000.0}
        )
        late = Hypothesis.from_params(
            {"link_rate_bps": 12_000.0, "buffer_capacity_bits": 96_000.0},
            start_time=3.0,
        )
        with pytest.raises(InferenceError):
            VectorizedBeliefState([early, late])


class TestSimpleConvergence:
    EVENTS = [
        ("send", (0, 12_000.0, 0.0)),
        ("update", (1.0, [ack(0, 1.0)])),
        ("send", (1, 12_000.0, 1.1)),
        ("update", (2.2, [ack(1, 2.1)])),
        ("update", (4.0, [])),
    ]

    def test_exact_kernel(self):
        scalar, vectorized = both_backends(
            single_link_prior(), kernel=ExactMatchKernel(tolerance=1e-6)
        )
        replay(scalar, self.EVENTS)
        replay(vectorized, self.EVENTS)
        assert_equivalent(scalar, vectorized)
        assert vectorized.posterior_marginal("link_rate_bps")[12_000.0] == pytest.approx(1.0)

    def test_gaussian_kernel(self):
        scalar, vectorized = both_backends(
            single_link_prior(), kernel=GaussianKernel(sigma=0.4)
        )
        replay(scalar, self.EVENTS)
        replay(vectorized, self.EVENTS)
        assert_equivalent(scalar, vectorized)


class TestForkingAndCompaction:
    def test_forking_prior_stays_equivalent(self):
        # mean_time_to_switch is set in figure3_prior, so every update forks;
        # repeated short updates let forked branches drain back into identical
        # latent states, which exercises the compaction merge.
        events = [
            ("send", (0, 12_000.0, 0.0)),
            ("update", (1.0, [ack(0, 1.0)])),
            ("send", (1, 12_000.0, 1.2)),
            ("update", (2.5, [ack(1, 2.2)])),
            ("update", (6.0, [])),
            ("update", (9.0, [])),
            ("send", (2, 12_000.0, 9.5)),
            ("update", (30.0, [])),
        ]
        scalar, vectorized = both_backends(
            figure3_prior(), kernel=GaussianKernel(sigma=0.4), max_hypotheses=128
        )
        replay(scalar, events)
        replay(vectorized, events)
        assert scalar.compacted_away > 0
        assert_equivalent(scalar, vectorized)

    def test_identical_hypotheses_compact_identically(self):
        params = {
            "link_rate_bps": 12_000.0,
            "buffer_capacity_bits": 96_000.0,
            "loss_rate": 0.0,
            "cross_rate_pps": 0.7,
            "mean_time_to_switch": 100.0,
        }
        def build(cls):
            return cls(
                [Hypothesis.from_params(params), Hypothesis.from_params(params)],
                kernel=GaussianKernel(sigma=0.5),
            )
        scalar = build(BeliefState)
        vectorized = build(VectorizedBeliefState)
        scalar.update(1.0, [])
        vectorized.update(1.0, [])
        assert scalar.compacted_away >= 1
        assert_equivalent(scalar, vectorized)

    def test_one_row_belief_never_packs_a_signature(self, monkeypatch):
        """Fewer than two surviving rows cannot merge, so compaction must not
        pay for the digest — the common case for a converged belief."""
        from repro.inference.vectorized import EnsembleState

        calls = []
        original = EnsembleState.signature_matrix

        def spy(self, rows):
            calls.append(int(rows.size))
            return original(self, rows)

        monkeypatch.setattr(EnsembleState, "signature_matrix", spy)
        params = {"link_rate_bps": 12_000.0, "buffer_capacity_bits": 96_000.0}

        def build(cls):
            return cls([Hypothesis.from_params(params)], kernel=GaussianKernel(sigma=0.5))

        scalar, vectorized = build(BeliefState), build(VectorizedBeliefState)
        compact_payloads = []
        vectorized.stage_hook = lambda stage, payload: (
            compact_payloads.append(payload) if stage == "compact" else None
        )
        events = [
            ("send", (0, 12_000.0, 0.0)),
            ("update", (1.0, [ack(0, 1.0)])),
            ("send", (1, 12_000.0, 1.2)),
            ("update", (2.5, [ack(1, 2.2)])),
            ("update", (6.0, [])),
        ]
        replay(scalar, events)
        replay(vectorized, events)
        assert calls == []
        assert vectorized.compacted_away == 0
        assert [payload["count"] for payload in compact_payloads] == [1, 1, 1]
        assert_equivalent(scalar, vectorized)


class TestPruneAtCap:
    def test_tiny_cap_keeps_the_same_survivors(self):
        events = [
            ("send", (0, 12_000.0, 0.0)),
            ("update", (1.0, [ack(0, 1.0)])),
            ("update", (5.0, [])),
            ("update", (12.0, [])),
        ]
        scalar, vectorized = both_backends(
            figure3_prior(), kernel=GaussianKernel(sigma=0.6), max_hypotheses=7
        )
        replay(scalar, events)
        replay(vectorized, events)
        assert len(scalar) <= 7
        assert_equivalent(scalar, vectorized)


class TestDegenerateUpdates:
    def test_keep_policy(self):
        # An acknowledgement far earlier than any hypothesis can explain.
        events = [
            ("send", (0, 12_000.0, 0.0)),
            ("update", (0.2, [ack(0, 0.2)])),
            ("update", (3.0, [])),
        ]
        scalar, vectorized = both_backends(
            single_link_prior(), kernel=ExactMatchKernel(tolerance=1e-6)
        )
        replay(scalar, events)
        replay(vectorized, events)
        assert scalar.degenerate_updates >= 1
        assert_equivalent(scalar, vectorized)


class TestLossCharging:
    def test_missing_acks_charged_to_loss(self):
        # loss_rate > 0 hypotheses charge unacknowledged packets to loss;
        # zero-loss hypotheses are rejected.
        events = [
            ("send", (0, 12_000.0, 0.0)),
            ("send", (1, 12_000.0, 0.1)),
            ("update", (20.0, [])),
        ]
        scalar, vectorized = both_backends(
            figure3_prior(loss_points=3), kernel=GaussianKernel(sigma=0.4)
        )
        replay(scalar, events)
        replay(vectorized, events)
        assert_equivalent(scalar, vectorized)
        # Every surviving hypothesis carries positive loss.
        for hypothesis, weight in vectorized.top(5):
            if weight > 0:
                assert hypothesis.params["loss_rate"] > 0.0

    def test_late_ack_contradicts_charged_loss(self):
        events = [
            ("send", (0, 12_000.0, 0.0)),
            ("update", (20.0, [])),           # charge packet 0 as lost
            ("update", (21.0, [ack(0, 20.5)])),  # ...then it arrives anyway
        ]
        scalar, vectorized = both_backends(
            figure3_prior(loss_points=3), kernel=GaussianKernel(sigma=0.4)
        )
        replay(scalar, events)
        replay(vectorized, events)
        assert scalar.degenerate_updates == vectorized.degenerate_updates
        assert_equivalent(scalar, vectorized)

    @pytest.mark.parametrize("charged", [True, False])
    def test_charged_once_now_reaches_the_predicted_delivery(self, charged):
        """The scalar form skips a packet whose ``prediction.time > now``, the
        array form charges one whose ``pred_time <= now``: at ``now`` equal to
        the predicted delivery both charge it, one ulp before neither does."""
        prior = single_link_prior(
            link_rate_low=12_000.0,
            link_rate_high=16_000.0,
            link_rate_points=2,
            fill_points=1,
            loss_rate=0.2,
        )
        due = 12_000.0 / 16_000.0  # the 16 kbit/s row delivers packet 0 at 0.75 s
        now = due if charged else math.nextafter(due, -math.inf)
        scalar, vectorized = both_backends(prior, kernel=GaussianKernel(sigma=0.4))
        for belief in (scalar, vectorized):
            replay(belief, [("send", (0, 12_000.0, 0.0)), ("update", (now, []))])
            rates = [hypothesis.params["link_rate_bps"] for hypothesis in belief.hypotheses]
            assert rates == [12_000.0, 16_000.0]
            # Charged, the fast row's weight carries the loss rate 0.2.
            expected = [1.0 / 1.2, 0.2 / 1.2] if charged else [0.5, 0.5]
            assert belief.weights == pytest.approx(expected, abs=1e-12)
        if charged:
            # The boundary is exact: the packet is due at ``now`` itself.
            assert scalar.hypotheses[1].model.predictions[0].time == now
        assert_equivalent(scalar, vectorized)


class TestMaterializedHypotheses:
    def test_roundtrip_through_export_state(self):
        vectorized = BeliefState.from_prior(
            figure3_prior(), kernel=GaussianKernel(sigma=0.4), backend="vectorized"
        )
        replay(
            vectorized,
            [("send", (0, 12_000.0, 0.0)), ("update", (1.0, [ack(0, 1.0)]))],
        )
        for hypothesis, _ in vectorized.top(3):
            # A materialized hypothesis survives another export/import cycle
            # and keeps its latent-state digest.
            clone = Hypothesis.from_state(
                hypothesis.params, hypothesis.model.params, hypothesis.export_state()
            )
            assert clone.signature() == hypothesis.signature()

    def test_materialized_rollout_matches_scalar(self):
        events = [("send", (0, 12_000.0, 0.0)), ("update", (1.0, [ack(0, 1.0)]))]
        scalar, vectorized = both_backends(
            single_link_prior(), kernel=ExactMatchKernel(tolerance=1e-6)
        )
        replay(scalar, events)
        replay(vectorized, events)
        s_out = scalar.map_estimate().rollout(0.0, 5.0, 12_000.0)
        v_out = vectorized.map_estimate().rollout(0.0, 5.0, 12_000.0)
        assert v_out.hypothetical_delivered == s_out.hypothetical_delivered
        assert v_out.hypothetical_delivery_time == pytest.approx(
            s_out.hypothetical_delivery_time
        )
        assert v_out.own_deliveries == s_out.own_deliveries


class TestSignatureRoundingParity:
    def test_digest_rounding_matches_python_round(self):
        # np.round and Python round disagree on a measurable fraction of
        # near-halfway values; the compaction digest must follow the scalar
        # Hypothesis.signature, which uses round().
        import numpy as np

        from repro.inference.vectorized.state import _python_round

        adversarial = float.fromhex("0x1.797cc39ffd60fp-16")
        values = np.array([adversarial, 1.0000005, 2.5e-7, math.inf, 12_000.125])
        rounded = _python_round(values, 6)
        for expected, actual in zip(values.tolist(), rounded.tolist()):
            assert actual == round(expected, 6)

    def test_digest_rounding_parity_randomized(self):
        import numpy as np

        from repro.inference.vectorized.state import _python_round

        rng = np.random.default_rng(20260727)
        # Mix magnitudes typical of the digest inputs (completions in
        # seconds, queue bits) with values engineered to sit near halfway
        # points after scaling.
        values = np.concatenate(
            [
                rng.uniform(0.0, 60.0, 20_000),
                rng.uniform(0.0, 200_000.0, 20_000),
                (rng.integers(0, 10**8, 20_000) * 2 + 1) / 2e6,  # exact halves
                (rng.integers(0, 10**8, 20_000) * 2 + 1) / 2e6
                + rng.uniform(-1e-12, 1e-12, 20_000),
            ]
        )
        for digits in (3, 6):
            fast = _python_round(values, digits).tolist()
            for value, actual in zip(values.tolist(), fast):
                assert actual == round(value, digits), (value.hex(), digits)


class TestPropertyStyle:
    @settings(max_examples=15, deadline=None)
    @given(
        offsets=st.lists(
            st.floats(min_value=-0.4, max_value=0.6), min_size=1, max_size=4
        ),
        gap=st.floats(min_value=0.5, max_value=3.0),
    )
    def test_randomized_ack_timings_stay_equivalent(self, offsets, gap):
        scalar, vectorized = both_backends(
            figure3_prior(),
            kernel=GaussianKernel(sigma=0.5),
            max_hypotheses=64,
        )
        now = 0.0
        for seq, offset in enumerate(offsets):
            send_at = now
            for belief in (scalar, vectorized):
                belief.record_send(seq, 12_000.0, send_at)
            now = send_at + gap
            observed = max(send_at + 1e-3, send_at + 1.0 + offset)
            observations = [ack(seq, min(observed, now))]
            scalar.update(now, observations)
            vectorized.update(now, observations)
            assert sum(vectorized.weights) == pytest.approx(1.0)
        assert_equivalent(scalar, vectorized)


    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.floats(min_value=6_000.0, max_value=30_000.0),
                st.sampled_from([24_000.0, 36_000.0, 96_000.0]),
                st.sampled_from([0.0, 12_000.0, 24_000.0]),
                st.sampled_from([0.0, 0.4, 1.1, 2.0]),
                st.booleans(),
            ),
            min_size=1,
            max_size=5,
        ),
        send_gaps=st.lists(st.floats(min_value=0.0, max_value=3.0), max_size=10),
        pauses=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6),
        tail=st.floats(min_value=0.0, max_value=30.0),
    )
    def test_advance_composes(self, rows, send_gaps, pauses, tail):
        """advance(t₁+t₂) ≡ advance(t₁)∘advance(t₂) on an ``EnsembleState``:
        pausing the shared clock on the way changes no row."""
        from repro.inference.vectorized import EnsembleState, engine

        def ensemble():
            return EnsembleState.from_hypotheses(
                [
                    Hypothesis.from_params(
                        {
                            "link_rate_bps": link_rate,
                            "buffer_capacity_bits": capacity,
                            "initial_fill_bits": fill,
                            "cross_rate_pps": cross_rate,
                            "cross_initially_on": cross_on,
                        }
                    )
                    for link_rate, capacity, fill, cross_rate, cross_on in rows
                ]
            )

        sends, now = [], 0.0
        for seq, gap in enumerate(send_gaps):
            now += gap
            sends.append((now, seq))
        horizon = now + tail

        one_step = ensemble()
        for at, seq in sends:
            engine.send_own(one_step, seq, 12_000.0, at)
        engine.advance(one_step, horizon)

        paused = ensemble()
        pause_steps = [(fraction * horizon, None) for fraction in pauses]
        steps = sorted(sends + pause_steps, key=lambda step: step[0])
        for at, seq in steps:
            if seq is None:
                engine.advance(paused, at)
            else:
                engine.send_own(paused, seq, 12_000.0, at)
        engine.advance(paused, horizon)

        assert paused.time == one_step.time
        for row in range(len(rows)):
            # Queue contents, service state and predictions, row by row.
            assert (
                paused.materialize(row).export_state()
                == one_step.materialize(row).export_state()
            )


def comparable_state(hypothesis):
    """``export_state`` with predictions in one order: the scalar model lists
    them in event order, a materialized row chronologically."""
    state = hypothesis.export_state()
    state["predictions"] = sorted(state["predictions"], key=lambda entry: (entry[2], entry[0]))
    return state


class TestOneFrontierFork:
    """A gate fork advances its stay and switch branches in one frontier,
    each row firing what a completion leaves it owing in the same iteration,
    and every branch is still ``Hypothesis.evolve``'s to the bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                # 12 kbit/s serves a 12 kbit packet in exactly 1 s, and the
                # cross rates are reciprocals of whole or half seconds: with
                # integer send and update times, completions, arrivals and
                # the fork's midpoint flip keep landing on the same instant.
                # Tie order shows only in a full buffer (who is tail-dropped),
                # so most buffers hold one or two packets.
                st.sampled_from([6_000.0, 12_000.0, 24_000.0]),
                st.sampled_from([12_000.0, 24_000.0, 96_000.0]),
                st.sampled_from([0.0, 12_000.0]),
                st.sampled_from([0.0, 0.5, 1.0, 2.0]),
                st.sampled_from([6_000.0, 12_000.0, 18_000.0]),
                st.sampled_from([None, 2.0, 30.0]),
                st.booleans(),
            ),
            min_size=1,
            max_size=6,
        ),
        send_times=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]), max_size=6),
        steps=st.lists(st.sampled_from([0.5, 1.0, 2.0, 4.0, 7.5]), min_size=1, max_size=3),
    )
    def test_branches_equal_scalar_evolve(self, rows, send_times, steps):
        from repro.inference.vectorized import EnsembleState, engine

        hypotheses = []
        for link_rate, capacity, fill, cross_rate, cross_bits, mtts, cross_on in rows:
            params = {
                "link_rate_bps": link_rate,
                "buffer_capacity_bits": capacity,
                "initial_fill_bits": fill,
                "cross_rate_pps": cross_rate,
                "cross_packet_bits": cross_bits,
                "cross_initially_on": cross_on,
            }
            if mtts is not None:
                params["mean_time_to_switch"] = mtts
            hypotheses.append(Hypothesis.from_params(params))
        for seq, at in enumerate(sorted(send_times)):
            for hypothesis in hypotheses:
                hypothesis.record_send(seq, 12_000.0, at)
        state = EnsembleState.from_hypotheses(hypotheses)

        now = max(send_times, default=0.0)
        for step in steps:
            now += step
            state, parents, probabilities = engine.fork_and_advance(state, now)
            branches = [
                (parent, branch, probability)
                for parent, hypothesis in enumerate(hypotheses)
                for branch, probability in hypothesis.evolve(now)
                if probability > 0.0
            ]
            hypotheses = [branch for _, branch, _ in branches]
            assert parents.tolist() == [parent for parent, _, _ in branches]
            assert probabilities.tolist() == [probability for _, _, probability in branches]
            assert state.time == now
            assert [comparable_state(state.materialize(row)) for row in range(state.size)] == [
                comparable_state(hypothesis) for hypothesis in hypotheses
            ]

    def test_a_fork_is_one_advance_over_one_gather(self, monkeypatch):
        """Stay and switch branches are gathered once and advanced together:
        one ``advance`` call and one ``select`` per forking update."""
        from repro.inference.vectorized import EnsembleState, engine

        belief = BeliefState.from_prior(figure3_prior(), backend="vectorized")
        belief.record_send(0, 12_000.0, 0.0)
        calls = {"advance": 0, "select": 0}

        def counting(name, original):
            def spy(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return spy

        monkeypatch.setattr(engine, "advance", counting("advance", engine.advance))
        monkeypatch.setattr(EnsembleState, "select", counting("select", EnsembleState.select))
        state = belief.state
        assert engine.can_fork(state).all()
        branch_state, parents, _ = engine.fork_and_advance(state, 3.0)
        assert calls == {"advance": 1, "select": 1}
        assert branch_state.size == parents.size == 2 * state.size


class ArrayKernelOnly(VectorizedBeliefState):
    """The array belief with the hand-off rule replaced by a no-op."""

    def _hand_off_settled_row(self) -> None:
        pass


def contention_prior():
    """The ``many_flow_contention`` sender's prior shape: 7 link rates x 3
    initial fills, no cross traffic, so no row can ever fork."""
    return single_link_prior(
        link_rate_low=4_000.0,
        link_rate_high=40_000.0,
        link_rate_points=7,
        buffer_capacity_bits=96_000.0,
        fill_points=3,
    )


def settling_script():
    """Sends at 1 s spacing, acknowledged as a 16 kbit/s link would.

    On :func:`contention_prior` with a sigma = 0.15 kernel the posterior
    reaches one row at the eleventh of 18 updates (t = 9.8).  Degenerate
    updates sit on both sides of that point (an acknowledgement nobody sent,
    at t = 2.9 and t = 11.9), a two-packet burst at t = 8 queues behind the
    link, and the packet sent at t = 13 is never acknowledged, so — the prior
    being loss-free — every update from t = 13.8 on is degenerate, as on the
    contention workload.
    """
    events = []
    seq = 0
    link_free_at = 0.0
    in_flight = []
    for index in range(16):
        now = float(index)
        for _ in range(2 if index == 8 else 1):
            events.append(("send", (seq, 12_000.0, now)))
            link_free_at = max(link_free_at, now) + 0.75
            if index != 13:
                in_flight.append(ack(seq, link_free_at))
            seq += 1
        update_at = now + 0.8
        arrived = [each for each in in_flight if each.received_at <= update_at]
        in_flight = [each for each in in_flight if each.received_at > update_at]
        events.append(("update", (update_at, arrived)))
        if index in (2, 11):
            events.append(("update", (now + 0.9, [ack(99, now + 0.9)])))
    return events


def vectorized_planner():
    from repro.core.planner import ExpectedUtilityPlanner
    from repro.core.utility import AlphaWeightedUtility

    return ExpectedUtilityPlanner(
        AlphaWeightedUtility(alpha=1.0, discount_timescale=20.0),
        packet_bits=12_000.0,
        top_k=4,
        rollout_backend="vectorized",
    )


def assert_same_observables(oracle, belief):
    """What a sender, a policy cache and the ledger's tracer read."""
    assert len(belief) == len(oracle)
    assert belief.weights == pytest.approx(oracle.weights, abs=1e-9)
    assert [h.export_state() for h in belief.hypotheses] == [
        h.export_state() for h in oracle.hypotheses
    ]
    assert belief.decision_signature(4, 12_000.0) == oracle.decision_signature(4, 12_000.0)
    assert belief.map_link_rate_bps() == oracle.map_link_rate_bps()
    assert belief.posterior_mean("link_rate_bps") == pytest.approx(
        oracle.posterior_mean("link_rate_bps"), rel=1e-12
    )
    assert belief.acked_seqs == oracle.acked_seqs
    assert belief.updates_applied == oracle.updates_applied
    assert belief.degenerate_updates == oracle.degenerate_updates
    assert belief.compacted_away == oracle.compacted_away


class TestSettledHandOff:
    """One fork-free row leaves the array kernel for the reference one."""

    KERNEL = GaussianKernel(sigma=0.15)

    @pytest.fixture
    def array_kernel_calls(self, monkeypatch):
        """Counts every entry into the array kernel, by entry point."""
        from repro.inference.vectorized import EnsembleState, engine
        from repro.inference.vectorized import belief as belief_module

        calls = {"fork_and_advance": 0, "send_own": 0, "score_and_bookkeep": 0, "select": 0}

        def counting(name, original):
            def spy(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return spy

        for owner, name in (
            (engine, "fork_and_advance"),
            (engine, "send_own"),
            (belief_module, "score_and_bookkeep"),
            (EnsembleState, "select"),
        ):
            monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
        return calls

    def test_settled_belief_equals_the_oracle_and_never_reenters_the_array_kernel(
        self, array_kernel_calls
    ):
        oracle, belief = both_backends(contention_prior(), kernel=self.KERNEL)
        settled_at = None
        calls_when_settled = None
        updates = 0
        for kind, args in settling_script():
            replay(oracle, [(kind, args)])
            replay(belief, [(kind, args)])
            if kind == "update":
                updates += 1
                assert_same_observables(oracle, belief)
                if settled_at is None and belief.state is None:
                    settled_at = updates
                    calls_when_settled = dict(array_kernel_calls)
            if settled_at is not None:
                # One way: once handed off, never array-held again.
                assert belief.state is None
                assert array_kernel_calls == calls_when_settled
        assert settled_at == 11 and updates == 18
        assert type(belief) is VectorizedBeliefState and belief.backend == "vectorized"
        assert belief.degenerate_updates == 5  # two before t = 13.9, then every update
        with pytest.raises(InferenceError, match="settled"):
            belief.top_rows(4)

    def test_decision_is_the_one_taken_on_the_array_held_row(self):
        """The same one-row posterior, held both ways, plans identically:
        in place through ``top_rows`` and repacked through ``top``."""
        held = ArrayKernelOnly.from_prior(contention_prior(), kernel=self.KERNEL)
        script = settling_script()
        replay(held, script)
        now = script[-1][1][0]
        assert len(held) == 1 and held.state is not None
        array_held = vectorized_planner().decide(held, now)
        VectorizedBeliefState._hand_off_settled_row(held)
        assert held.state is None
        assert_decisions_equivalent(array_held, vectorized_planner().decide(held, now))

    def test_a_row_that_can_still_fork_stays(self):
        """The Figure-3 prior pruned to one survivor is one row *now*: its
        gate forks it into two at the next update, so it is not handed off."""
        oracle, belief = both_backends(
            figure3_prior(), kernel=GaussianKernel(sigma=0.4), max_hypotheses=1
        )
        for now in (1.0, 2.0, 3.5):
            oracle.update(now, [])
            belief.update(now, [])
            assert len(belief) == 1 and belief.state is not None
            assert_same_observables(oracle, belief)

    def test_no_hand_off_on_the_figure3_prior(self, monkeypatch):
        hand_offs = []
        rule = VectorizedBeliefState._hand_off_settled_row

        def counted(self):
            rule(self)
            hand_offs.append(self.state is None)

        monkeypatch.setattr(VectorizedBeliefState, "_hand_off_settled_row", counted)
        belief = BeliefState.from_prior(
            figure3_prior(), backend="vectorized", kernel=GaussianKernel(sigma=0.4)
        )
        for seq in range(12):
            at = 1.5 * seq
            belief.record_send(seq, 12_000.0, at)
            belief.update(at + 1.2, [ack(seq, at + 1.0)])
        assert hand_offs == [False] * 12

    def test_two_fork_free_rows_stay(self):
        params = {"buffer_capacity_bits": 96_000.0}
        belief = VectorizedBeliefState(
            [
                Hypothesis.from_params({"link_rate_bps": rate, **params})
                for rate in (12_000.0, 12_500.0)
            ],
            kernel=GaussianKernel(sigma=0.5),
        )
        belief.record_send(0, 12_000.0, 0.0)
        belief.update(1.5, [ack(0, 1.0)])
        assert len(belief) == 2 and belief.state is not None

    def test_stage_hook_fires_the_same_six_stages_across_the_hand_off(self):
        oracle, belief = both_backends(contention_prior(), kernel=self.KERNEL)
        seen = {id(oracle): [], id(belief): []}
        for each in (oracle, belief):
            each.stage_hook = lambda stage, payload, log=seen[id(each)]: log.append(
                (stage, payload)
            )
        replay(oracle, settling_script())
        replay(belief, settling_script())
        assert belief.state is None
        stages = [stage for stage, _ in seen[id(belief)]]
        assert stages == ["fork", "advance", "score", "compact", "prune", "posterior"] * 18
        assert seen[id(belief)] == seen[id(oracle)]

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from([8_000.0, 12_000.0, 16_000.0, 24_000.0]),
                st.sampled_from([24_000.0, 96_000.0]),
                st.sampled_from([0.0, 12_000.0, 24_000.0]),
                st.sampled_from([0.0, 0.1]),
                st.sampled_from([(0.0, None), (0.0, None), (0.4, None), (0.4, 5.0)]),
            ),
            min_size=1,
            max_size=4,
        ),
        steps=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2),  # packets sent this step
                st.floats(min_value=0.05, max_value=4.0),  # time to the update
                st.floats(min_value=0.0, max_value=1.0),  # share of it acked...
                st.sampled_from([12_000.0, 16_000.0]),  # ...as by this link rate
            ),
            min_size=1,
            max_size=10,
        ),
        sigma=st.sampled_from([0.05, 0.3]),
    )
    def test_hand_off_changes_nothing_observable(self, rows, steps, sigma):
        """Random scripts over small priors — fork-free ones, and mixed ones
        whose surviving row may or may not be able to fork: the oracle, the
        array belief, and the array belief with the rule patched out agree on
        posterior, signature and decision after every update."""

        def hypotheses():
            return [
                Hypothesis.from_params(
                    {
                        "link_rate_bps": link_rate,
                        "buffer_capacity_bits": capacity,
                        "initial_fill_bits": fill,
                        "loss_rate": loss,
                        "cross_rate_pps": cross_rate,
                        **({} if mtts is None else {"mean_time_to_switch": mtts}),
                    }
                )
                for link_rate, capacity, fill, loss, (cross_rate, mtts) in rows
            ]

        kernel = GaussianKernel(sigma=sigma)
        oracle = BeliefState(hypotheses(), kernel=kernel, max_hypotheses=6)
        belief = VectorizedBeliefState(hypotheses(), kernel=kernel, max_hypotheses=6)
        held = ArrayKernelOnly(hypotheses(), kernel=kernel, max_hypotheses=6)
        planner = vectorized_planner()
        now, seq, outstanding = 0.0, 0, []
        for sends, gap, acked_share, link_rate in steps:
            for _ in range(sends):
                for each in (oracle, belief, held):
                    each.record_send(seq, 12_000.0, now)
                outstanding.append((seq, now))
                seq += 1
                now += 0.01
            now += gap
            take = round(acked_share * len(outstanding))
            observed = [
                ack(sent_seq, min(now, sent_at + 12_000.0 / link_rate))
                for sent_seq, sent_at in outstanding[:take]
            ]
            del outstanding[:take]
            for each in (oracle, belief, held):
                each.update(now, observed)
            assert held.state is not None
            assert_same_observables(oracle, belief)
            assert_same_observables(oracle, held)
            assert_decisions_equivalent(planner.decide(held, now), planner.decide(belief, now))


class TestArrayKernelWithoutHandOff(
    TestSimpleConvergence,
    TestForkingAndCompaction,
    TestDegenerateUpdates,
    TestLossCharging,
    TestMaterializedHypotheses,
):
    """The fork-free cases above, once more with the hand-off patched out.

    With the rule in place a small fork-free belief is the oracle compared
    with itself a few updates in; this run keeps the array form's one-row
    steps (fork, score, select) under the shared compact, prune and
    degenerate keep held against the oracle.
    """

    @pytest.fixture(autouse=True)
    def array_kernel_only(self, monkeypatch):
        monkeypatch.setattr(
            VectorizedBeliefState, "_hand_off_settled_row", ArrayKernelOnly._hand_off_settled_row
        )


class TestVectorizedSenderIntegration:
    def test_isender_runs_on_vectorized_backend(self):
        from repro.api import SenderConfig
        from repro.experiments.ablation import run_ablation_point

        scalar_outcome = run_ablation_point(
            "scalar", SenderConfig(belief_backend="scalar"), duration=20.0
        )
        vector_outcome = run_ablation_point(
            "vectorized", SenderConfig(belief_backend="vectorized"), duration=20.0
        )
        # The sender makes the same decisions on both inference backends.
        assert vector_outcome.packets_sent == scalar_outcome.packets_sent
        assert vector_outcome.final_hypotheses == scalar_outcome.final_hypotheses
        assert vector_outcome.degenerate_updates == scalar_outcome.degenerate_updates
        assert vector_outcome.posterior_true_link_rate == pytest.approx(
            scalar_outcome.posterior_true_link_rate, abs=1e-9
        )
        assert vector_outcome.goodput_bps == pytest.approx(scalar_outcome.goodput_bps)
