"""Differential fuzz: random event sequences through scalar oracle ↔ array engine.

``tests/test_inference_vectorized.py`` pins scalar↔array equivalence on
handcrafted regimes (the array engine is exercised under its
``"vectorized"`` spelling; ``"fused"`` resolves to the identical objects,
which ``tests/test_api_config.py`` pins); this suite hammers the same contract with seeded
*random* send/acknowledgement sequences — ≥50 per backend pair, generated
by :func:`repro.diagnostics.seeded_events` (stdlib :mod:`random`) so every
failure reproduces from its seed alone, here and in the triage report:

* **belief pair** — each sequence replays through a scalar and a
  vectorized :class:`~repro.inference.belief.BeliefState`; posteriors,
  latent-state signatures, and bookkeeping counters must agree at the
  documented 1e-9 tolerance;
* **rollout pair** — from each sequence's final posterior, a scalar-rollout
  and a vectorized-rollout :class:`~repro.core.planner.ExpectedUtilityPlanner`
  must choose the same action with expected utilities within 1e-9
  relative (the float tolerance ``np.exp`` introduces), on *either*
  belief backend.

A third class replays the seeds over a gate-free prior under a sharp
kernel — ensembles that shrink to one row — with the array belief's
hand-off in place and patched out, so the array kernel stays policed at one
row.

The sequence generator produces the awkward cases the handcrafted suite
under-samples: interleaved sends, reordered and simultaneous acks, long
silent gaps that charge packets to loss, and bursts that overflow small
ensemble caps.
"""

from __future__ import annotations

import pytest

from repro.core.planner import ExpectedUtilityPlanner
from repro.core.utility import AlphaWeightedUtility
from repro.diagnostics import backend_config, diagnose_divergence, seeded_events
from repro.inference import (
    BeliefState,
    GaussianKernel,
    figure3_prior,
    single_link_prior,
)
from repro.inference.vectorized import VectorizedBeliefState

#: Seeded sequences per backend pair (the issue floor is 50).
SEQUENCE_COUNT = 55

#: Shared equivalence tolerance, matching the documented backend contract.
TOLERANCE = 1e-9

PACKET_BITS = 12_000.0

#: One-shot guard: the first equivalence failure prints a stage-bisection
#: triage report; later failures in the same session stay quiet.
_TRIAGE_PRINTED = False


def _triage_on_failure(seed: int) -> None:
    """Print a diagnostics report naming the first diverging kernel stage.

    Runs at most once per session, on the first equivalence failure, so a
    red differential run localizes itself without a manual repro: the
    report bisects the same seeded script to the stage (fork / advance /
    score / compact / prune, or a rollout-frontier stage) where the
    backends first disagree and ranks the candidate causes.
    """
    global _TRIAGE_PRINTED
    if _TRIAGE_PRINTED:
        return
    _TRIAGE_PRINTED = True
    report = diagnose_divergence(
        backend_config("scalar", "scalar"),
        backend_config("vectorized", "vectorized"),
        seed=seed,
    )
    print(f"\n[repro.diagnostics] differential failure at seed {seed}:")
    print(report.render())


def _prior():
    """A small but fully featured prior: forking, loss, buffer uncertainty
    (the one ``repro.diagnostics`` replays, so a red run's triage report
    bisects exactly what failed here)."""
    return backend_config().prior


def random_sequence(seed: int) -> list[tuple[str, tuple]]:
    """The send/update script of ``seeded_events(seed)``.

    Time only moves forward; every ack references a real outstanding send,
    arrives no earlier than the send and no later than the update that
    observes it, and no sequence number is acknowledged twice.  The
    generator's ``decide`` events draw nothing from its RNG, so dropping
    them leaves the belief script unchanged.
    """
    return [event for event in seeded_events(seed, PACKET_BITS) if event[0] != "decide"]


def _fork_free_prior():
    """No gate anywhere: these ensembles only shrink, some to a single row."""
    return single_link_prior(link_rate_points=5, fill_points=3, loss_rate=0.1)


def _replay(seed: int, backend: str, max_hypotheses: int = 48, prior=_prior, sigma=0.5):
    """One belief of the given backend driven through the seeded script."""
    belief = BeliefState.from_prior(
        prior(),
        backend=backend,
        kernel=GaussianKernel(sigma=sigma),
        max_hypotheses=max_hypotheses,
    )
    for kind, args in random_sequence(seed):
        if kind == "send":
            belief.record_send(*args)
        else:
            belief.update(*args)
    return belief


def replay_pair(seed: int, max_hypotheses: int = 48, **kwargs):
    """One scalar and one vectorized belief driven through the same script."""
    events = random_sequence(seed)
    scalar = _replay(seed, "scalar", max_hypotheses, **kwargs)
    vectorized = _replay(seed, "vectorized", max_hypotheses, **kwargs)
    return scalar, vectorized, events


def assert_posteriors_equivalent(scalar, vectorized, seed: int) -> None:
    context = f"seed={seed}"
    assert len(scalar) == len(vectorized), context
    assert scalar.updates_applied == vectorized.updates_applied, context
    assert scalar.degenerate_updates == vectorized.degenerate_updates, context
    assert scalar.compacted_away == vectorized.compacted_away, context
    assert scalar.acked_seqs == vectorized.acked_seqs, context
    for expected, actual in zip(scalar.weights, vectorized.weights):
        assert actual == pytest.approx(expected, abs=TOLERANCE), context
    assert vectorized.effective_sample_size() == pytest.approx(
        scalar.effective_sample_size(), rel=TOLERANCE
    ), context
    assert vectorized.entropy() == pytest.approx(
        scalar.entropy(), abs=TOLERANCE
    ), context
    marginal_s = scalar.posterior_marginal("link_rate_bps")
    marginal_v = vectorized.posterior_marginal("link_rate_bps")
    assert set(marginal_s) == set(marginal_v), context
    for value, mass in marginal_s.items():
        assert marginal_v[value] == pytest.approx(mass, abs=TOLERANCE), context
    for (s_hyp, s_w), (v_hyp, v_w) in zip(
        scalar.top(len(scalar)), vectorized.top(len(vectorized))
    ):
        assert s_hyp.params == v_hyp.params, context
        assert s_hyp.signature() == v_hyp.signature(), context
        assert v_w == pytest.approx(s_w, abs=TOLERANCE), context


def assert_decisions_equivalent(reference, candidate, seed: int) -> None:
    context = f"seed={seed}"
    assert candidate.action.delay == reference.action.delay, context
    assert candidate.hypotheses_evaluated == reference.hypotheses_evaluated, context
    assert candidate.horizon == pytest.approx(reference.horizon, rel=TOLERANCE), context
    assert set(candidate.expected_utilities) == set(
        reference.expected_utilities
    ), context
    for delay, value in reference.expected_utilities.items():
        assert candidate.expected_utilities[delay] == pytest.approx(
            value, rel=TOLERANCE, abs=TOLERANCE
        ), context


def _planner(rollout_backend: str) -> ExpectedUtilityPlanner:
    return ExpectedUtilityPlanner(
        AlphaWeightedUtility(alpha=1.0, discount_timescale=20.0),
        packet_bits=PACKET_BITS,
        top_k=8,
        rollout_backend=rollout_backend,
    )


class TestDifferentialBeliefBackends:
    def test_seeded_random_sequences_stay_equivalent(self):
        degenerate_seen = 0
        compaction_seen = 0
        for seed in range(SEQUENCE_COUNT):
            scalar, vectorized, _ = replay_pair(seed)
            try:
                assert_posteriors_equivalent(scalar, vectorized, seed)
            except AssertionError:
                _triage_on_failure(seed)
                raise
            degenerate_seen += scalar.degenerate_updates
            compaction_seen += scalar.compacted_away
        # The generator must actually exercise the hard paths, not skirt them.
        assert degenerate_seen > 0
        assert compaction_seen > 0

    def test_tiny_cap_prune_pressure_stays_equivalent(self):
        for seed in range(0, SEQUENCE_COUNT, 5):
            scalar, vectorized, _ = replay_pair(seed, max_hypotheses=5)
            assert len(scalar) <= 5
            try:
                assert_posteriors_equivalent(scalar, vectorized, seed)
            except AssertionError:
                _triage_on_failure(seed)
                raise


class TestDifferentialRolloutBackends:
    def test_seeded_random_posteriors_decide_identically(self):
        """Scalar vs vectorized rollout, from every random final posterior.

        The array engine is exercised from both belief backends — it reads
        ensemble rows in place on the array belief and packs the scalar
        belief's top hypotheses through ``EnsembleState.from_hypotheses``
        — and both must reproduce the scalar oracle's decision.
        """
        for seed in range(SEQUENCE_COUNT):
            scalar, vectorized, events = replay_pair(seed)
            now = events[-1][1][0]
            reference = _planner("scalar").decide(scalar, now)
            try:
                assert_decisions_equivalent(
                    reference, _planner("vectorized").decide(vectorized, now), seed
                )
                assert_decisions_equivalent(
                    reference, _planner("vectorized").decide(scalar, now), seed
                )
            except AssertionError:
                _triage_on_failure(seed)
                raise

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason=(
            "Known rollout-engine divergence, pinned (not fixed) because either fix "
            "moves an alpha=0.9 digest in the frozen benchmarks/e2e/expected.json "
            "(sweep_cache pins the scalar engine's, fig3_alpha4 the array engine's). "
            "LinkModel.send_own advances only `if time > self.time`, so on a model "
            "whose clock already equals the send time - a never-advanced model at "
            "t=0, and every belief_from_signature(now=...) reconstruction in the "
            "serving planner tier - a cross arrival due at that same instant is "
            "enqueued *after* the hypothetical packet; the array frontier fires it "
            "*before* ('the hypothetical send strictly last', "
            "inference/vectorized/rollout.py).  First decision of "
            "figure3_alpha[alpha=0.9,seed=0]: 16 of 144 lanes differ (own delivery "
            "at 1.2 s vs 2.4 s), action 0.0 is worth 47452.98 (scalar) vs 47392.11 "
            "(array), so the scalar sends now and the array waits 1.2 s.  Swapping "
            "only the belief backend changes nothing; swapping only the rollout "
            "backend reproduces it; alpha in {1, 2.5, 5} digests agree.  This is "
            "what blocks flipping the default engines (ROADMAP direction 2)."
        ),
    )
    def test_first_decision_at_alpha_0_9_on_the_figure3_prior(self):
        from repro.api.config import SenderConfig

        decisions = {}
        for rollout_backend in ("scalar", "vectorized"):
            config = SenderConfig(
                alpha=0.9,
                prior=figure3_prior(
                    link_rate_points=4, cross_fraction_points=4, loss_points=3,
                    buffer_points=4, fill_points=1,
                ),
                rollout_backend=rollout_backend,
            )
            # A never-advanced belief: every model clock equals the send time.
            decisions[rollout_backend] = config.build_planner().decide(
                config.build_belief(), 0.0
            )
        assert_decisions_equivalent(decisions["scalar"], decisions["vectorized"], seed=0)

    def test_scalar_belief_with_mismatched_clocks_is_rejected(self):
        """A scalar belief reaches the array rollout through
        ``EnsembleState.from_hypotheses``, which insists on one model clock."""
        from repro.errors import InferenceError
        from repro.inference import Hypothesis

        params = {"link_rate_bps": 12_000.0, "buffer_capacity_bits": 96_000.0}
        belief = BeliefState(
            [
                Hypothesis.from_params(params),
                Hypothesis.from_params(params, start_time=2.0),
            ]
        )
        _planner("scalar").decide(belief, 2.0)  # the oracle has no such limit
        with pytest.raises(InferenceError, match="one model clock"):
            _planner("vectorized").decide(belief, 2.0)


class TestDifferentialAtOneRow:
    @pytest.mark.parametrize("hand_off", [True, False], ids=["hand-off", "array-kernel-only"])
    def test_fork_free_sequences_stay_equivalent_down_to_one_row(self, hand_off, monkeypatch):
        """The same seeds over a prior with no gate, under a sharp kernel, so
        that beliefs collapse to a single row mid-script.  The array belief
        hands such a row to the oracle's own kernel, which would leave this
        suite comparing the oracle with itself; the second run patches the
        rule out so the array kernel stays policed at one row."""
        if not hand_off:
            monkeypatch.setattr(
                VectorizedBeliefState, "_hand_off_settled_row", lambda self: None
            )
        update = VectorizedBeliefState.update
        one_row_updates = []

        def counted(self, now, acks=()):
            one_row_updates.append(len(self) == 1)
            return update(self, now, acks)

        monkeypatch.setattr(VectorizedBeliefState, "update", counted)
        settled = 0
        for seed in range(SEQUENCE_COUNT):
            scalar, vectorized, events = replay_pair(seed, prior=_fork_free_prior, sigma=0.05)
            settled += vectorized.state is None
            assert_posteriors_equivalent(scalar, vectorized, seed)
            assert_decisions_equivalent(
                _planner("scalar").decide(scalar, events[-1][1][0]),
                _planner("vectorized").decide(vectorized, events[-1][1][0]),
                seed,
            )
        assert sum(one_row_updates) >= 20
        assert settled >= 10 if hand_off else settled == 0
