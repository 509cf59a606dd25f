"""The unified sender-configuration layer: engine names, SenderConfig, build_sender.

Covers how the two engines are named and resolved, ``SenderConfig``
construction and fingerprinting, and ``build_sender`` as the one
construction path.
"""

from __future__ import annotations

import dataclasses
import math
import pickle

import pytest

from repro.api import SenderConfig, UnknownBackendError, build_sender
from repro.api.config import canonical_digest
from repro.core.planner import ExpectedUtilityPlanner
from repro.core.policy import PolicyCache
from repro.core.utility import AlphaWeightedUtility
from repro.errors import ConfigurationError, InferenceError
from repro.inference import single_link_prior
from repro.inference.belief import BACKENDS, BeliefState
from repro.inference.hypothesis import select_hypotheses, value_hypotheses
from repro.topology import single_link_network


def planner_engine(name: str) -> tuple:
    """The ``(select, value)`` pair a planner built with ``rollout_backend=name`` calls."""
    planner = ExpectedUtilityPlanner(AlphaWeightedUtility(), rollout_backend=name)
    return planner._select, planner._value


def rollout_engine(name: str):
    """The lane-valuing function of that engine (one function per engine)."""
    return planner_engine(name)[1]


class TestBackendRegistry:
    def test_builtin_backends_are_known(self):
        assert BACKENDS == ("fused", "scalar", "vectorized")
        for name in BACKENDS:
            SenderConfig(belief_backend=name, rollout_backend=name)

    def test_resolve_returns_registered_engines(self):
        from repro.inference.vectorized import VectorizedBeliefState
        from repro.inference.vectorized.rollout import select_rows, value_rows

        assert BeliefState.for_backend("scalar") is BeliefState
        assert BeliefState.for_backend("vectorized") is VectorizedBeliefState
        # ``None`` keeps the class it was asked on; a name always wins.
        assert VectorizedBeliefState.for_backend(None) is VectorizedBeliefState
        assert VectorizedBeliefState.for_backend("scalar") is BeliefState
        assert planner_engine("scalar") == (select_hypotheses, value_hypotheses)
        assert planner_engine("vectorized") == (select_rows, value_rows)

    def test_both_spellings_name_one_engine_but_keep_their_identity(self):
        # One array engine, two accepted spellings: the same class and the
        # same rollout functions, never a wrapper per name...
        assert BeliefState.for_backend("fused") is BeliefState.for_backend("vectorized")
        assert BeliefState.for_backend("fused") is not BeliefState
        assert rollout_engine("fused") is rollout_engine("vectorized")
        assert rollout_engine("fused") is not rollout_engine("scalar")
        # ...while the spelling stays part of a config's identity.  Pinned
        # from the commit before the engines were folded together: derived
        # seeds, result-cache keys and published tables embed these.
        assert SenderConfig().fingerprint() == "49962ce504275d04"
        assert (
            SenderConfig(prior=single_link_prior(), alpha=2.0).fingerprint()
            == "f4c99e512bc2e0a6"
        )
        for spelling, pinned in (
            ("vectorized", "f019f533cbc0616d"),
            ("fused", "27cbafe9e19ae2f2"),
        ):
            config = SenderConfig(belief_backend=spelling, rollout_backend=spelling)
            assert config.fingerprint() == pinned

    def test_names_the_end_to_end_benchmark_pins(self, monkeypatch):
        # benchmarks/e2e (which no PR may edit) wraps the ``update`` the
        # array belief class itself defines, and configures "fused".
        from repro.inference.hypothesis import Hypothesis
        from repro.inference.vectorized.belief import VectorizedBeliefState

        assert "update" in vars(VectorizedBeliefState)
        SenderConfig(belief_backend="fused", rollout_backend="fused")
        # It wraps ``BeliefState.update`` as well, counting one span per
        # call on the premise that the array class never calls up into it:
        # a settled array belief runs the reference kernel without doing so.
        belief = VectorizedBeliefState(
            [Hypothesis.from_params({"link_rate_bps": 12_000.0, "buffer_capacity_bits": 96_000.0})]
        )
        belief.update(1.0)
        assert belief.state is None
        entered = []
        reference_update = BeliefState.update
        monkeypatch.setattr(
            BeliefState,
            "update",
            lambda self, *args: entered.append(self) or reference_update(self, *args),
        )
        belief.update(2.0)
        assert belief.updates_applied == 2 and entered == []

    def test_unknown_name_lists_registered_backends(self):
        with pytest.raises(UnknownBackendError, match="fused, scalar, vectorized"):
            BeliefState.for_backend("quantum")
        with pytest.raises(UnknownBackendError, match="belief backend 'vectorised'"):
            BeliefState.for_backend("vectorised")
        with pytest.raises(UnknownBackendError, match="rollout backend 'warp'"):
            rollout_engine("warp")
        with pytest.raises(UnknownBackendError, match="fused, scalar, vectorized"):
            rollout_engine("quantum")

    def test_unknown_backend_error_satisfies_old_hierarchies(self):
        # A planner raises ConfigurationError for its other arguments and a
        # belief InferenceError; the backend error derives from both.
        assert issubclass(UnknownBackendError, ConfigurationError)
        assert issubclass(UnknownBackendError, InferenceError)


class TestSenderConfigValidation:
    def test_unknown_belief_backend_fails_at_config_time(self):
        with pytest.raises(UnknownBackendError, match="belief backend 'vectorised'"):
            SenderConfig(belief_backend="vectorised")

    def test_unknown_rollout_backend_fails_at_config_time(self):
        with pytest.raises(UnknownBackendError, match="rollout backend 'quantum'"):
            SenderConfig(rollout_backend="quantum")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kernel": "triangular"},
            {"policy": "oracle"},
            {"kernel_scale": 0.0},
            {"max_hypotheses": 0},
            {"top_k": 0},
            {"packet_bits": -1.0},
            {"policy_resolution_bits": 0.0},
            {"alpha": -1.0},
            {"discount_timescale": 0.0},
            {"latency_penalty": -0.5},
            {"horizon": 0.0},
            {"horizon_service_multiples": -1.0},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SenderConfig(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field",
        [
            "alpha",
            "discount_timescale",
            "latency_penalty",
            "kernel_scale",
            "max_hypotheses",
            "top_k",
            "packet_bits",
            "horizon",
            "horizon_service_multiples",
            "policy_resolution_bits",
        ],
    )
    def test_non_finite_numbers_rejected(self, field, value):
        # NaN compares false with everything, so a "reject if <= 0" check
        # let it through; +inf passed every lower bound.
        with pytest.raises(ConfigurationError, match=field):
            SenderConfig(**{field: value})

    @pytest.mark.parametrize("value", [2.5, 8.0, True, "8"])
    @pytest.mark.parametrize("field", ["max_hypotheses", "top_k"])
    def test_non_integer_counts_rejected(self, field, value):
        # Each count is a slice bound or a range length: 2.5 would build and
        # fingerprint, then end the run with a TypeError at the first update
        # (max_hypotheses) or decision (top_k); True would pass as 1.
        with pytest.raises(ConfigurationError, match=f"{field} must be an integer"):
            SenderConfig(**{field: value})

    def test_non_integer_count_is_cli_exit_2(self, capsys):
        from repro.runner.cli import main as cli_main

        argv = ["run", "inference_ablation_point",
                "--set", "max_hypotheses=2.5", "--set", "duration=5"]
        assert cli_main(argv) == 2
        assert "max_hypotheses must be an integer, got 2.5" in capsys.readouterr().err

    def test_boundary_values_and_no_horizon_accepted(self):
        SenderConfig(alpha=0.0, latency_penalty=0.0, max_hypotheses=1, top_k=1, horizon=None)

    def test_build_belief_without_prior_rejected(self):
        with pytest.raises(ConfigurationError, match="no prior"):
            SenderConfig().build_belief()

    def test_build_belief_uses_config_backend(self):
        config = SenderConfig(prior=single_link_prior(), belief_backend="vectorized")
        assert config.build_belief().backend == "vectorized"

    def test_build_planner_reflects_config(self):
        config = SenderConfig(top_k=7, rollout_backend="vectorized", horizon=3.0)
        planner = config.build_planner()
        assert planner.top_k == 7
        assert planner.rollout_backend == "vectorized"
        assert planner.horizon == 3.0


class TestFingerprint:
    def test_stable_across_equal_configs(self):
        left = SenderConfig(prior=single_link_prior(), alpha=2.0)
        right = SenderConfig(prior=single_link_prior(), alpha=2.0)
        assert left.fingerprint() == right.fingerprint()

    def test_sensitive_to_fields_and_prior(self):
        base = SenderConfig(prior=single_link_prior())
        assert base.fingerprint() != SenderConfig(
            prior=single_link_prior(), alpha=2.0
        ).fingerprint()
        assert base.fingerprint() != SenderConfig(
            prior=single_link_prior(link_rate_points=3)
        ).fingerprint()
        assert base.fingerprint() != SenderConfig().fingerprint()

    def test_is_short_hex(self):
        fingerprint = SenderConfig().fingerprint()
        assert len(fingerprint) == 16
        int(fingerprint, 16)

    def test_pinned_values_are_unchanged_by_the_memo(self):
        # Computed before the digest was stored on the instance: persisted
        # cache keys, table filenames and registry addresses embed these.
        assert SenderConfig().fingerprint() == "49962ce504275d04"
        assert (
            SenderConfig(prior=single_link_prior(), alpha=2.0).fingerprint()
            == "f4c99e512bc2e0a6"
        )

    def test_computed_once_and_equal_to_the_describe_digest(self, monkeypatch):
        config = SenderConfig(prior=single_link_prior(), alpha=2.0)
        calls = []
        original = SenderConfig.describe
        monkeypatch.setattr(
            SenderConfig,
            "describe",
            lambda self: calls.append(1) or original(self),
        )
        first = config.fingerprint()
        assert [config.fingerprint() for _ in range(5)] == [first] * 5
        assert len(calls) == 1
        assert first == canonical_digest(config.describe())

    def test_derived_configs_get_their_own_digest(self):
        config = SenderConfig(prior=single_link_prior(), alpha=2.0)
        fingerprint = config.fingerprint()  # memo set before deriving
        changed = dataclasses.replace(config, alpha=3.0)
        assert changed.fingerprint() == SenderConfig(
            prior=single_link_prior(), alpha=3.0
        ).fingerprint()
        assert changed.fingerprint() != fingerprint
        other = config.with_prior(single_link_prior(link_rate_points=3))
        assert other.fingerprint() != fingerprint
        assert other.fingerprint() == canonical_digest(other.describe())
        assert config.with_prior(config.prior) is config
        assert config.with_prior(None) is config
        assert config.fingerprint() == fingerprint

    def test_pickle_round_trip_preserves_the_digest(self):
        # The process-pool runners ship configs to workers.
        for fingerprinted_first in (False, True):
            config = SenderConfig(prior=single_link_prior(), alpha=2.0)
            if fingerprinted_first:
                config.fingerprint()
            clone = pickle.loads(pickle.dumps(config))
            assert clone == config
            assert clone.fingerprint() == config.fingerprint() == "f4c99e512bc2e0a6"

    def test_equality_hash_and_description_ignore_the_stored_digest(self):
        prior = single_link_prior()
        fresh = SenderConfig(prior=prior, alpha=2.0)
        used = SenderConfig(prior=prior, alpha=2.0)
        description, text = used.describe(), repr(used)
        used.fingerprint()
        assert used == fresh
        # (A config holding a prior is unhashable: ``Prior.fixed`` is a dict.)
        bare = SenderConfig(alpha=2.0)
        bare.fingerprint()
        assert hash(bare) == hash(SenderConfig(alpha=2.0))
        assert used.describe() == description == fresh.describe()
        assert repr(used) == text
        assert "_fingerprint" not in {f.name for f in dataclasses.fields(used)}


class TestBuildSender:
    def make_network(self):
        return single_link_network(link_rate_bps=12_000.0, buffer_capacity_bits=96_000.0)

    def test_wires_sender_into_preset_network(self):
        network = self.make_network()
        config = SenderConfig(prior=single_link_prior(), alpha=0.0, top_k=8)
        sender = build_sender(config, network)
        network.network.run(until=8.0)
        assert sender.packets_sent > 0
        assert sender.packets_acked > 0
        assert sender.policy is None

    def test_policy_cache_mode_installs_cache(self):
        network = self.make_network()
        config = SenderConfig(
            prior=single_link_prior(), alpha=0.0, top_k=8, policy="cache"
        )
        sender = build_sender(config, network)
        assert isinstance(sender.policy, PolicyCache)
        assert sender.policy.queue_resolution_bits == config.policy_resolution_bits
        network.network.run(until=8.0)
        assert sender.policy.hits + sender.policy.misses > 0

    def test_rejects_non_network_handles(self):
        with pytest.raises(ConfigurationError, match="preset-network handle"):
            build_sender(SenderConfig(prior=single_link_prior()), object())

    def test_prior_override_beats_config_prior(self):
        network = self.make_network()
        override = single_link_prior(link_rate_points=2, fill_points=1)
        config = SenderConfig(prior=single_link_prior(), alpha=0.0)
        sender = build_sender(config, network, prior=override)
        assert len(sender.belief) == override.size
