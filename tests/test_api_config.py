"""The unified sender-configuration layer: registry, SenderConfig, build_sender.

Covers the backend registry's eager validation, ``SenderConfig``
construction and fingerprinting, and ``build_sender`` as the one
construction path.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.api import (
    BELIEF_BACKENDS,
    ROLLOUT_BACKENDS,
    BackendRegistry,
    SenderConfig,
    UnknownBackendError,
    build_sender,
)
from repro.api.config import canonical_digest
from repro.core.policy import PolicyCache
from repro.errors import ConfigurationError, InferenceError
from repro.inference import single_link_prior
from repro.topology import single_link_network


class TestBackendRegistry:
    def test_builtin_backends_are_known(self):
        assert BELIEF_BACKENDS.names() == ["fused", "scalar", "vectorized"]
        assert ROLLOUT_BACKENDS.names() == ["fused", "scalar", "vectorized"]
        assert "vectorized" in BELIEF_BACKENDS
        assert "fused" in BELIEF_BACKENDS
        assert "quantum" not in ROLLOUT_BACKENDS

    def test_resolve_returns_registered_engines(self):
        from repro.inference.belief import BeliefState
        from repro.inference.vectorized import VectorizedBeliefState

        assert BELIEF_BACKENDS.resolve("scalar") is BeliefState
        assert BELIEF_BACKENDS.resolve("vectorized") is VectorizedBeliefState
        assert callable(ROLLOUT_BACKENDS.resolve("scalar"))
        assert callable(ROLLOUT_BACKENDS.resolve("vectorized"))

    def test_both_spellings_name_one_engine_but_keep_their_identity(self):
        # One array engine, two accepted spellings: the same class and the
        # same decide callable, never a wrapper per name...
        assert BELIEF_BACKENDS.resolve("fused") is BELIEF_BACKENDS.resolve("vectorized")
        assert ROLLOUT_BACKENDS.resolve("fused") is ROLLOUT_BACKENDS.resolve("vectorized")
        assert ROLLOUT_BACKENDS.resolve("fused") is not ROLLOUT_BACKENDS.resolve("scalar")
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
        from repro.inference.belief import BeliefState
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
            BELIEF_BACKENDS.resolve("quantum")
        with pytest.raises(UnknownBackendError, match="rollout backend 'warp'"):
            ROLLOUT_BACKENDS.validate("warp")

    def test_unknown_backend_error_satisfies_old_hierarchies(self):
        # The old entry points raised ConfigurationError (planner) and
        # InferenceError (belief); the registry error derives from both.
        assert issubclass(UnknownBackendError, ConfigurationError)
        assert issubclass(UnknownBackendError, InferenceError)

    def test_conflicting_registration_rejected(self):
        registry = BackendRegistry("test")
        registry.register("engine", object())
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register("engine", object())

    def test_reregistering_same_object_is_idempotent(self):
        registry = BackendRegistry("test")
        engine = object()
        registry.register("engine", engine)
        registry.register("engine", engine)
        assert registry.resolve("engine") is engine

    def test_register_as_decorator(self):
        registry = BackendRegistry("test")

        @registry.register("fn")
        def engine():
            return 42

        assert registry.resolve("fn") is engine


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
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SenderConfig(**kwargs)

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
