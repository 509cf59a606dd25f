"""The §3.3 policy-table subsystem: semantics, serialization, fidelity.

``PolicyTable`` must behave like ``PolicyCache`` on the decide path (hit /
miss / learn / evict), survive a JSON round trip keyed by the config
fingerprint, and — precomputed for the Figure-3 default configuration —
reproduce the live planner's decisions on a held-out run at the table's
signature resolution.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.api import PolicyTable, SenderConfig, build_sender, precompute_policy_table
from repro.core import ExpectedUtilityPlanner, ISender
from repro.core.utility import AlphaWeightedUtility
from repro.errors import ConfigurationError
from repro.inference import BeliefState, GaussianKernel, Hypothesis, figure3_prior
from repro.serving import PolicyTableRegistry, content_digest
from repro.topology.presets import figure2_network


def make_belief() -> BeliefState:
    hypotheses = [
        Hypothesis.from_params(
            {"link_rate_bps": rate, "buffer_capacity_bits": 96_000.0}
        )
        for rate in (10_000.0, 14_000.0)
    ]
    return BeliefState(hypotheses, kernel=GaussianKernel(sigma=0.3))


def make_planner(**kwargs) -> ExpectedUtilityPlanner:
    kwargs.setdefault("top_k", 2)
    return ExpectedUtilityPlanner(AlphaWeightedUtility(alpha=0.0), **kwargs)


class TestPolicyTableSemantics:
    def test_hit_miss_and_learning(self):
        table = PolicyTable(make_planner())
        belief = make_belief()
        first = table.decide(belief, now=0.0)
        second = table.decide(belief, now=0.0)
        assert (table.hits, table.misses) == (1, 1)
        assert second is first
        belief.record_send(0, 12_000, 0.0)
        third = table.decide(belief, now=0.0)
        assert (table.hits, table.misses) == (1, 2)
        assert third is not first

    def test_learn_false_keeps_table_frozen(self):
        table = PolicyTable(make_planner(), learn=False)
        belief = make_belief()
        table.decide(belief, now=0.0)
        table.decide(belief, now=0.0)
        assert table.size == 0
        assert (table.hits, table.misses) == (0, 2)

    def test_seed_fills_without_touching_counters(self):
        table = PolicyTable(make_planner())
        belief = make_belief()
        table.seed(belief, now=0.0)
        assert table.size == 1
        assert (table.hits, table.misses) == (0, 0)
        table.decide(belief, now=0.0)
        assert (table.hits, table.misses) == (1, 0)

    def test_eviction_drops_oldest_entry_first(self):
        table = PolicyTable(make_planner(), max_entries=2)
        beliefs = []
        for sends in range(3):
            belief = make_belief()
            for seq in range(sends):
                belief.record_send(seq, 12_000, 0.0)
            beliefs.append(belief)
            table.decide(belief, now=0.0)
        assert table.size == 2
        table.decide(beliefs[0], now=0.0)  # evicted -> miss
        assert table.misses == 4
        table.decide(beliefs[2], now=0.0)  # newest -> hit
        assert table.hits == 1

    def test_decide_without_planner_rejected_on_miss(self):
        table = PolicyTable(top_k=2)
        with pytest.raises(ConfigurationError, match="no fallback planner"):
            table.decide(make_belief(), now=0.0)

    def test_needs_planner_or_top_k(self):
        with pytest.raises(ConfigurationError, match="planner or an explicit top_k"):
            PolicyTable()

    def test_key_is_backend_invariant(self):
        """Scalar and vectorized beliefs hit the same table entries."""
        prior = figure3_prior(
            link_rate_points=2, cross_fraction_points=2, loss_points=2,
            buffer_points=2, fill_points=1,
        )
        table = PolicyTable(make_planner(top_k=4))
        for backend in ("scalar", "vectorized"):
            belief = BeliefState.from_prior(
                prior, kernel=GaussianKernel(sigma=0.3), backend=backend
            )
            belief.record_send(0, 12_000.0, 0.0)
            belief.update(1.0)
            table.decide(belief, 1.0)
        assert (table.hits, table.misses) == (1, 1)


class TestPolicyTableSerialization:
    def build_table(self) -> tuple[SenderConfig, PolicyTable]:
        config = SenderConfig(
            prior=figure3_prior(
                link_rate_points=2, cross_fraction_points=2, loss_points=2,
                buffer_points=2, fill_points=1,
            ),
            belief_backend="vectorized",
            rollout_backend="vectorized",
            policy="table",
        )
        table = precompute_policy_table(config, pilot_duration=10.0, seed=2)
        return config, table

    def test_json_round_trip_preserves_entries(self, tmp_path):
        config, table = self.build_table()
        path = table.to_json(tmp_path / "policy.json")
        loaded = PolicyTable.from_payload(
            json.loads(path.read_text()), expected_fingerprint=config.fingerprint()
        )
        assert loaded.size == table.size
        assert loaded.top_k == table.top_k
        assert loaded.queue_resolution_bits == table.queue_resolution_bits
        assert set(loaded._cache) == set(table._cache)
        for key, decision in table._cache.items():
            restored = loaded._cache[key]
            assert restored.action == decision.action
            assert restored.horizon == decision.horizon
            assert restored.hypotheses_evaluated == decision.hypotheses_evaluated
            assert restored.expected_utilities == decision.expected_utilities

    def test_round_trip_preserves_max_entries(self, tmp_path):
        """Regression test: the eviction cap must survive serialization.

        ``to_payload`` used to drop ``max_entries``, so a table precomputed
        with a small cap reloaded at the 65,536 default and grew unbounded
        under runtime learning.
        """
        table = PolicyTable(make_planner(), max_entries=7)
        path = table.to_json(tmp_path / "policy.json")
        loaded = PolicyTable.from_payload(json.loads(path.read_text()))
        assert loaded.max_entries == 7

    @pytest.mark.parametrize(
        "field, value",
        [
            ("queue_resolution_bits", math.nan),
            ("queue_resolution_bits", math.inf),
            ("top_k", 0),
            ("top_k", -3),
            ("top_k", 2.7),
            ("top_k", True),
            ("max_entries", 2.5),
            ("max_entries", None),
        ],
    )
    def test_a_bad_header_is_refused_and_a_served_one_quarantined(self, tmp_path, field, value):
        """The header is checked the way the entries are: a NaN resolution,
        a count that is no positive integer, or a missing cap is refused on
        load, and the registry quarantines the file instead of serving it."""
        fingerprint = "cafecafecafecafe"
        registry = PolicyTableRegistry(tmp_path)
        path = registry.publish(PolicyTable(make_planner(), fingerprint=fingerprint))
        payload = json.loads(path.read_text())
        if value is None:
            del payload[field]
        else:
            payload[field] = value
        with pytest.raises((ConfigurationError, KeyError), match=field):
            PolicyTable.from_payload(payload)

        # Re-address the tampered bytes so the digest check passes and the
        # header check is what fires.
        text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
        tampered = path.with_name(content_digest(text.encode()) + ".json")
        tampered.write_text(text)
        (path.parent / "CURRENT").write_text(tampered.stem + "\n")
        assert registry.lookup(fingerprint) is None
        assert registry.corrupt == 1
        assert (tmp_path / "quarantine" / tampered.name).exists()

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        _, table = self.build_table()
        path = table.to_json(tmp_path / "policy.json")
        with pytest.raises(ConfigurationError, match="fingerprint"):
            PolicyTable.from_payload(
                json.loads(path.read_text()), expected_fingerprint="deadbeefdeadbeef"
            )

    def test_loaded_table_serves_live_beliefs(self, tmp_path):
        """A deserialized table hits on signatures its precompute covered."""
        config, table = self.build_table()
        path = table.to_json(tmp_path / "policy.json")
        loaded = PolicyTable.from_payload(
            json.loads(path.read_text()), expected_fingerprint=config.fingerprint()
        )
        network = figure2_network(switch_interval=30.0, seed=7)
        sender = build_sender(config, network, policy_table=loaded)
        assert sender.policy is loaded
        network.network.run(until=10.0)
        assert loaded.hits > 0

    def test_precompute_requires_a_prior(self):
        with pytest.raises(ConfigurationError, match="needs a prior"):
            precompute_policy_table(SenderConfig(policy="table"))

    def test_build_sender_rejects_table_for_different_config(self):
        """A stamped table refuses to serve a config it wasn't computed for."""
        from dataclasses import replace

        config, table = self.build_table()
        other = replace(config, alpha=5.0)
        network = figure2_network(switch_interval=30.0, seed=7)
        with pytest.raises(ConfigurationError, match="fingerprint"):
            build_sender(other, network, policy_table=table)

    def test_fingerprint_covers_explicitly_passed_prior(self):
        """precompute over an explicit prior stamps that prior's identity."""
        prior = figure3_prior(
            link_rate_points=2, cross_fraction_points=2, loss_points=2,
            buffer_points=2, fill_points=1,
        )
        config = SenderConfig(
            belief_backend="vectorized", rollout_backend="vectorized",
            policy="table",
        )
        table = precompute_policy_table(config, prior, pilot_duration=5.0, seed=2)
        assert table.fingerprint == config.with_prior(prior).fingerprint()
        assert table.fingerprint != config.fingerprint()


class TestFigure3HeldOutFidelity:
    """The acceptance criterion: the precomputed table reproduces the live
    planner's decisions on a held-out run at the signature resolution."""

    def test_heldout_decisions_match_live_planner(self, monkeypatch):
        # The Figure-3 default config on the array engine (4*4*3*2*1 = 96
        # configurations), precomputed from a pilot run.
        config = SenderConfig(
            prior=figure3_prior(buffer_points=2, fill_points=1),
            belief_backend="vectorized",
            rollout_backend="vectorized",
            policy="table",
        )
        table = precompute_policy_table(
            config, pilot_duration=60.0, seed=2, switch_interval=30.0
        )
        table_entries = table.size
        # A held-out run (another seed) with learning frozen, so the hits
        # count precomputed coverage only; every hit is shadowed by a live
        # plan on the very same belief.
        table.hits = table.misses = 0
        table.learn = False
        live = config.build_planner()
        pairs = []

        def shadowed(belief, now):
            hits = table.hits
            decision = PolicyTable.decide(table, belief, now)
            if table.hits > hits:
                pairs.append((decision.delay, live.decide(belief, now).delay))
            return decision

        monkeypatch.setattr(table, "decide", shadowed)
        network = figure2_network(switch_interval=30.0, seed=5)
        build_sender(config, network, policy_table=table)
        network.network.run(until=40.0)

        # Signatures round weights to 3 decimals, so two beliefs sharing one
        # can derive delays that differ in the last ulp.
        mismatches = [
            (table_delay, live_delay)
            for table_delay, live_delay in pairs
            if table_delay != pytest.approx(live_delay, rel=1e-9, abs=1e-9)
        ]
        assert table_entries > 20
        assert table.hits > 10, "held-out run barely used the table"
        assert pairs and not mismatches, (
            f"{len(mismatches)} table hits diverged from live "
            f"planning: {mismatches[:5]}"
        )
