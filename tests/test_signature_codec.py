"""Property and fuzz tests for the signature and decision wire codecs.

:func:`~repro.api.policy.signature_from_json` sits in front of every
served decision and every loaded table, so it carries two contracts: what
a belief emits comes back *equal and hash-equal* through JSON (a table
lookup is a dict lookup), and whatever else arrives is refused with
``ValueError``/``TypeError`` before it can reach a table or a planner.
:func:`~repro.api.policy.decision_from_payload` is the other half of a
table entry and carries the same two: a planner's decision comes back
equal, and a value no planner produces (``NaN``, ``Infinity``, ``true``,
``"0.5"``) gets the file that holds it quarantined, not served.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.api.config import SenderConfig
from repro.api.policy import (
    PolicyTable,
    decision_from_payload,
    decision_to_payload,
    load_or_precompute_policy_table,
    policy_table_cache_path,
    precompute_policy_table,
    signature_from_json,
)
from repro.core.actions import Action
from repro.core.planner import Decision
from repro.inference import (
    AckObservation,
    BeliefState,
    GaussianKernel,
    figure3_prior,
    single_link_prior,
)
from repro.inference import parameters
from repro.inference.parameters import assignment_digest
from repro.runner.scenarios import many_flow_sender_prior
from repro.serving import DecisionService, PolicyTableRegistry, content_digest

PACKET_BITS = 12_000.0

rows = st.tuples(
    st.text(alphabet="0123456789abcdef", min_size=16, max_size=16),
    st.floats(min_value=0.0, max_value=1.0),
    st.booleans(),
    st.integers(min_value=0, max_value=1_000),
    st.booleans(),
)
signatures = st.lists(rows, min_size=1, max_size=5).map(tuple)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=5)
    | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=25,
)


def through_json(value):
    return json.loads(json.dumps(value))


def assert_round_trips(signature: tuple) -> None:
    decoded = signature_from_json(through_json(signature))
    assert decoded == signature
    assert hash(decoded) == hash(signature)
    assert signature_from_json(signature) == signature  # tuple form: a no-op


class TestSignatureRoundTrip:
    @settings(deadline=None)
    @given(signatures)
    def test_generated_signatures_round_trip_equal_and_hash_equal(self, signature):
        assert_round_trips(signature)

    @settings(max_examples=15, deadline=None)
    @given(
        backend=st.sampled_from(["scalar", "vectorized"]),
        points=st.tuples(*[st.integers(1, 2)] * 5),
        sends=st.lists(st.floats(min_value=0.05, max_value=1.5), max_size=4),
        acked=st.lists(st.booleans(), min_size=4, max_size=4),
        top_k=st.integers(1, 8),
        resolution=st.sampled_from([1_500.0, 3_000.0, 12_000.0]),
    )
    def test_belief_signatures_round_trip_from_both_backends(
        self, backend, points, sends, acked, top_k, resolution
    ):
        link, cross, loss, buffer, fill = points
        belief = BeliefState.from_prior(
            figure3_prior(
                link_rate_points=link, cross_fraction_points=cross,
                loss_points=loss, buffer_points=buffer, fill_points=fill,
            ),
            backend=backend,
            kernel=GaussianKernel(sigma=0.5),
            max_hypotheses=24,
        )
        assert_round_trips(belief.decision_signature(top_k, resolution))
        now = 0.0
        for seq, gap in enumerate(sends):
            belief.record_send(seq, PACKET_BITS, now)
            now += gap
            acks = (
                [AckObservation(seq=seq, received_at=now, ack_at=now)]
                if acked[seq]
                else []
            )
            belief.update(now, acks)
            assert_round_trips(belief.decision_signature(top_k, resolution))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(signatures, min_size=1, max_size=6, unique=True))
    def test_table_payload_round_trip_serves_every_signature(self, keys):
        table = PolicyTable(top_k=5, fingerprint="cafecafecafecafe", learn=False)
        for index, key in enumerate(keys):
            table._cache[key] = Decision(
                action=Action(0.1 * index),
                expected_utilities={0.0: 1.0 * index, 0.1 * index: 2.0},
                hypotheses_evaluated=index,
                horizon=20.0,
            )
        payload = table.to_payload()
        for restored in (
            PolicyTable.from_payload(payload),
            PolicyTable.from_payload(through_json(payload)),
        ):
            assert restored.signatures() == table.signatures()
            for key in keys:
                assert restored.decision_for(key) == table.decision_for(key)
            # Idempotent: a second trip writes the same bytes.
            assert json.dumps(restored.to_payload(), sort_keys=True) == json.dumps(
                payload, sort_keys=True
            )


class TestSignatureFuzz:
    @settings(deadline=None)
    @given(json_values)
    def test_arbitrary_json_decodes_to_a_hashable_tuple_or_is_refused(self, value):
        try:
            decoded = signature_from_json(value)
        except (TypeError, ValueError):
            return
        assert isinstance(decoded, tuple)
        hash(decoded)

    @settings(deadline=None)
    @given(signatures, st.data())
    def test_one_damaged_node_is_refused_or_still_a_signature(self, signature, data):
        """Swap one node of a valid wire signature for arbitrary JSON."""
        wire = through_json(signature)
        row = data.draw(st.integers(0, len(wire) - 1))
        column = data.draw(st.integers(0, 4))
        wire[row][column] = data.draw(json_values)
        try:
            decoded = signature_from_json(wire)
        except (TypeError, ValueError):
            return
        hash(decoded)
        digest, weight, gate_on, backlog_rounds, busy = decoded[row]
        assert type(digest) is str and type(backlog_rounds) is int
        assert type(weight) in (int, float) and math.isfinite(weight)
        assert type(gate_on) is bool and type(busy) is bool

    @pytest.mark.parametrize("depth", [10, 100_000])
    def test_nesting_depth_never_becomes_recursion(self, depth):
        value: list = []
        for _ in range(depth):
            value = [value]
        with pytest.raises((TypeError, ValueError)):
            signature_from_json(value)
        with pytest.raises((TypeError, ValueError)):
            signature_from_json([[value, 0.5, True, 0, False]])
        with pytest.raises((TypeError, ValueError)):
            signature_from_json([["0123456789abcdef", value, True, 0, False]])

    @pytest.mark.parametrize(
        "weight, backlog_rounds",
        [
            ("NaN", "0"),
            ("Infinity", "0"),
            ("-Infinity", "0"),
            ("1" + "0" * 400, "0"),
            ("0.5", "1" + "0" * 400),
        ],
        ids=["nan", "inf", "-inf", "int-weight-no-float-holds", "backlog-no-float-holds"],
    )
    def test_a_number_no_belief_produces_is_refused(self, weight, backlog_rounds):
        wire = f'[["0123456789abcdef", {weight}, true, {backlog_rounds}, false]]'
        with pytest.raises(ValueError):
            signature_from_json(json.loads(wire))

    def test_a_row_carrying_parameter_pairs_is_refused(self):
        (assignment, _), *_ = figure3_prior().combinations()
        with pytest.raises(TypeError, match="digest"):
            signature_from_json([[sorted(assignment.items()), 0.5, True, 0, False]])


# ------------------------------------------------------------- the small key


def serve_table_config() -> SenderConfig:
    """The Figure-3 config the serving benchmark publishes a table for."""
    return SenderConfig(
        prior=figure3_prior(
            link_rate_points=4,
            cross_fraction_points=4,
            loss_points=3,
            buffer_points=4,
            fill_points=1,
        ),
        belief_backend="fused",
        rollout_backend="fused",
        policy="table",
    )


HEX = set("0123456789abcdef")


class TestRowsNameAssignmentsByDigest:
    """A signature row names its parameter assignment by a 16-hex digest."""

    @pytest.mark.parametrize(
        "prior",
        [
            figure3_prior(),
            many_flow_sender_prior(1_000_000.0 / 128, 96_000.0),
            many_flow_sender_prior(250_000.0, 1_500_000.0, 1_500.0),
        ],
        ids=["figure3", "many-flow", "many-flow-wide"],
    )
    def test_every_prior_point_has_its_own_digest(self, prior):
        digests = [assignment_digest(assignment) for assignment, _ in prior.combinations()]
        assert len(set(digests)) == len(digests) == prior.size
        assert all(len(digest) == 16 and set(digest) <= HEX for digest in digests)
        assert set(prior.points_by_digest()) == set(digests)

    def test_a_digest_does_not_depend_on_dict_order(self):
        for assignment, _ in figure3_prior().combinations():
            reordered = dict(reversed(list(assignment.items())))
            assert list(reordered) != list(assignment)
            assert assignment_digest(reordered) == assignment_digest(assignment)

    def test_a_digest_follows_value_equality(self):
        """Equal exactly when the sorted parameter pairs compare equal, and
        the same whichever spelling the memo met first."""
        for spellings in ((1, 1.0, True), (0.0, -0.0, 0)):
            digests = set()
            for value in spellings:
                parameters._items_digest.cache_clear()
                digests.add(assignment_digest({"rate": value}))
            assert len(digests) == 1, spellings
        assert assignment_digest({"rate": 1.0}) != assignment_digest({"rate": 1.0 + 2**-52})
        assert assignment_digest({"rate": 1.0}) != assignment_digest({"speed": 1.0})

    def test_a_figure3_table_request_fits_in_1_kib(self):
        """The property the digest row exists for: a served Figure-3 decision
        used to ship about 5 KB of parameter pairs per request."""
        config = serve_table_config()
        table = precompute_policy_table(config, sweep_backend="fused")
        assert table.size > 0
        for signature in table.signatures():
            body = json.dumps(
                {"fingerprint": config.fingerprint(), "signature": signature, "now": 30.0}
            )
            assert len(body.encode("utf-8")) <= 1_024, body


# ------------------------------------------------------------ decision codec

finite = st.floats(allow_nan=False, allow_infinity=False)
decisions = st.builds(
    Decision,
    action=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(Action),
    expected_utilities=st.dictionaries(finite, finite, max_size=9),
    hypotheses_evaluated=st.integers(min_value=0, max_value=10_000),
    horizon=finite,
)


def small_config(backend: str = "vectorized", **overrides) -> SenderConfig:
    return SenderConfig(
        prior=single_link_prior(link_rate_points=2, fill_points=1),
        top_k=4,
        max_hypotheses=32,
        belief_backend=backend,
        rollout_backend=backend,
        **overrides,
    )


def planned_decision(backend: str) -> Decision:
    """What ``backend``'s planner really decides on its prior belief."""
    config = small_config(backend)
    return config.build_planner().decide(config.build_belief(), 0.0)


PLANNED = [planned_decision(backend) for backend in ("scalar", "vectorized")]

VALID = {
    "delay": 0.5,
    "horizon": 1.0,
    "hypotheses_evaluated": 1,
    "expected_utilities": [[0.0, 1.0], [0.5, 2.0]],
}


class TestDecisionCodec:
    @settings(deadline=None)
    @given(decisions)
    @example(PLANNED[0])
    @example(PLANNED[1])
    def test_finite_decisions_round_trip_equal(self, decision):
        assert decision_from_payload(through_json(decision_to_payload(decision))) == decision

    def test_the_planned_examples_are_real(self):
        for decision in PLANNED:
            assert decision.hypotheses_evaluated > 0 and decision.expected_utilities

    @pytest.mark.parametrize(
        "field, token",
        [
            ("delay", "NaN"),
            ("delay", "Infinity"),
            ("delay", "true"),
            ("delay", '"0.5"'),
            ("delay", "-0.5"),
            pytest.param("delay", "1" + "0" * 400, id="delay-int-no-float-holds"),
            ("horizon", "NaN"),
            ("horizon", "-Infinity"),
            ("horizon", "null"),
            ("hypotheses_evaluated", "1.0"),
            ("hypotheses_evaluated", "true"),
            ("hypotheses_evaluated", "-1"),
            ("expected_utilities", '"ab"'),
            ("expected_utilities", '{"0.0": 1.0}'),
            ("expected_utilities", "[[0.0]]"),
            ("expected_utilities", "[[0.0, NaN]]"),
            ("expected_utilities", "[[true, 1.0]]"),
            ("expected_utilities", '[["0.0", 1.0]]'),
        ],
    )
    def test_a_value_no_planner_produces_is_refused(self, field, token):
        healthy = json.dumps(VALID)
        wire = healthy.replace(f'"{field}": {json.dumps(VALID[field])}', f'"{field}": {token}')
        assert wire != healthy
        with pytest.raises((TypeError, ValueError)):
            decision_from_payload(json.loads(wire))
        assert decision_from_payload(json.loads(healthy)).delay == 0.5

    @pytest.mark.parametrize("field", sorted(VALID))
    def test_a_missing_field_is_refused(self, field):
        with pytest.raises(KeyError):
            decision_from_payload({key: value for key, value in VALID.items() if key != field})

    @settings(deadline=None)
    @given(json_values)
    def test_arbitrary_json_decodes_to_a_servable_decision_or_is_refused(self, value):
        try:
            decision = decision_from_payload(value)
        except (TypeError, ValueError, KeyError):
            return
        json.dumps(decision_to_payload(decision), allow_nan=False)
        assert decision.delay >= 0


def poison_one_delay(text: str) -> str:
    """``text`` (a one-entry table file) with its entry's delay made ``NaN``."""
    payload = json.loads(text)
    (entry,) = payload["entries"]
    poisoned = text.replace(f'"delay": {json.dumps(entry["delay"])}', '"delay": NaN', 1)
    assert poisoned != text
    return poisoned


class TestPoisonedTableFiles:
    """A table file whose entry says ``"delay": NaN`` used to load and be served."""

    def one_entry_table(self, config: SenderConfig) -> PolicyTable:
        table = PolicyTable(
            top_k=config.top_k, fingerprint=config.fingerprint(), learn=False
        )
        belief = config.build_belief()
        signature = belief.decision_signature(config.top_k, config.policy_resolution_bits)
        table._cache[signature] = config.build_planner().decide(belief, 0.0)
        return table

    def test_registry_version_is_quarantined_and_the_planner_answers(self, tmp_path):
        config = small_config(policy="table")
        table = self.one_entry_table(config)
        (signature,) = table.signatures()
        registry = PolicyTableRegistry(tmp_path)
        healthy = registry.publish(table)
        text = poison_one_delay(healthy.read_text(encoding="utf-8"))
        # Content-addressed like any version, so only the entry is wrong.
        poisoned = healthy.with_name(content_digest(text.encode("utf-8")) + ".json")
        poisoned.write_text(text, encoding="utf-8")
        healthy.with_name("CURRENT").write_text(poisoned.stem + "\n", encoding="utf-8")

        service = DecisionService(registry, [config])
        served = service.decide(config.fingerprint(), signature)
        assert served.tier == "planner" and served.table_digest is None
        assert served.decision.delay == table.decision_for(signature).delay
        assert registry.corrupt == service.counters_snapshot()["table_corrupt"] == 1
        assert (tmp_path / "quarantine" / poisoned.name).exists() and not poisoned.exists()

    def test_cached_precompute_is_quarantined_and_recomputed(self, tmp_path):
        config = small_config(policy="table")
        sweep = dict(pilot_duration=5.0, burst_levels=(0,))
        path = policy_table_cache_path(tmp_path, config, sweep)
        stored = self.one_entry_table(config).to_payload()
        path.parent.mkdir(parents=True)
        path.write_text(poison_one_delay(json.dumps(stored, sort_keys=True)), encoding="utf-8")

        rebuilt = load_or_precompute_policy_table(config, cache_dir=tmp_path, **sweep)
        assert rebuilt.loaded_from_cache is False
        assert (tmp_path / "quarantine" / path.name).exists()
        for signature in rebuilt.signatures():
            assert rebuilt.decision_for(signature).delay >= 0
        assert load_or_precompute_policy_table(
            config, cache_dir=tmp_path, **sweep
        ).loaded_from_cache is True
