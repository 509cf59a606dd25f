"""Property and fuzz tests for the decision-signature wire codec.

:func:`~repro.api.policy.signature_from_json` sits in front of every
served decision and every loaded table, so it carries two contracts: what
a belief emits comes back *equal and hash-equal* through JSON (a table
lookup is a dict lookup), and whatever else arrives is refused with
``ValueError``/``TypeError`` before it can reach a table or a planner.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.policy import PolicyTable, signature_from_json
from repro.core.actions import Action
from repro.core.planner import Decision
from repro.inference import AckObservation, BeliefState, GaussianKernel, figure3_prior

PACKET_BITS = 12_000.0

numbers = st.one_of(
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False),  # NaN is not equal to itself, so never a key
)
rows = st.tuples(
    st.lists(st.tuples(st.text(max_size=12), numbers), max_size=4).map(tuple),
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
            on_degenerate="keep",
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
        params, weight, gate_on, backlog_rounds, busy = decoded[row]
        assert all(type(name) is str and type(number) in (int, float) for name, number in params)
        assert type(weight) in (int, float) and type(backlog_rounds) is int
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
            signature_from_json([[[["link_rate_bps", value]], 0.5, True, 0, False]])
