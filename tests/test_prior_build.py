"""A prior becomes a belief the same way on both engines.

The array engine writes a prior's initial ensemble straight into its
buffers (``EnsembleState.from_prior``); the scalar engine builds one
``LinkModel`` per grid point, whose initial fill comes from the one fill
rule (``initial_fill``) with a single ``deque.extend``.  Both are held here
to what they replaced, bit for bit: the array build to packing the scalar
engine's hypotheses, and the model's fill to the per-packet ``_enqueue``
loop it used to run, kept below as the oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.inference import BeliefState, figure3_prior, single_link_prior
from repro.inference.hypothesis import Hypothesis
from repro.inference.linkmodel import (
    CROSS,
    LinkModel,
    LinkModelParams,
    initial_fill,
)
from repro.inference.prior import DerivedPrior
from repro.inference.vectorized import EnsembleState, VectorizedBeliefState
from repro.inference.vectorized import state as state_module
from repro.runner.scenarios import many_flow_sender_prior


def with_filler(prior, filler_bits):
    """``prior`` with every configuration's filler packet size fixed."""
    if filler_bits is None:
        return prior
    return DerivedPrior(grid=prior.grid, fixed={**prior.fixed, "filler_packet_bits": filler_bits})


def switching_every(prior, mean_time_to_switch):
    """``prior`` with the cross traffic's mean time to switch fixed."""
    return DerivedPrior(
        grid=prior.grid, fixed={**prior.fixed, "mean_time_to_switch": mean_time_to_switch}
    )


fillers = st.one_of(st.none(), st.floats(min_value=500.0, max_value=40_000.0))
capacities = st.floats(min_value=3_000.0, max_value=150_000.0)

single_link_priors = st.builds(
    single_link_prior,
    link_rate_low=st.floats(min_value=2_000.0, max_value=12_000.0),
    link_rate_high=st.floats(min_value=12_000.0, max_value=60_000.0),
    link_rate_points=st.integers(min_value=1, max_value=3),
    buffer_capacity_bits=capacities,
    fill_points=st.integers(min_value=1, max_value=4),
    loss_rate=st.sampled_from([0.0, 0.1]),
    cross_rate_pps=st.sampled_from([0.0, 0.5]),
    packet_bits=st.sampled_from([12_000.0, 7_777.5]),
)

figure3_priors = st.builds(
    switching_every,
    st.builds(
        figure3_prior,
        link_rate_points=st.integers(min_value=1, max_value=2),
        cross_fraction_points=st.integers(min_value=1, max_value=2),
        loss_points=st.integers(min_value=1, max_value=2),
        buffer_low=st.floats(min_value=3_000.0, max_value=72_000.0),
        buffer_high=st.floats(min_value=72_000.0, max_value=150_000.0),
        buffer_points=st.integers(min_value=1, max_value=2),
        fill_points=st.integers(min_value=1, max_value=3),
    ),
    st.sampled_from([5.0, 100.0]),
)

priors = st.builds(with_filler, st.one_of(single_link_priors, figure3_priors), fillers)
start_times = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=500.0))


def assert_same_buffers(built: EnsembleState, packed: EnsembleState) -> None:
    """Every slot equal: arrays by dtype, shape and bytes (objects by ``==``)."""
    for name in EnsembleState.__slots__:
        ours, theirs = getattr(built, name), getattr(packed, name)
        if isinstance(theirs, np.ndarray):
            assert ours.dtype == theirs.dtype, name
            assert ours.shape == theirs.shape, name
            if theirs.dtype == object:
                assert np.array_equal(ours, theirs), name
            else:
                assert ours.tobytes() == theirs.tobytes(), name
        elif isinstance(theirs, float):
            assert ours.hex() == theirs.hex(), name
        else:
            assert ours == theirs, name


class TestArrayBuildEqualsPackingTheScalarBuild:
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(prior=priors, start_time=start_times)
    def test_every_buffer_weight_and_signature(self, prior, start_time):
        scalar = BeliefState.from_prior(prior, start_time=start_time, backend="scalar")
        array = BeliefState.from_prior(prior, start_time=start_time, backend="vectorized")
        assert type(array) is VectorizedBeliefState
        hypotheses = scalar.hypotheses

        assert_same_buffers(array.state, EnsembleState.from_hypotheses(hypotheses))
        assert array.weights == scalar.weights
        for row, hypothesis in enumerate(hypotheses):
            materialized = array.state.materialize(row)
            assert materialized.signature() == hypothesis.signature()
            assert materialized.export_state() == hypothesis.export_state()

    def test_the_contention_prior_covers_the_fill_shapes(self):
        """The ``many_flow_contention`` sender's prior: 7 link rates × empty,
        half and full buffers, the last two not a whole number of packets."""
        prior = many_flow_sender_prior(8e6 / 128, 8e6)
        array = BeliefState.from_prior(prior, backend="fused")
        scalar = BeliefState.from_prior(prior, backend="scalar")
        assert_same_buffers(array.state, EnsembleState.from_hypotheses(scalar.hypotheses))
        assert sorted(set(array.state.q_len.tolist())) == [0, 333, 666]
        assert array.state.svc_active.sum() == 14


class TestArrayBuildBuildsNoScalarObject:
    def test_no_model_no_hypothesis(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError(f"{type(self).__name__} built on the array path")

        monkeypatch.setattr(LinkModel, "__init__", refuse)
        monkeypatch.setattr(Hypothesis, "__init__", refuse)
        belief = BeliefState.from_prior(figure3_prior(), backend="vectorized")
        assert len(belief) == figure3_prior().size
        with pytest.raises(AssertionError, match="built on the array path"):
            BeliefState.from_prior(figure3_prior(), backend="scalar")

    def test_one_fill_per_distinct_fill_shape(self, monkeypatch):
        calls = []

        def counting(*key):
            calls.append(key)
            return initial_fill(*key)

        monkeypatch.setattr(state_module, "initial_fill", counting)
        prior = single_link_prior(link_rate_points=7, fill_points=3)
        BeliefState.from_prior(prior, backend="vectorized")
        assert len(calls) == len(set(calls)) == 3


# ----------------------------------------------------------- the fill oracle


def enqueue_loop_fill(capacity_bits, fill_bits, filler_bits, link_rate, start_time):
    """A model filled the way ``LinkModel`` did before the one fill rule:
    ``size = min(filler, remaining)`` and one ``_enqueue`` per packet, on a
    rollout's copy so that a tail drop would be tallied."""
    model = LinkModel(
        LinkModelParams(link_rate_bps=link_rate, buffer_capacity_bits=capacity_bits),
        start_time=start_time,
    ).clone(keep_history=False)
    remaining = fill_bits
    seq = -1
    while remaining > 1e-9:
        size = min(filler_bits, remaining)
        model._enqueue((CROSS, seq, size))
        remaining -= size
        seq -= 1
    return model


def assert_same_fill(model, oracle):
    assert list(model._queue) == list(oracle._queue)
    assert model.queue_bits.hex() == oracle.queue_bits.hex()
    assert model._in_service == oracle._in_service
    assert model._service_completion.hex() == oracle._service_completion.hex()
    # The fill drops nothing, so the loop must not have either.
    assert oracle.cross.drops == []
    assert model.export_state() == oracle.export_state()


fill_cases = st.tuples(
    st.floats(min_value=1_000.0, max_value=150_000.0),  # capacity
    st.floats(min_value=0.0, max_value=1.0),  # fill as a fraction of it
    st.floats(min_value=300.0, max_value=40_000.0),  # filler size
    st.floats(min_value=2_000.0, max_value=60_000.0),  # link rate
    start_times,
)


class TestLinkModelFillEqualsTheEnqueueLoop:
    @settings(max_examples=200, deadline=None)
    @given(case=fill_cases)
    def test_model_fill(self, case):
        capacity, fraction, filler, link_rate, start_time = case
        fill = fraction * capacity
        model = LinkModel(
            LinkModelParams(
                link_rate_bps=link_rate,
                buffer_capacity_bits=capacity,
                initial_fill_bits=fill,
                filler_packet_bits=filler,
            ),
            start_time=start_time,
        )
        assert_same_fill(model, enqueue_loop_fill(capacity, fill, filler, link_rate, start_time))

    @pytest.mark.parametrize("filler", [12_000.0, 7_777.5, 96_000.0, 2.9])
    def test_a_full_buffer_fits_without_a_drop(self, filler):
        """A fill is at most its capacity, so the loop never tail-dropped a
        filler packet and the fill queues every one but the first."""
        capacity = 96_000.0
        model = LinkModel(
            LinkModelParams(
                link_rate_bps=12_000.0,
                buffer_capacity_bits=capacity,
                initial_fill_bits=capacity,
                filler_packet_bits=filler,
            )
        )
        oracle = enqueue_loop_fill(capacity, capacity, filler, 12_000.0, 0.0)
        assert_same_fill(model, oracle)
        sizes, queue_bits = initial_fill(capacity, filler)
        assert [seq for _, seq, _ in model._queue] == list(range(-2, -len(sizes) - 1, -1))
        assert queue_bits == model.queue_bits
