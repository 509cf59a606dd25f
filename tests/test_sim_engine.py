"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.errors import ConfigurationError, SchedulingError, SimulationError
from repro.sim.engine import Simulator
from repro.sim.events import Event


class TestScheduling:
    def test_schedule_and_run_single_event(self, sim):
        fired = []
        sim.schedule(1.5, fired.append, "a")
        assert sim.run() == 1
        assert fired == ["a"]
        assert sim.now == pytest.approx(1.5)

    def test_schedule_at_absolute_time(self, sim):
        fired = []
        sim.schedule_at(2.0, fired.append, "x")
        sim.run()
        assert fired == ["x"]
        assert sim.now == pytest.approx(2.0)

    def test_events_fire_in_time_order(self, sim):
        order = []
        sim.schedule(3.0, order.append, 3)
        sim.schedule(1.0, order.append, 1)
        sim.schedule(2.0, order.append, 2)
        sim.run()
        assert order == [1, 2, 3]

    def test_simultaneous_events_fire_in_insertion_order(self, sim):
        order = []
        for index in range(5):
            sim.schedule(1.0, order.append, index)
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_priority_breaks_ties_before_insertion_order(self, sim):
        order = []
        sim.schedule(1.0, order.append, "late", priority=5)
        sim.schedule(1.0, order.append, "early", priority=-5)
        sim.run()
        assert order == ["early", "late"]

    def test_scheduling_in_the_past_raises(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.schedule_at(0.5, lambda: None)

    def test_negative_delay_raises(self, sim):
        with pytest.raises(SchedulingError):
            sim.schedule(-0.1, lambda: None)

    def test_non_finite_time_raises(self, sim):
        with pytest.raises(SchedulingError):
            sim.schedule_at(float("inf"), lambda: None)

    def test_kwargs_are_passed_to_callback(self, sim):
        seen = {}
        sim.schedule(0.5, lambda **kw: seen.update(kw), value=42)
        sim.run()
        assert seen == {"value": 42}

    def test_positional_args_and_kwargs_reach_the_callback_together(self, sim):
        calls = []
        sim.schedule(0.5, lambda a, b, *, c: calls.append((a, b, c)), 1, 2, c=3)
        sim.schedule_at(1.0, lambda *args: calls.append(args), "x", "y")
        sim.run()
        assert calls == [(1, 2, 3), ("x", "y")]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        event = sim.schedule(1.0, fired.append, "no")
        sim.cancel(event)
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        event = sim.schedule(1.0, lambda: None)
        sim.cancel(event)
        sim.cancel(event)
        assert sim.run() == 0

    def test_pending_excludes_cancelled(self, sim):
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        sim.cancel(drop)
        assert sim.pending == 1
        assert not keep.cancelled


class TestPendingCounter:
    """`Simulator.pending` is a live counter, not an O(n) heap rescan."""

    def test_tracks_schedule_fire_and_cancel(self, sim):
        events = [sim.schedule(float(index + 1), lambda: None) for index in range(5)]
        assert sim.pending == 5
        events[3].cancel()  # direct Event.cancel, not via the simulator
        sim.cancel(events[4])
        assert sim.pending == 3
        sim.step()
        assert sim.pending == 2
        sim.run()
        assert sim.pending == 0

    def test_double_cancel_counts_once(self, sim):
        event = sim.schedule(1.0, lambda: None)
        other = sim.schedule(2.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.cancel(event)
        assert sim.pending == 1
        assert not other.cancelled

    def test_cancel_after_fire_is_a_noop(self, sim):
        event = sim.schedule(1.0, lambda: None)
        pending = sim.schedule(2.0, lambda: None)
        sim.step()
        event.cancel()  # the rto-timer pattern: cancelling an expired timer
        assert sim.pending == 1
        assert not pending.cancelled

    def test_cancel_of_discarded_event_is_a_noop(self, sim):
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        first.cancel()
        assert sim.run(until=1.5) == 0  # discards the dead head
        first.cancel()
        assert sim.pending == 1

    def test_events_scheduled_during_callbacks_are_counted(self, sim):
        def reschedule():
            if sim.now < 5.0:
                sim.schedule(1.0, reschedule)

        sim.schedule(1.0, reschedule)
        assert sim.pending == 1
        sim.run()
        assert sim.pending == 0
        assert sim.events_processed == 5

    def test_matches_slow_rescan_under_churn(self, sim):
        events = []
        for index in range(50):
            events.append(sim.schedule(float(index % 7) + 0.5, lambda: None))
        for event in events[::3]:
            event.cancel()
        # Heap entries are (time, priority, seq, event) tuples.
        def rescan():
            return sum(1 for *_, event in sim._queue if not event.cancelled)

        assert sim.pending == rescan()
        while sim.step():
            assert sim.pending == rescan()


class TestReschedule:
    """`reschedule` is cancel + `schedule_at`; a later move of a live event is made in place."""

    def test_later_move_is_in_place_and_pushes_nothing(self, sim):
        fired = []
        event = sim.schedule(1.0, fired.append, "timer")
        other = sim.schedule(2.0, fired.append, "other")
        depth = len(sim._queue)
        moved = sim.reschedule(event, 2.0)
        assert moved is event
        assert (moved.time, moved.priority, moved.seq) == (2.0, 0, 2)
        assert len(sim._queue) == depth
        assert sim.pending == 2
        # The fresh seq orders the moved timer after `other`, as a new event.
        assert sim.run() == 2
        assert fired == ["other", "timer"]
        assert sim.events_processed == 2
        assert other.seq == 1

    def test_same_time_takes_a_fresh_seq(self, sim):
        fired = []
        event = sim.schedule(1.0, fired.append, "first")
        sim.schedule(1.0, fired.append, "second")
        assert sim.reschedule(event, 1.0) is event
        sim.run()
        assert fired == ["second", "first"]

    def test_deferred_entry_does_not_fire_or_move_the_clock(self, sim):
        fired = []
        event = sim.schedule(1.0, fired.append, "timer")
        sim.reschedule(event, 5.0)
        assert sim.run(until=3.0) == 0
        assert fired == [] and sim.now == 3.0
        assert sim.step() is True
        assert fired == ["timer"] and sim.now == 5.0

    def test_earlier_move_pushes_a_new_event(self, sim):
        fired = []
        event = sim.schedule(3.0, fired.append, "timer", priority=2)
        moved = sim.reschedule(event, 1.0)
        assert moved is not event
        assert event.cancelled
        assert (moved.time, moved.priority, moved.seq) == (1.0, 2, 1)
        assert sim.pending == 1
        assert sim.run() == 1
        assert fired == ["timer"] and sim.now == 1.0

    def test_fired_cancelled_and_foreign_events_are_scheduled_anew(self, sim):
        fired = []
        done = sim.schedule(1.0, fired.append, "done")
        sim.run()
        again = sim.reschedule(done, 2.0)
        dead = sim.schedule(3.0, fired.append, "dead")
        dead.cancel()
        revived = sim.reschedule(dead, 4.0)
        other = Simulator()
        foreign = other.schedule(1.0, fired.append, "foreign")
        adopted = sim.reschedule(foreign, 5.0)
        assert again is not done and revived is not dead and adopted is not foreign
        assert foreign.cancelled and other.pending == 0
        assert sim.pending == 3
        sim.run()
        assert fired == ["done", "done", "dead", "foreign"]

    def test_kwargs_survive_a_move(self, sim):
        seen = {}
        event = sim.schedule(1.0, lambda **kw: seen.update(kw), value=7)
        sim.run(until=0.5)
        sim.reschedule(sim.reschedule(event, 2.0), 0.75)
        sim.run()
        assert seen == {"value": 7} and sim.now == 0.75

    @pytest.mark.parametrize("time", [float("inf"), float("nan"), -1.0])
    def test_invalid_times_raise_like_schedule_at(self, sim, time):
        event = sim.schedule(1.0, lambda: None)
        with pytest.raises(SchedulingError):
            sim.reschedule(event, time)
        assert event.cancelled and sim.pending == 0


class TestRunControl:
    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(5.0, fired.append, 5)
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == pytest.approx(2.0)
        sim.run()
        assert fired == [1, 5]

    def test_run_until_advances_clock_even_with_no_events(self, sim):
        sim.run(until=10.0)
        assert sim.now == pytest.approx(10.0)

    def test_max_events_limits_work(self, sim):
        fired = []
        for index in range(10):
            sim.schedule(float(index + 1), fired.append, index)
        sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_max_events_stop_does_not_fast_forward_clock(self, sim):
        # Regression: run(until=..., max_events=...) used to jump the clock to
        # `until` even when the event cap stopped the loop with events still
        # pending at or before `until`; those events then appeared to fire in
        # the simulated past.
        fired = []
        for index in range(5):
            sim.schedule(float(index + 1), fired.append, index)
        sim.run(until=10.0, max_events=2)
        assert fired == [0, 1]
        assert sim.now == pytest.approx(2.0)
        # The remaining events are still schedulable-past-free and fire cleanly.
        sim.run(until=10.0)
        assert fired == [0, 1, 2, 3, 4]
        assert sim.now == pytest.approx(10.0)

    def test_max_events_exactly_draining_queue_reaches_until(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, 0)
        sim.run(until=4.0, max_events=5)
        assert fired == [0]
        assert sim.now == pytest.approx(4.0)

    def test_step_returns_false_on_empty_queue(self, sim):
        assert sim.step() is False

    def test_events_processed_counter(self, sim):
        for index in range(4):
            sim.schedule(float(index + 1), lambda: None)
        sim.run()
        assert sim.events_processed == 4

    def test_nested_scheduling_from_callback(self, sim):
        fired = []

        def outer():
            fired.append("outer")
            sim.schedule(1.0, lambda: fired.append("inner"))

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == ["outer", "inner"]
        assert sim.now == pytest.approx(2.0)

    def test_run_is_not_reentrant(self, sim):
        def reenter():
            sim.run()

        sim.schedule(1.0, reenter)
        with pytest.raises(SimulationError):
            sim.run()

    @pytest.mark.parametrize("until", [math.nan, math.inf])
    def test_a_non_finite_until_is_refused(self, sim, until):
        # No event lies beyond NaN or +inf, so a timer that re-arms itself
        # (a bulk sender) would keep the loop running for good; here the cap
        # would end it after 10 000 events instead of a refusal.
        def tick():
            sim.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        with pytest.raises(ConfigurationError, match="finite"):
            sim.run(until=until, max_events=10_000)
        assert sim.events_processed == 0

    def test_run_until_fires_an_event_due_exactly_at_until(self, sim):
        fired = []
        sim.schedule(2.0, fired.append, "due")
        sim.schedule(2.0 + 1e-9, fired.append, "late")
        assert sim.run(until=2.0) == 1
        assert fired == ["due"] and sim.now == 2.0

    def test_run_until_the_clock_fires_what_is_due_now(self, sim):
        # The clock itself is a valid stop: a zero-length run fires the
        # events already due and moves nothing.
        fired = []
        sim.run(until=1.0)
        sim.schedule(0.0, fired.append, "now")
        sim.schedule(0.5, fired.append, "later")
        assert sim.run(until=1.0) == 1
        assert fired == ["now"] and sim.now == 1.0

    @pytest.mark.parametrize("until", [-5.0, 2.5])
    def test_an_until_before_the_clock_is_refused(self, sim, until):
        # A negative run length used to return at once and report success.
        sim.schedule(3.0, lambda: None)
        sim.run(until=3.0)
        with pytest.raises(ConfigurationError, match="not before the clock"):
            sim.run(until=until)
        assert sim.now == 3.0
        sim.run(until=3.0)  # the clock itself is a valid stop


class TestEventObject:
    def test_sort_key_ordering(self):
        early = Event(1.0, 0, 0, lambda: None)
        late = Event(2.0, 0, 1, lambda: None)
        assert early < late


class TestPropertyBased:
    @given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
    def test_events_always_fire_in_nondecreasing_time_order(self, delays):
        sim = Simulator()
        fire_times = []
        for delay in delays:
            sim.schedule(delay, lambda: fire_times.append(sim.now))
        sim.run()
        assert fire_times == sorted(fire_times)
        assert len(fire_times) == len(delays)

    @given(
        delays=st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1, max_size=30),
        until=st.floats(min_value=0.0, max_value=1e3),
    )
    def test_run_until_never_fires_later_events(self, delays, until):
        sim = Simulator()
        fired = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: fired.append(d))
        sim.run(until=until)
        assert all(delay <= until for delay in fired)


# An interleaving is a list of operations on a quarter-second grid, so equal
# times (and equal (time, priority) pairs) are common.  An event's optional
# ``child`` makes its callback schedule one more event and maybe cancel or
# reschedule one (a target ``(index, ticks)`` is a reschedule).
_TICK = 0.25
_EVENT = st.tuples(st.integers(0, 6), st.sampled_from([-1, 0, 1]))  # (ticks, priority)
_MOVE = st.tuples(st.integers(0, 40), st.integers(0, 6))  # (handle index, ticks from now)
_TARGET = st.one_of(st.none(), st.integers(0, 40), _MOVE)
_CHILD = st.one_of(st.none(), st.tuples(_EVENT, _TARGET))
_OPERATION = st.one_of(
    st.tuples(st.sampled_from(["schedule", "schedule_at"]), _EVENT, _CHILD),
    st.tuples(st.just("cancel"), st.integers(0, 40)),
    st.tuples(st.just("reschedule"), _MOVE),
)


class TestOrderAgainstReferenceModel:
    """The engine fires exactly what a sorted list of the live events would.

    A handle is one callback's token: ``reschedule`` keeps the callback and
    its arguments, so the model tracks a token's live key, and moves it as
    ``cancel`` + ``schedule_at`` would.
    """

    @seed(20260929)
    @settings(max_examples=300, deadline=None)
    @given(
        operations=st.lists(_OPERATION, min_size=1, max_size=40),
        until_ticks=st.integers(0, 14),
        max_events=st.one_of(st.none(), st.integers(0, 20)),
    )
    def test_random_interleavings_fire_in_sorted_live_order(
        self, operations, until_ticks, max_events
    ):
        sim = Simulator()
        handles: list[Event] = []  # token -> the token's latest event
        live: dict[int, tuple[float, int, int]] = {}  # token -> (time, priority, seq)
        priorities: list[int] = []  # token -> priority
        fired: list[tuple[int, float]] = []  # (token, time) in firing order
        spawned: set[int] = set()  # tokens whose child has acted
        next_seq = [0]

        def take_seq():
            next_seq[0] += 1
            return next_seq[0] - 1

        def add(method, spec, child):
            ticks, priority = spec
            token = len(handles)
            time = sim.now + ticks * _TICK
            if method == "schedule":
                event = sim.schedule(ticks * _TICK, fire, token, child, priority=priority)
            else:
                event = sim.schedule_at(time, fire, token, child, priority=priority)
            key = (time, priority, take_seq())
            assert (event.time, event.priority, event.seq) == key
            handles.append(event)
            priorities.append(priority)
            live[token] = key

        def cancel(index):
            if handles:
                token = index % len(handles)  # may be live, cancelled, fired or firing
                sim.cancel(handles[token])
                live.pop(token, None)

        def reschedule(index, ticks):
            if handles:
                token = index % len(handles)  # may be live, cancelled, fired or firing
                event = handles[token]
                time = sim.now + ticks * _TICK  # later or earlier than the event
                in_place = token in live and time >= live[token][0]
                moved = sim.reschedule(event, time)
                assert (moved is event) == in_place
                live.pop(token, None)
                key = (time, priorities[token], take_seq())
                assert (moved.time, moved.priority, moved.seq) == key
                handles[token] = moved
                live[token] = key

        def fire(token, child):
            assert token in live, "a cancelled, moved or already-fired event fired"
            assert live[token] == min(live.values())
            assert sim.now == live.pop(token)[0]
            fired.append((token, sim.now))
            assert sim.pending == len(live)
            assert sim.events_processed == len(fired)
            # A moved token can fire again; its child acts once, or two
            # children rescheduling each other would never stop.
            if child is not None and token not in spawned:
                spawned.add(token)
                spec, target = child
                add("schedule", spec, None)
                if isinstance(target, tuple):
                    reschedule(*target)
                elif target is not None:
                    cancel(target)
                assert sim.pending == len(live)

        for operation in operations:
            if operation[0] == "cancel":
                cancel(operation[1])
            elif operation[0] == "reschedule":
                reschedule(*operation[1])
            else:
                add(*operation)
            assert sim.pending == len(live)

        until = until_ticks * _TICK
        count = sim.run(until=until, max_events=max_events)
        assert count == len(fired)
        if any(time <= until for time, _, _ in live.values()):
            # Only the event cap can leave due events behind, and then the
            # clock stays at the last event fired.
            assert count == max_events
            assert sim.now == (fired[-1][1] if fired else 0.0)
        else:
            assert sim.now == until

        next_time = min(live.values())[0] if live else None
        expect_step = bool(live)
        assert sim.step() is expect_step
        if expect_step:
            assert sim.now == next_time
        sim.run()
        assert not live
        assert sim.pending == 0
        assert sim.events_processed == len(fired)
