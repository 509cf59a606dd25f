"""Fault-tolerance suite: journal, supervised retries, fault injection.

Exercises the robustness stack end to end: :class:`FaultPlan` chaos is
injected deterministically, the supervisor retries/quarantines/kills,
the journal makes interrupted sweeps resumable, and — the property that
matters — a chaos run whose every fault is recovered produces an artifact
byte-identical to a clean run.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, PointFailureError
from repro.runner import (
    FaultPlan,
    InjectedFaultError,
    ParallelRunner,
    PointFault,
    ResultCache,
    ScenarioRegistry,
    ScenarioSpec,
    SerialRunner,
    Supervision,
    SweepJournal,
    grid,
    grid_digest,
    journal_path,
    make_runner,
    replay_journal,
)
from repro.runner.cli import main as cli_main
from repro.runner.faults import NO_FAULTS, corrupt_entry
from repro.runner.journal import JOURNAL_SCHEMA_VERSION


# --------------------------------------------------------------- test scenarios
#
# Top-level functions so worker processes resolve them by reference.


def _toy(seed: int = 0, x: float = 1.0) -> dict[str, float]:
    return {"y": x * 2.0, "seed_echo": float(seed)}


def _flaky(seed: int = 0, marker: str = "", fail_times: int = 0) -> dict[str, float]:
    """Fails its first ``fail_times`` executions, then succeeds.

    Attempt count persists in ``marker`` (one byte appended per call), so
    it survives worker-process death — which is the point: the supervisor
    must observe genuine cross-process retries.  Metrics are deliberately
    attempt-independent, so a recovered run stays byte-identical to a
    clean one.
    """
    path = Path(marker)
    calls = len(path.read_bytes()) if path.exists() else 0
    with open(path, "ab") as handle:
        handle.write(b"x")
    if calls < fail_times:
        raise RuntimeError(f"flaky failure #{calls}")
    return {"ok": 1.0, "seed_echo": float(seed)}


def _interrupting(seed: int = 0, marker: str = "") -> dict[str, float]:
    with open(marker, "ab") as handle:
        handle.write(b"x")
    raise KeyboardInterrupt("user pressed ctrl-c")


def _sleepy(seed: int = 0, duration: float = 0.0) -> dict[str, float]:
    time.sleep(duration)
    return {"slept": duration}


def _registry() -> ScenarioRegistry:
    registry = ScenarioRegistry()
    registry.register("toy", description="doubles x")(_toy)
    registry.register("flaky", description="fails then succeeds")(_flaky)
    registry.register("interrupting", description="raises KeyboardInterrupt")(_interrupting)
    registry.register("sleepy", description="sleeps")(_sleepy)
    return registry


REGISTRY = _registry()


def toy_specs(n: int) -> list[ScenarioSpec]:
    return [ScenarioSpec("toy", params={"x": float(i)}, seed=i) for i in range(n)]


# ------------------------------------------------------------------- fault plan


class TestFaultPlan:
    def test_assign_is_deterministic(self):
        specs = toy_specs(32)
        plan = FaultPlan(seed=7, exception_rate=0.25, kills=2, hangs=1, corrupt=2)
        first = plan.assign(specs)
        second = plan.assign(specs)
        assert first.execution == second.execution
        assert first.corrupt == second.corrupt

    def test_assign_honors_counts_and_rate(self):
        specs = toy_specs(40)
        plan = FaultPlan(seed=1, exception_rate=0.2, kills=3, hangs=2, corrupt=4)
        assignment = plan.assign(specs)
        kinds = [fault.kind for fault in assignment.execution.values()]
        assert kinds.count("kill") == 3
        assert kinds.count("hang") == 2
        assert 0 < kinds.count("exception") < len(specs)
        assert len(assignment.corrupt) == 4

    def test_different_seed_changes_assignment(self):
        specs = toy_specs(64)
        a = FaultPlan(seed=1, exception_rate=0.3, kills=2).assign(specs)
        b = FaultPlan(seed=2, exception_rate=0.3, kills=2).assign(specs)
        assert a.execution != b.execution

    def test_targets_override_sampling(self):
        specs = toy_specs(4)
        plan = FaultPlan(targets=(PointFault(kind="kill", index=2),))
        assignment = plan.assign(specs)
        assert assignment.fault_for(2, attempt=0) == "kill"
        assert assignment.fault_for(2, attempt=1) is None  # first attempt only
        assert assignment.fault_for(1, attempt=0) is None

    def test_target_by_label(self):
        specs = toy_specs(3)
        plan = FaultPlan(targets=(PointFault(kind="exception", label=specs[1].label),))
        assert plan.assign(specs).fault_for(1, attempt=0) == "exception"

    def test_unmatched_target_is_an_error(self):
        with pytest.raises(ConfigurationError, match="matches no point"):
            FaultPlan(targets=(PointFault(kind="kill", index=99),)).assign(toy_specs(3))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(exception_rate=1.5)
        with pytest.raises(ConfigurationError):
            FaultPlan(kills=-1)
        with pytest.raises(ConfigurationError):
            PointFault(kind="nope", index=0)
        with pytest.raises(ConfigurationError):
            PointFault(kind="kill")  # neither index nor label

    def test_parse_round_trip(self):
        plan = FaultPlan.parse("exception=0.1,kills=2,hangs=1,corrupt=1,seed=7,kill@3")
        assert plan.exception_rate == 0.1
        assert plan.kills == 2 and plan.hangs == 1 and plan.corrupt == 1
        assert plan.seed == 7
        assert plan.targets == (PointFault(kind="kill", index=3),)
        assert FaultPlan.parse(plan.describe()) == plan

    def test_parse_rejects_garbage(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.parse("bogus=1")
        with pytest.raises(ConfigurationError):
            FaultPlan.parse("kills=two")
        with pytest.raises(ConfigurationError):
            FaultPlan.parse("kill@x")
        with pytest.raises(ConfigurationError):
            FaultPlan.parse("justaword")


# ---------------------------------------------------------------------- journal


class TestJournal:
    def test_write_then_replay(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with SweepJournal(path, grid="abc", points=3) as journal:
            journal.running(0, attempt=0)
            journal.done(0, {"y": 1.5}, 0.01)
            journal.running(1, attempt=0)
            journal.failed(1, attempt=0, error="boom")
            journal.running(2, attempt=0)
        state = replay_journal(path)
        assert state.header is not None and state.header["grid"] == "abc"
        assert set(state.done) == {0}
        assert state.done[0]["metrics"] == {"y": 1.5}
        assert state.last[2]["state"] == "running"
        assert not state.complete

    def test_complete_marker(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with SweepJournal(path, grid="abc", points=1) as journal:
            journal.done(0, {"y": 1.0}, 0.0)
            journal.complete()
        assert replay_journal(path).complete

    def test_torn_tail_is_ignored(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with SweepJournal(path, grid="abc", points=2) as journal:
            journal.done(0, {"y": 1.0}, 0.0)
            journal.done(1, {"y": 2.0}, 0.0)
        # Simulate a kill mid-append: the last line is half-written.
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: len(text) - 12], encoding="utf-8")
        state = replay_journal(path)
        assert set(state.done) == {0}

    def test_missing_file_is_empty(self, tmp_path):
        assert replay_journal(tmp_path / "absent.jsonl").last == {}

    def test_schema_mismatch_voids_journal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with SweepJournal(path, grid="abc", points=1) as journal:
            journal.done(0, {"y": 1.0}, 0.0)
        text = path.read_text(encoding="utf-8")
        path.write_text(
            text.replace(f'"v":{JOURNAL_SCHEMA_VERSION}', f'"v":{JOURNAL_SCHEMA_VERSION + 1}'),
            encoding="utf-8",
        )
        assert replay_journal(path).done == {}

    def test_fresh_open_truncates_and_append_keeps(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with SweepJournal(path, grid="abc", points=1) as journal:
            journal.done(0, {"y": 1.0}, 0.0)
        with SweepJournal(path, grid="abc", points=1, append=True):
            pass
        assert set(replay_journal(path).done) == {0}  # resume header kept records
        with SweepJournal(path, grid="abc", points=1):
            pass
        assert replay_journal(path).done == {}  # fresh run starts over

    def test_journal_path_is_per_grid(self, tmp_path):
        a = journal_path(tmp_path, grid_digest(toy_specs(2)))
        b = journal_path(tmp_path, grid_digest(toy_specs(3)))
        assert a != b and a.parent == b.parent == tmp_path / "journal"


# ----------------------------------------------------- journal replay, fuzzed

#: What a crash, a double flush or a stray writer can put on a line that is
#: JSON but not a record.
NON_OBJECT_LINES = ["[1, 2]", '"done"', "42", "null", "true", "{", "}", ""]


def mangle_journal(lines: list[str], data) -> str:
    """``lines`` torn, glued, duplicated, reordered and salted, as ``data`` draws."""
    lines = list(lines)
    for _ in range(data.draw(st.integers(0, 8), label="damage")):
        kind = data.draw(st.sampled_from(["tear", "glue", "duplicate", "swap", "noise"]))
        at = data.draw(st.integers(0, len(lines) - 1))
        if kind == "tear":
            lines[at] = lines[at][: data.draw(st.integers(0, len(lines[at])))]
        elif kind == "glue" and at + 1 < len(lines):  # at the last line: noise instead
            # A torn append the next writer continued: no newline between them.
            cut = data.draw(st.integers(0, len(lines[at])))
            lines[at : at + 2] = [lines[at][:cut] + lines[at + 1]]
        elif kind == "duplicate":
            lines.insert(data.draw(st.integers(0, len(lines))), lines[at])
        elif kind == "swap":
            other = data.draw(st.integers(0, len(lines) - 1))
            lines[at], lines[other] = lines[other], lines[at]
        else:
            lines.insert(at, data.draw(st.sampled_from(NON_OBJECT_LINES)))
    return "\n".join(lines) + data.draw(st.sampled_from(["\n", ""]), label="tail")


def last_record_per_index(text: str) -> dict[int, dict]:
    """The test's own reading of a journal: last decodable object per ``i``."""
    last = {}
    for line in text.splitlines():
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) and isinstance(record.get("i"), int):
            last[record["i"]] = record
    return last


@pytest.fixture(scope="module")
def tcp_journal(tmp_path_factory):
    """``(specs, clean to_json, journal lines)`` of one supervised serial run.

    Run once, outside ``@given``: the lines carry measured wall times, and
    what hypothesis draws (cut positions) must not depend on the clock.
    """
    root = tmp_path_factory.mktemp("tcp-journal")
    specs = grid("single_link_tcp", base={"duration": 2.0}, loss_rate=(0.0, 0.02, 0.05))
    clean = make_runner("serial", supervision=Supervision(), journal_dir=root).run(specs)
    lines = journal_path(root, grid_digest(specs)).read_text(encoding="utf-8").splitlines()
    return specs, clean.to_json(), lines


class TestJournalReplayProperties:
    """ROADMAP direction 1(4): journal replay under everything a crash (or a
    second writer) can leave in the file."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_replay_never_raises_and_done_means_a_whole_done_line_came_last(
        self, tmp_path_factory, data
    ):
        path = tmp_path_factory.mktemp("journal") / "j.jsonl"
        with SweepJournal(path, grid="abc", points=4) as journal:
            for index in range(4):
                journal.running(index, attempt=0)
                if index == 2:
                    journal.failed(index, attempt=0, error="boom")
                    journal.running(index, attempt=1)
                journal.done(index, {"y": index / 4, "seed_echo": float(index)}, 0.25)
            journal.complete()
        lines = path.read_text(encoding="utf-8").splitlines()
        written = replay_journal(path).done
        assert set(written) == {0, 1, 2, 3}

        text = mangle_journal(lines, data)
        path.write_text(text, encoding="utf-8")
        state = replay_journal(path)  # never raises
        last = last_record_per_index(text)
        for index, record in state.done.items():
            assert record == last[index] == written[index]
        # Nor is anything the file's last word calls done dropped.
        assert set(state.done) == {
            index for index, record in last.items() if record.get("state") == "done"
        }

        # A header of another version, wherever it lands, voids the file.
        foreign = json.dumps({"journal": "repro.runner/sweep", "v": JOURNAL_SCHEMA_VERSION + 1})
        mangled = text.splitlines()
        mangled.insert(data.draw(st.integers(0, len(mangled)), label="foreign header"), foreign)
        path.write_text("\n".join(mangled) + "\n", encoding="utf-8")
        state = replay_journal(path)
        assert state.header is None and state.last == {} and not state.complete

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_resume_from_a_mangled_journal_yields_the_clean_store(
        self, tmp_path_factory, tcp_journal, data
    ):
        specs, clean, lines = tcp_journal
        root = tmp_path_factory.mktemp("resume")
        path = journal_path(root, grid_digest(specs))
        path.parent.mkdir(parents=True)
        path.write_text(mangle_journal(lines, data), encoding="utf-8")
        resumed = make_runner(
            "serial", supervision=Supervision(), journal_dir=root, resume=True
        ).run(specs)
        assert resumed.to_json() == clean
        assert not resumed.quarantined


# ------------------------------------------------------------------ supervision


class TestSupervisionPolicy:
    def test_backoff_is_deterministic_and_bounded(self):
        sup = Supervision(backoff=0.1, backoff_cap=1.0, seed=3)
        delays = [sup.delay("point", attempt) for attempt in (1, 2, 3, 8)]
        assert delays == [sup.delay("point", attempt) for attempt in (1, 2, 3, 8)]
        assert all(0.0 < delay <= 1.0 for delay in delays)
        assert delays[-1] == 1.0  # capped
        assert sup.delay("point", 0) == 0.0
        assert Supervision(backoff=0.0).delay("point", 5) == 0.0

    def test_backoff_depends_on_seed_and_point(self):
        a = Supervision(seed=1).delay("p", 1)
        b = Supervision(seed=2).delay("p", 1)
        c = Supervision(seed=1).delay("q", 1)
        assert a != b and a != c


def _supervised(backend, *, workers=2, **kwargs):
    supervision = kwargs.pop("supervision", Supervision(max_retries=2, backoff=0.01))
    return make_runner(
        backend, workers=workers, registry=REGISTRY, supervision=supervision, **kwargs
    )


#: ``(backend, workers)``: the process backend two points wide and one point
#: wide.  The one-wide id is the one the ``"async"`` spelling of
#: ``"parallel"`` had while there was one.
PROCESS_BACKENDS = [
    pytest.param("parallel", 2, id="ParallelRunner"),
    pytest.param("parallel", 1, id="AsyncRunner"),
]
BACKENDS = [pytest.param("serial", None, id="SerialRunner"), *PROCESS_BACKENDS]


class TestSupervisedRecovery:
    @pytest.mark.parametrize("backend, workers", BACKENDS)
    def test_clean_supervised_run_matches_plain(self, backend, workers, tmp_path):
        specs = toy_specs(6)
        plain = SerialRunner(registry=REGISTRY).run(specs)
        supervised = _supervised(backend, workers=workers, journal_dir=tmp_path).run(specs)
        assert supervised.to_json() == plain.to_json()
        assert supervised.retries == 0 and not supervised.partial

    @pytest.mark.parametrize("backend, workers", BACKENDS)
    def test_flaky_point_retries_then_succeeds(self, backend, workers, tmp_path):
        marker = tmp_path / "flaky.calls"
        specs = [
            ScenarioSpec("flaky", params={"marker": str(marker), "fail_times": 2}, seed=0)
        ]
        store = _supervised(backend, workers=workers, journal_dir=tmp_path).run(specs)
        assert len(store) == 1 and not store.quarantined
        assert store.retries == 2
        assert marker.read_bytes() == b"xxx"  # 2 failing calls + 1 success

    @pytest.mark.parametrize("backend, workers", BACKENDS)
    def test_exhausted_point_is_quarantined_not_fatal(self, backend, workers, tmp_path):
        marker = tmp_path / "flaky.calls"
        specs = toy_specs(3) + [
            ScenarioSpec("flaky", params={"marker": str(marker), "fail_times": 99}, seed=0)
        ]
        supervision = Supervision(max_retries=1, backoff=0.01)
        store = _supervised(
            backend, workers=workers, supervision=supervision, journal_dir=tmp_path
        ).run(specs)
        assert len(store) == 3 and store.partial
        assert len(store.quarantined) == 1
        point = store.quarantined[0]
        assert point.spec.scenario == "flaky"
        assert point.attempts == 2
        assert "RuntimeError" in point.error
        # The artifact records the quarantine alongside the healthy points.
        assert '"quarantined"' in store.to_json()
        assert marker.read_bytes() == b"xx"  # 1 try + 1 retry, then gave up

    @pytest.mark.parametrize("backend, workers", BACKENDS)
    def test_strict_mode_restores_fail_fast(self, backend, workers, tmp_path):
        marker = tmp_path / "flaky.calls"
        specs = [
            ScenarioSpec("flaky", params={"marker": str(marker), "fail_times": 99}, seed=0)
        ]
        supervision = Supervision(max_retries=0, strict=True)
        with pytest.raises(PointFailureError, match="failed 1 attempt"):
            _supervised(
                backend, workers=workers, supervision=supervision, journal_dir=tmp_path
            ).run(specs)

    @pytest.mark.parametrize("backend, workers", PROCESS_BACKENDS)
    def test_injected_worker_kill_is_retried(self, backend, workers, tmp_path):
        specs = toy_specs(4)
        plan = FaultPlan(targets=(PointFault(kind="kill", index=1),))
        supervision = Supervision(max_retries=2, backoff=0.01, fault_plan=plan)
        store = _supervised(
            backend, workers=workers, supervision=supervision, journal_dir=tmp_path
        ).run(specs)
        assert len(store) == 4 and not store.quarantined
        assert store.retries == 1
        assert store.to_json() == SerialRunner(registry=REGISTRY).run(specs).to_json()

    @pytest.mark.parametrize("backend, workers", PROCESS_BACKENDS)
    def test_hung_point_is_killed_and_retried(self, backend, workers, tmp_path):
        specs = toy_specs(3)
        plan = FaultPlan(targets=(PointFault(kind="hang", index=2),), hang_seconds=30.0)
        supervision = Supervision(
            max_retries=1, backoff=0.01, point_timeout=0.75, fault_plan=plan
        )
        started = time.perf_counter()
        store = _supervised(
            backend, workers=workers, supervision=supervision, journal_dir=tmp_path
        ).run(specs)
        elapsed = time.perf_counter() - started
        assert len(store) == 3 and not store.quarantined
        assert store.retries == 1
        assert elapsed < 10.0  # killed at the timeout, nowhere near the 30s hang

    def test_injected_exception_is_injectedfaulterror(self):
        specs = toy_specs(2)
        plan = FaultPlan(targets=(PointFault(kind="exception", index=0),))
        supervision = Supervision(max_retries=0, strict=True, fault_plan=plan)
        with pytest.raises(PointFailureError, match="InjectedFaultError"):
            _supervised("serial", supervision=supervision).run(specs)
        with pytest.raises(InjectedFaultError):
            # The raw fault, outside supervision plumbing.
            from repro.runner.faults import perform_fault

            perform_fault("exception", hang_seconds=1.0, label="p", in_worker=False)


# --------------------------------------------------------------------- resuming


class TestResume:
    def test_resume_replays_done_points_without_reexecution(self, tmp_path):
        marker = tmp_path / "flaky.calls"
        specs = toy_specs(3) + [
            ScenarioSpec("flaky", params={"marker": str(marker), "fail_times": 1}, seed=0)
        ]
        # Prime the marker so the reference run sails through, then reset
        # it so the supervised passes below see the failure.
        marker.write_bytes(b"x")
        clean = SerialRunner(registry=REGISTRY).run(specs)
        marker.write_bytes(b"")

        # First pass: the flaky point exhausts its (zero) retries and is
        # quarantined; the three healthy points land in the journal.
        first = _supervised(
            "parallel",
            supervision=Supervision(max_retries=0, backoff=0.01),
            journal_dir=tmp_path,
        ).run(specs)
        assert len(first) == 3 and len(first.quarantined) == 1

        # Second pass resumes: done points replay from the journal, only
        # the quarantined point re-executes (and now succeeds).
        second = _supervised(
            "parallel",
            supervision=Supervision(max_retries=0, backoff=0.01),
            journal_dir=tmp_path,
            resume=True,
        ).run(specs)
        assert second.resumed == 3
        assert not second.quarantined
        assert second.to_json() == clean.to_json()
        assert marker.read_bytes() == b"xx"  # one failing call, one succeeding

    def test_resumed_points_share_their_metric_names(self, tmp_path):
        specs = toy_specs(3)
        clean = _supervised("serial", journal_dir=tmp_path).run(specs)
        first, second = (
            _supervised("serial", journal_dir=tmp_path, resume=True).run(specs)
            for _ in range(2)
        )
        assert first.resumed == second.resumed == 3
        for one, other, executed in zip(first, second, clean):
            assert all(a is b for a, b in zip(one.metrics, other.metrics))
            assert list(one.metrics.items()) == list(executed.metrics.items())
            assert list(other.metrics.items()) == list(executed.metrics.items())

    @pytest.mark.parametrize("wall_time", [None, "soon"])
    def test_mistyped_journal_line_is_skipped_and_its_point_reexecuted(
        self, tmp_path, wall_time
    ):
        specs = toy_specs(3)
        clean = _supervised("serial", journal_dir=tmp_path).run(specs)
        path = journal_path(tmp_path, grid_digest(specs))
        lines = []
        for line in path.read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            if record.get("state") == "done" and record.get("i") == 1:
                record["wall_time"] = wall_time
            lines.append(json.dumps(record))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        resumed = _supervised("serial", journal_dir=tmp_path, resume=True).run(specs)
        assert resumed.resumed == 2  # the damaged line reads as "not done"
        assert resumed.to_json() == clean.to_json()

    def test_resume_without_journal_location_is_an_error(self):
        with pytest.raises(ConfigurationError, match="journal"):
            ParallelRunner(registry=REGISTRY, resume=True)

    def test_resume_of_changed_grid_starts_fresh(self, tmp_path):
        specs = toy_specs(3)
        runner = _supervised("serial", journal_dir=tmp_path)
        runner.resume = True
        store = runner.run(specs)  # nothing journalled for this grid yet
        assert store.resumed == 0 and len(store) == 3

    def test_journal_written_under_cache_root_by_default(self, tmp_path):
        specs = toy_specs(2)
        cache = ResultCache(tmp_path / "cache")
        _supervised("serial", cache=cache).run(specs)
        assert journal_path(cache.root, grid_digest(specs)).exists()


# ------------------------------------------------------------- cache corruption


class TestCacheCorruption:
    def test_corrupt_entry_quarantined_not_deleted(self, tmp_path):
        specs = toy_specs(2)
        cache = ResultCache(tmp_path)
        SerialRunner(registry=REGISTRY, cache=cache).run(specs)
        # Truncate one stored entry, as the corrupt fault does.
        entries = sorted((tmp_path / "results").rglob("*.json"))
        corrupt_entry(entries[0])

        fresh = ResultCache(tmp_path)
        store = SerialRunner(registry=REGISTRY, cache=fresh).run(specs)
        assert len(store) == 2
        assert store.cache_hits == 1 and store.cache_misses == 1
        assert store.cache_corrupt == 1 and fresh.corrupt == 1
        moved = list((tmp_path / "quarantine").iterdir())
        assert len(moved) == 1  # evidence preserved, not deleted

    def test_corrupt_fault_injects_through_supervised_run(self, tmp_path):
        specs = toy_specs(3)
        cache = ResultCache(tmp_path)
        plan = FaultPlan(targets=(PointFault(kind="corrupt", index=1),))
        store = _supervised(
            "serial",
            supervision=Supervision(max_retries=0, fault_plan=plan),
            cache=cache,
        ).run(specs)
        assert len(store) == 3  # corruption is post-store; the run is unharmed
        warm = SerialRunner(registry=REGISTRY, cache=ResultCache(tmp_path)).run(specs)
        assert warm.cache_hits == 2 and warm.cache_corrupt == 1


# --------------------------------------------------- cancellation (satellite 1)


class TestCancellation:
    @pytest.mark.parametrize("backend, workers", PROCESS_BACKENDS)
    def test_supervised_interrupt_is_not_retried_or_quarantined(
        self, backend, workers, tmp_path
    ):
        marker = tmp_path / "interrupts"
        specs = [ScenarioSpec("interrupting", params={"marker": str(marker)}, seed=0)]
        with pytest.raises(KeyboardInterrupt):
            _supervised(backend, workers=workers, journal_dir=tmp_path).run(specs)
        assert marker.read_bytes() == b"x"  # executed exactly once: no retry

    def test_serial_supervised_interrupt_propagates(self, tmp_path):
        marker = tmp_path / "interrupts"
        specs = [ScenarioSpec("interrupting", params={"marker": str(marker)}, seed=0)]
        with pytest.raises(KeyboardInterrupt):
            _supervised("serial", journal_dir=tmp_path).run(specs)
        assert marker.read_bytes() == b"x"

    def test_async_unsupervised_interrupt_cancels_promptly(self, tmp_path):
        # A plain (unsupervised) parallel run gets the interrupt fast path
        # too: the interrupt must surface, and the siblings be killed,
        # well before the 3-second sleepers finish.
        marker = tmp_path / "interrupts"
        specs = [
            ScenarioSpec("sleepy", params={"duration": 3.0}, seed=0),
            ScenarioSpec("interrupting", params={"marker": str(marker)}, seed=0),
            ScenarioSpec("sleepy", params={"duration": 3.0}, seed=1),
        ]
        runner = make_runner("parallel", workers=3, registry=REGISTRY)
        started = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            runner.run(specs)
        assert time.perf_counter() - started < 2.5


# -------------------------------------------------------------------------- CLI


class TestFaultCLI:
    def test_inject_faults_round_trip_is_byte_identical(self, tmp_path, capsys):
        argv_common = [
            "run",
            "single_link_tcp",
            "--set",
            "duration=2",
            "--seeds",
            "2",
            "--json",
        ]
        assert cli_main([*argv_common, str(tmp_path / "clean.json")]) == 0
        code = cli_main(
            [
                *argv_common,
                str(tmp_path / "chaos.json"),
                "--backend",
                "parallel",
                "--workers",
                "2",
                "--max-retries",
                "2",
                "--retry-backoff",
                "0.01",
                "--inject-faults",
                "exception=0.5,seed=3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "supervision:" in out
        assert (tmp_path / "chaos.json").read_bytes() == (
            tmp_path / "clean.json"
        ).read_bytes()

    def test_resume_without_cache_dir_is_exit_2(self, tmp_path, monkeypatch, capsys):
        from repro.runner.cache import CACHE_DIR_ENV

        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        code = cli_main(["run", "single_link_tcp", "--set", "duration=2", "--resume"])
        assert code == 2
        assert "--resume needs a journal location" in capsys.readouterr().err

    def test_strict_injected_failure_is_exit_3(self, capsys):
        code = cli_main(
            [
                "run",
                "single_link_tcp",
                "--set",
                "duration=2",
                "--seeds",
                "2",
                "--strict",
                "--max-retries",
                "0",
                "--inject-faults",
                "exception@1",
            ]
        )
        assert code == 3
        assert "InjectedFaultError" in capsys.readouterr().err

    def test_partial_run_is_exit_1_and_reports_quarantine(self, capsys):
        code = cli_main(
            [
                "run",
                "single_link_tcp",
                "--set",
                "duration=2",
                "--seeds",
                "2",
                "--max-retries",
                "0",
                "--inject-faults",
                "exception@1",
            ]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "1 quarantined" in captured.out
        assert "quarantined: single_link_tcp" in captured.err

    def test_bad_fault_plan_is_exit_2(self, capsys):
        code = cli_main(
            ["run", "single_link_tcp", "--set", "duration=2", "--inject-faults", "bogus=1"]
        )
        assert code == 2


# --------------------------------------------------------- acceptance-scale run


@pytest.mark.slow
class TestChaosAcceptance:
    def test_256_point_sweep_survives_the_issue_fault_plan(self, tmp_path):
        """The headline robustness claim, at the scale the issue names.

        256 points under 10% injected exceptions, 2 worker kills, 1 hang
        and 1 corrupted cache entry: every fault recovers on retry, so the
        sweep completes with zero quarantined points and the artifact is
        byte-identical to a clean serial run.
        """
        specs = [ScenarioSpec("toy", params={"x": float(i)}, seed=i) for i in range(256)]
        clean = SerialRunner(registry=REGISTRY).run(specs)

        plan = FaultPlan(seed=11, exception_rate=0.1, kills=2, hangs=1, corrupt=1,
                         hang_seconds=60.0)
        assignment = plan.assign(specs)
        injected = len(assignment.execution)
        assert injected >= 256 // 10  # the plan actually bites

        cache = ResultCache(tmp_path / "cache")
        supervision = Supervision(
            max_retries=3, backoff=0.01, point_timeout=2.0, fault_plan=plan
        )
        store = ParallelRunner(
            workers=4, registry=REGISTRY, cache=cache, supervision=supervision
        ).run(specs)

        assert len(store) == 256
        assert not store.quarantined and not store.partial
        assert store.retries == injected  # every injected fault cost one retry
        assert store.to_json() == clean.to_json()

        # The corrupted cache entry is discovered (and quarantined) on the
        # warm rerun; every other point replays as a hit.
        warm = SerialRunner(registry=REGISTRY, cache=ResultCache(cache.root)).run(specs)
        assert warm.cache_hits == 255 and warm.cache_corrupt == 1
        assert warm.to_json() == clean.to_json()
