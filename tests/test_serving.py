"""Serving-subsystem suite: registry, breaker, fallback chain, chaos.

The contract under test is the degradation ladder: a request for a
``(config_fingerprint, decision_signature)`` pair must always receive a
valid decision — bit-identical to the published
:class:`~repro.api.policy.PolicyTable` on a table hit, equal (to float
tolerance) to a direct :class:`~repro.core.planner.ExpectedUtilityPlanner`
run on a planner fallback, and the documented safe default when everything
else is on fire.  The chaos acceptance test drives a seeded
:class:`~repro.runner.faults.FaultPlan` through the service and checks the
per-tier counters against an independent reference walk of the same plan.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api.config import SenderConfig
from repro.api.policy import decision_from_payload, decision_to_payload, precompute_policy_table
from repro.core.planner import ExpectedUtilityPlanner
from repro.errors import (
    ConfigurationError,
    ServingError,
    TableIntegrityError,
)
from repro.inference import single_link_prior
from repro.inference.parameters import assignment_digest
from repro.runner.faults import FaultPlan, PointFault
from repro.runner.supervise import Supervision
from repro.serving import (
    CircuitBreaker,
    DecisionService,
    PolicyClient,
    PolicyServer,
    PolicyTableRegistry,
    ServingFaultInjector,
    belief_from_signature,
    content_digest,
    safe_default_decision,
)
from repro.serving import fallback
from repro.serving.fallback import DEFAULT_SAFE_DELAY

REPO_ROOT = Path(__file__).resolve().parent.parent


def fast_config(**overrides) -> SenderConfig:
    """The suite's sub-second sender config (the fast-test pattern)."""
    defaults = dict(
        prior=single_link_prior(link_rate_points=2, fill_points=1),
        top_k=4,
        max_hypotheses=32,
        belief_backend="vectorized",
        rollout_backend="vectorized",
        policy="table",
    )
    defaults.update(overrides)
    return SenderConfig(**defaults)


@pytest.fixture(scope="module")
def published():
    """One precomputed table, published into a module-lifetime registry."""
    import tempfile

    config = fast_config()
    table = precompute_policy_table(
        config, pilot_duration=5.0, burst_levels=(0, 2), seed=2
    )
    root = tempfile.mkdtemp(prefix="repro-serving-")
    registry = PolicyTableRegistry(root)
    registry.publish(table)
    return config, table, registry


def off_table_signature(table, bump: int = 1) -> tuple:
    """A well-formed signature the table does not hold (forces tier 2)."""
    base = table.signatures()[0]
    max_rounds = max(
        max((row[3] for row in signature), default=0)
        for signature in table.signatures()
    )
    return tuple(
        (row[0], row[1], row[2], max_rounds + bump, True) for row in base
    )


# ---------------------------------------------------------------- registry

#: Client-supplied "fingerprints" that would name something other than one
#: directory under ``tables/``.
NOT_ONE_PATH_COMPONENT = ["", ".", "..", "../x", "a/b", "nul\0byte"]


class TestRegistry:
    def test_publish_and_lookup_round_trip(self, tmp_path):
        config = fast_config()
        table = precompute_policy_table(
            config, pilot_duration=5.0, burst_levels=(0, 2), seed=2
        )
        registry = PolicyTableRegistry(tmp_path)
        path = registry.publish(table)
        assert path.exists()
        loaded = registry.lookup(config.fingerprint())
        assert loaded is not None
        assert loaded.size == table.size
        for signature in table.signatures():
            assert loaded.decision_for(signature) == table.decision_for(signature)

    def test_publish_is_idempotent_and_content_addressed(self, published, tmp_path):
        config, table, _ = published
        registry = PolicyTableRegistry(tmp_path)
        first = registry.publish(table)
        second = registry.publish(table)
        assert first == second
        digest = registry.current_digest(config.fingerprint())
        assert first.stem == digest
        assert content_digest(first.read_bytes()) == digest
        assert registry.versions(config.fingerprint()) == [digest]

    def test_lookup_unpublished_fingerprint_misses(self, tmp_path):
        registry = PolicyTableRegistry(tmp_path)
        assert registry.lookup("cafecafecafecafe") is None
        assert registry.fingerprints() == []

    def test_corrupt_version_is_quarantined_never_served(self, tmp_path):
        config = fast_config()
        table = precompute_policy_table(
            config, pilot_duration=5.0, burst_levels=(0, 2), seed=2
        )
        registry = PolicyTableRegistry(tmp_path)
        path = registry.publish(table)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])  # torn write

        assert registry.lookup(config.fingerprint()) is None
        assert registry.corrupt == 1
        assert not path.exists()
        quarantined = tmp_path / "quarantine" / path.name
        assert quarantined.exists()

    def test_schema_mismatch_is_quarantined(self, tmp_path):
        config = fast_config()
        table = precompute_policy_table(
            config, pilot_duration=5.0, burst_levels=(0, 2), seed=2
        )
        registry = PolicyTableRegistry(tmp_path)
        path = registry.publish(table)
        payload = json.loads(path.read_text())
        payload["schema"] = 999
        text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
        # Re-address the tampered bytes so the digest check passes and the
        # schema check is what fires.
        tampered = path.with_name(content_digest(text.encode()) + ".json")
        tampered.write_text(text)
        (path.parent / "CURRENT").write_text(tampered.stem + "\n")

        assert registry.lookup(config.fingerprint()) is None
        assert registry.corrupt == 1
        assert (tmp_path / "quarantine" / tampered.name).exists()

    def test_fingerprint_mismatch_is_quarantined(self, published, tmp_path):
        config, table, _ = published
        registry = PolicyTableRegistry(tmp_path)
        path = registry.publish(table)
        imposter_dir = tmp_path / "tables" / "deadbeefdeadbeef"
        imposter_dir.mkdir(parents=True)
        (imposter_dir / path.name).write_bytes(path.read_bytes())
        (imposter_dir / "CURRENT").write_text(path.stem + "\n")

        assert registry.lookup("deadbeefdeadbeef") is None
        assert registry.corrupt == 1
        # The real fingerprint still serves.
        assert registry.lookup(config.fingerprint()) is not None

    def test_dangling_current_pointer_reads_as_miss(self, tmp_path):
        config = fast_config()
        table = precompute_policy_table(
            config, pilot_duration=5.0, burst_levels=(0, 2), seed=2
        )
        registry = PolicyTableRegistry(tmp_path)
        path = registry.publish(table)
        path.unlink()
        assert registry.lookup(config.fingerprint()) is None
        assert registry.corrupt == 0  # a miss, not corruption

    def test_republish_hot_reloads_without_restart(self, tmp_path):
        config = fast_config()
        first = precompute_policy_table(
            config, pilot_duration=5.0, burst_levels=(0, 2), seed=2
        )
        second = precompute_policy_table(
            config, pilot_duration=5.0, burst_levels=(0, 1, 2), seed=3
        )
        registry = PolicyTableRegistry(tmp_path)
        registry.publish(first)
        served = registry.lookup(config.fingerprint())
        assert served is not None and served.size == first.size

        registry.publish(second)  # no restart, no reload() call
        served = registry.lookup(config.fingerprint())
        assert served is not None and served.size == second.size
        assert len(registry.versions(config.fingerprint())) == 2

    def test_publish_without_fingerprint_is_rejected(self, tmp_path):
        from repro.api.policy import PolicyTable

        table = PolicyTable(top_k=4)
        with pytest.raises(TableIntegrityError, match="without a config fingerprint"):
            PolicyTableRegistry(tmp_path).publish(table)

    @pytest.mark.parametrize("fingerprint", NOT_ONE_PATH_COMPONENT[1:])  # "" is the test above
    def test_publish_refuses_a_fingerprint_that_is_not_one_path_component(
        self, tmp_path, fingerprint
    ):
        from repro.api.policy import PolicyTable

        registry = PolicyTableRegistry(tmp_path / "registry")
        with pytest.raises(TableIntegrityError, match="single path component"):
            registry.publish(PolicyTable(top_k=4, fingerprint=fingerprint))
        assert list(tmp_path.iterdir()) == []  # nothing written, anywhere

    def test_traversal_fingerprint_is_unpublished_and_moves_no_file(
        self, published, tmp_path
    ):
        """``<fp>/../<fp>`` used to resolve to ``fp``'s own files, fail the
        payload-fingerprint check, and quarantine the healthy version."""
        config, table, _ = published
        registry = PolicyTableRegistry(tmp_path)
        version = registry.publish(table)
        service = DecisionService(registry, [config])
        fingerprint = config.fingerprint()
        signature = table.signatures()[0]

        absolute = str(tmp_path / "tables" / fingerprint)  # Path("x") / "/abs" is "/abs"
        for hostile in (f"{fingerprint}/../{fingerprint}", absolute, *NOT_ONE_PATH_COMPONENT):
            assert service.decide(hostile, signature).tier == "default"
            assert registry.lookup(hostile) is None
            assert registry.current_digest(hostile) is None
            assert registry.versions(hostile) == []
        assert version.exists()
        assert not (tmp_path / "quarantine").exists()
        assert registry.corrupt == 0
        assert service.counters_snapshot()["table_corrupt"] == 0
        registry.reload()  # a restart would read the same disk state
        assert service.decide(fingerprint, signature).tier == "table"


# ----------------------------------------------------------------- breaker


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestCircuitBreaker:
    def make(self, **kwargs) -> tuple[CircuitBreaker, FakeClock]:
        clock = FakeClock()
        defaults = dict(failure_threshold=3, cooldown=2.0, clock=clock)
        defaults.update(kwargs)
        return CircuitBreaker("cfg", **defaults), clock

    def test_trips_after_consecutive_failures(self):
        breaker, _ = self.make()
        for _ in range(2):
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.opens == 1

    def test_success_resets_the_failure_count(self):
        breaker, _ = self.make()
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_admits_exactly_one_probe(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        assert breaker.cooldown_remaining() > 0
        clock.now = breaker.cooldown_remaining() + 0.001
        assert breaker.allow()  # the probe
        assert breaker.state == "half_open"
        assert not breaker.allow()  # held until the probe reports

    def test_successful_probe_closes_failed_probe_reopens_longer(self):
        breaker, clock = self.make()
        for _ in range(3):
            breaker.record_failure()
        first_cooldown = breaker.cooldown_remaining()
        clock.now += first_cooldown + 0.001
        assert breaker.allow()
        breaker.record_failure()  # failed probe: reopen, backoff doubled
        assert breaker.state == "open"
        assert breaker.opens == 2
        second_cooldown = breaker.cooldown_remaining()
        assert second_cooldown > first_cooldown

        clock.now += second_cooldown + 0.001
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_cooldowns_reuse_supervision_backoff(self):
        """The open-state cooldown is exactly the runner's retry delay."""
        breaker, clock = self.make(cooldown=2.0)
        for _ in range(3):
            breaker.record_failure()
        expected = Supervision(backoff=2.0, backoff_cap=300.0).delay("breaker:cfg", 1)
        assert breaker.cooldown_remaining() == pytest.approx(expected)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(cooldown=0.0)


# --------------------------------------------------- belief reconstruction


class TestBeliefFromSignature:
    def test_round_trip_reproduces_the_signature(self):
        config = fast_config()
        belief = config.build_belief()
        belief.record_send(0, config.packet_bits, 0.0)
        belief.record_send(1, config.packet_bits, 0.05)
        belief.update(0.4)
        resolution = config.policy_resolution_bits
        signature = belief.decision_signature(config.top_k, resolution)

        points = config.prior.points_by_digest()
        rebuilt = belief_from_signature(
            signature, points, queue_resolution_bits=resolution, now=0.4
        )
        again = rebuilt.decision_signature(config.top_k, resolution)
        assert len(again) == len(signature)
        for row, row2 in zip(signature, again):
            assert row2[0] == row[0]  # assignment digest
            assert row2[1] == pytest.approx(row[1], abs=1.5e-3)  # weight
            assert row2[2] == row[2]  # gate
            assert row2[3] == row[3]  # backlog rounds
            assert row2[4] == row[4]  # busy
        # Each row is rebuilt from the very assignment its digest names.
        for hypothesis, _ in rebuilt.top(len(rebuilt)):
            assert points[hypothesis.params_digest] == hypothesis.params

    def test_idle_rows_come_back_idle(self):
        config = fast_config()
        belief = config.build_belief()
        resolution = config.policy_resolution_bits
        signature = belief.decision_signature(config.top_k, resolution)
        assert all(not row[4] for row in signature)
        rebuilt = belief_from_signature(
            signature, config.prior.points_by_digest(), queue_resolution_bits=resolution
        )
        assert rebuilt.decision_signature(config.top_k, resolution) == signature

    def test_empty_signature_is_rejected(self):
        with pytest.raises(ServingError, match="empty signature"):
            belief_from_signature((), {}, queue_resolution_bits=3_000.0)

    def test_malformed_row_is_rejected(self):
        points = fast_config().prior.points_by_digest()
        for row in (("not", "a", "row"), ("0" * 16, 1.0, True, 0, False)):
            with pytest.raises(ServingError, match="malformed signature row"):
                belief_from_signature((row,), points, queue_resolution_bits=3_000.0)


# ----------------------------------------------------- the fallback chain


class TestDecisionServiceTiers:
    def test_tier1_is_bit_identical_to_direct_table_lookup(self, published):
        config, table, registry = published
        service = DecisionService(registry, [config])
        for signature in table.signatures():
            served = service.decide(config.fingerprint(), signature)
            assert served.status == "ok"
            assert served.tier == "table"
            assert served.decision == table.decision_for(signature)
        counters = service.counters_snapshot()
        assert counters["table_hits"] == len(table.signatures())
        assert counters["errors"] == 0

    def test_tier2_matches_direct_planner_on_reconstructed_belief(self, published):
        config, table, registry = published
        service = DecisionService(registry, [config], planner_timeout=30.0)
        signature = off_table_signature(table)
        served = service.decide(config.fingerprint(), signature, now=5.0)
        assert served.tier == "planner"

        planner = config.build_planner()
        direct = planner.decide(
            belief_from_signature(
                signature,
                config.prior.points_by_digest(),
                queue_resolution_bits=table.queue_resolution_bits,
                now=5.0,
            ),
            5.0,
        )
        assert served.decision.action.delay == pytest.approx(
            direct.action.delay, rel=1e-9
        )
        assert served.decision.horizon == pytest.approx(direct.horizon, rel=1e-9)
        assert set(served.decision.expected_utilities) == set(direct.expected_utilities)
        for delay, utility in direct.expected_utilities.items():
            assert served.decision.expected_utilities[delay] == pytest.approx(
                utility, rel=1e-9
            )

    def test_tier3_unknown_fingerprint_serves_global_default(self, published):
        _, table, registry = published
        service = DecisionService(registry, [])
        served = service.decide("0000000000000000", table.signatures()[0])
        assert served.tier == "default"
        assert served.status == "ok"
        assert not served.known_config
        assert served.decision.action.delay == DEFAULT_SAFE_DELAY

    def test_tier3_when_planner_always_fails(self, published, tmp_path):
        """All planner attempts fail -> breaker opens -> defaults served."""
        config, table, _ = published
        empty = PolicyTableRegistry(tmp_path)  # no tables: tier 1 misses
        plan = FaultPlan(seed=3, exception_rate=1.0)
        requests = 8
        service = DecisionService(
            empty,
            [config],
            injector=ServingFaultInjector(plan, requests),
            breaker_threshold=3,
            breaker_cooldown=300.0,
        )
        signature = table.signatures()[0]
        for _ in range(requests):
            served = service.decide(config.fingerprint(), signature)
            assert served.status == "ok"
            assert served.decision.action.delay >= 0.0
        counters = service.counters_snapshot()
        assert counters["planner_failures"] == 3  # then the breaker opened
        assert counters["breaker_open"] == requests - 3
        assert counters["default_served"] == requests
        assert counters["errors"] == 0
        assert service.breaker_for(config.fingerprint()).state == "open"

    def test_safe_default_provenance_is_slowest_prior_rate(self):
        config = fast_config()
        rates = [
            assignment["link_rate_bps"]
            for assignment, _ in config.prior.combinations()
        ]
        decision = safe_default_decision(config)
        assert decision.action.delay == pytest.approx(
            config.packet_bits / min(rates)
        )
        # Unknown config: one default packet at the global prior floor.
        assert safe_default_decision(None).action.delay == DEFAULT_SAFE_DELAY

    def test_planner_timeout_degrades_to_default(self, published, tmp_path):
        config, table, _ = published
        empty = PolicyTableRegistry(tmp_path)
        plan = FaultPlan(seed=1, hangs=1, hang_seconds=5.0)
        service = DecisionService(
            empty,
            [config],
            planner_timeout=0.15,
            injector=ServingFaultInjector(plan, 1),
        )
        started = time.monotonic()
        served = service.decide(config.fingerprint(), table.signatures()[0])
        elapsed = time.monotonic() - started
        assert served.tier == "default"
        assert elapsed < 2.0  # bounded by the timeout, not the hang
        assert service.counters_snapshot()["planner_failures"] == 1

    @pytest.mark.parametrize("timeout", [math.nan, math.inf, -1.0, 0.0])
    def test_planner_timeout_must_be_finite_and_positive(self, timeout, tmp_path):
        # Waiting on a plan with any of these raises at once (TimeoutError,
        # or OverflowError for inf), so every tier-2 request would count as
        # a planner failure and open the breaker.
        with pytest.raises(ServingError, match="planner_timeout"):
            DecisionService(PolicyTableRegistry(tmp_path), planner_timeout=timeout)


# ------------------------------------------ the planner tier's request path


def planner_threads() -> list[threading.Thread]:
    return [
        thread
        for thread in threading.enumerate()
        if thread.name == "repro-serving-planner"
    ]


class TestPlannerTierHotPath:
    def test_decide_recomputes_no_config_identity(self, published, tmp_path, monkeypatch):
        config, table, _ = published
        service = DecisionService(
            PolicyTableRegistry(tmp_path), [config], planner_timeout=30.0
        )
        describes = []
        original = SenderConfig.describe
        monkeypatch.setattr(
            SenderConfig,
            "describe",
            lambda self: describes.append(1) or original(self),
        )
        fingerprint = config.fingerprint()
        for i in range(50):
            served = service.decide(fingerprint, off_table_signature(table, 1 + i % 3))
            assert served.tier == "planner"
        assert describes == []

    def test_sequential_decides_do_not_accumulate_threads(self, published, tmp_path):
        config, table, _ = published
        service = DecisionService(
            PolicyTableRegistry(tmp_path), [config], planner_timeout=30.0
        )
        fingerprint = config.fingerprint()
        signature = table.signatures()[0]
        for _ in range(5):
            assert service.decide(fingerprint, signature).tier == "planner"
        after_five = threading.active_count()
        for _ in range(495):
            assert service.decide(fingerprint, signature).tier == "planner"
        assert threading.active_count() <= after_five
        assert service.counters_snapshot()["planner_fallbacks"] == 500


class TestServingNeverShares:
    def test_one_signature_twice_at_one_instant_plans_twice(
        self, published, tmp_path, monkeypatch
    ):
        """Every request is answered at ``now = 0.0``: a per-instant plan
        memo there would never empty, and ``serve_planner`` would time
        lookups instead of plans."""
        config, table, _ = published
        service = DecisionService(
            PolicyTableRegistry(tmp_path), [config], planner_timeout=30.0
        )
        plans: list[float] = []
        plan = ExpectedUtilityPlanner.decide
        monkeypatch.setattr(
            ExpectedUtilityPlanner,
            "decide",
            lambda self, belief, now: plans.append(now) or plan(self, belief, now),
        )
        fingerprint = config.fingerprint()
        signature = table.signatures()[0]
        served = [service.decide(fingerprint, signature, now=0.0) for _ in range(2)]
        assert [answer.tier for answer in served] == ["planner", "planner"]
        assert plans == [0.0, 0.0]
        assert served[0].decision == served[1].decision


class TestDaemonThreadExecutor:
    def test_abandoned_hang_is_bypassed_and_never_reused(
        self, published, tmp_path, monkeypatch
    ):
        config, table, _ = published
        plan = FaultPlan(
            targets=(PointFault("hang", index=0),), hang_seconds=1.5
        )
        service = DecisionService(
            PolicyTableRegistry(tmp_path),
            [config],
            planner_timeout=0.1,
            injector=ServingFaultInjector(plan, 1),
        )
        fingerprint = config.fingerprint()
        signature = table.signatures()[0]
        before = set(planner_threads())
        assert service.decide(fingerprint, signature).tier == "default"
        (hung,) = set(planner_threads()) - before
        assert hung.daemon

        # Record which thread rebuilds the belief, i.e. runs each live plan.
        workers = []
        real_rebuild = fallback.belief_from_signature

        def rebuild(*args, **kwargs):
            workers.append(threading.current_thread())
            return real_rebuild(*args, **kwargs)

        monkeypatch.setattr(fallback, "belief_from_signature", rebuild)
        service.planner_timeout = 30.0
        started = time.monotonic()
        for _ in range(20):
            assert service.decide(fingerprint, signature).tier == "planner"
        assert time.monotonic() - started < 1.0  # nobody waited for the hang
        assert hung.is_alive()  # ... which is still stalled off to the side
        assert len(workers) == 20 and hung not in workers
        assert all(worker.daemon for worker in workers)
        assert len(set(workers)) == 1  # one parked worker served them all

        # Once the stall ends the abandoned worker exits instead of parking.
        hung.join(timeout=10.0)
        assert not hung.is_alive()
        assert service.decide(fingerprint, signature).tier == "planner"
        assert workers[-1] is workers[0]
        assert service.counters_snapshot()["planner_failures"] == 1

    def test_exception_is_relayed_and_the_worker_serves_the_next_call(self):
        pool = fallback._DaemonThreadExecutor()

        def boom():
            raise ValueError("planner bug")

        first = pool.submit(threading.current_thread)
        worker = first.result(timeout=10.0)
        assert worker.daemon and worker is not threading.current_thread()
        failed = pool.submit(boom)
        with pytest.raises(ValueError, match="planner bug"):
            failed.result(timeout=10.0)
        assert not failed.cancel()  # already settled: nothing to abandon
        assert pool.submit(threading.current_thread).result(timeout=10.0) is worker
        # close() releases the parked worker; the pool stays usable after it.
        pool.close()
        worker.join(timeout=10.0)
        assert not worker.is_alive()
        fresh = pool.submit(threading.current_thread).result(timeout=10.0)
        assert fresh is not worker and fresh.daemon

    def test_concurrent_calls_each_get_a_worker_and_idle_ones_are_capped(self):
        pool = fallback._DaemonThreadExecutor()
        width = pool.MAX_IDLE + 4
        release = threading.Event()
        entered = threading.Semaphore(0)

        def block():
            entered.release()
            assert release.wait(timeout=10.0)
            return threading.current_thread()

        futures = [pool.submit(block) for _ in range(width)]
        for _ in range(width):  # all run at once: none queued behind another
            assert entered.acquire(timeout=10.0)
        release.set()
        workers = {future.result(timeout=10.0) for future in futures}
        assert len(workers) == width
        deadline = time.monotonic() + 10.0
        while sum(w.is_alive() for w in workers) > pool.MAX_IDLE:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert sum(w.is_alive() for w in workers) == pool.MAX_IDLE


# ------------------------------------------------- reload & shared registry


class TestConcurrentServing:
    def test_hot_reload_races_in_flight_lookups(self, tmp_path):
        """Publish/reload churn under a request hammer: zero bad answers."""
        config = fast_config()
        tables = [
            precompute_policy_table(
                config, pilot_duration=5.0, burst_levels=levels, seed=seed
            )
            for levels, seed in (((0, 2), 2), ((0, 1, 2), 3))
        ]
        registry = PolicyTableRegistry(tmp_path)
        registry.publish(tables[0])
        service = DecisionService(registry, [config], planner_timeout=30.0)
        # Signatures present in both versions answer from whichever table
        # a racing lookup lands on; the rest fall through to the planner.
        common = sorted(
            set(tables[0].signatures()) & set(tables[1].signatures())
        )
        assert common, "the two versions share no signatures"
        fingerprint = config.fingerprint()
        failures: list[str] = []
        stop = threading.Event()

        def hammer() -> None:
            i = 0
            while not stop.is_set():
                served = service.decide(fingerprint, common[i % len(common)])
                if served.status != "ok" or served.tier not in ("table", "planner"):
                    failures.append(f"{served.status}/{served.tier}")
                i += 1

        threads = [threading.Thread(target=hammer) for _ in range(3)]
        for thread in threads:
            thread.start()
        for flip in range(10):
            registry.publish(tables[flip % 2])
            registry.reload()
        stop.set()
        for thread in threads:
            thread.join()

        assert failures == []
        counters = service.counters_snapshot()
        assert counters["errors"] == 0
        assert counters["table_hits"] > 0

    def test_two_instances_share_one_registry_directory(self, tmp_path):
        config = fast_config()
        first = precompute_policy_table(
            config, pilot_duration=5.0, burst_levels=(0, 2), seed=2
        )
        second = precompute_policy_table(
            config, pilot_duration=5.0, burst_levels=(0, 1, 2), seed=3
        )
        registry_a = PolicyTableRegistry(tmp_path)
        registry_b = PolicyTableRegistry(tmp_path)
        registry_a.publish(first)

        fingerprint = config.fingerprint()
        assert registry_b.lookup(fingerprint) is not None
        # Instance A publishes a new version; B observes it on its next
        # lookup without any signal between the processes.
        registry_a.publish(second)
        assert registry_b.current_digest(fingerprint) == registry_a.current_digest(
            fingerprint
        )
        assert registry_b.lookup(fingerprint).size == second.size

    def test_reply_names_the_version_that_decided_despite_a_racing_publish(
        self, tmp_path
    ):
        """A publish landing between lookup and reply must not relabel it."""
        config = fast_config()
        first, second = (
            precompute_policy_table(
                config, pilot_duration=5.0, burst_levels=levels, seed=seed
            )
            for levels, seed in (((0, 2), 2), ((0, 1, 2), 3))
        )
        registry = PolicyTableRegistry(tmp_path)
        first_digest = registry.publish(first).stem
        fingerprint = config.fingerprint()
        signature = first.signatures()[0]
        service = DecisionService(registry, [config])

        real_lookup = registry.lookup
        second_digests = []

        def lookup_then_republish(requested):
            table = real_lookup(requested)
            if not second_digests:  # CURRENT moves before the reply is built
                second_digests.append(registry.publish(second).stem)
            return table

        registry.lookup = lookup_then_republish
        served = service.decide(fingerprint, signature)
        assert second_digests and second_digests[0] != first_digest
        assert registry.current_digest(fingerprint) == second_digests[0]
        assert served.tier == "table"
        assert served.decision == first.decision_for(signature)
        assert served.table_digest == first_digest
        # The next request is answered by, and names, the new version.
        later = service.decide(fingerprint, second.signatures()[0])
        assert later.tier == "table"
        assert later.table_digest == second_digests[0]
        assert later.decision == second.decision_for(second.signatures()[0])


# ------------------------------------------------------------ HTTP surface


def run_async(coroutine):
    return asyncio.run(coroutine)


class TestPolicyServerHTTP:
    def test_decide_health_metrics_and_reload(self, published):
        config, table, registry = published
        service = DecisionService(registry, [config])
        signature = table.signatures()[0]

        async def scenario():
            server = PolicyServer(service, max_pending=4)
            await server.start()
            client = PolicyClient(port=server.port)
            try:
                payload = await client.decide(config.fingerprint(), signature)
                assert payload["status"] == "ok"
                assert payload["tier"] == "table"
                assert payload["table_digest"] == registry.current_digest(
                    config.fingerprint()
                )
                served = decision_from_payload(payload["decision"])
                assert served == table.decision_for(signature)
                assert payload["counters"]["table_hits"] >= 1

                status, health = await client.get("/healthz")
                assert status == 200 and health["status"] == "ok"
                status, ready = await client.get("/readyz")
                assert status == 200 and ready["status"] == "ready"
                status, metrics = await client.get("/metrics")
                assert status == 200
                assert metrics["counters"]["requests"] >= 1
                reloaded = await client.reload()
                assert reloaded == {"status": "ok", "dropped": 1}

                status, missing = await client.get("/nope")
                assert status == 404 and missing["status"] == "error"
            finally:
                await client.close()
                await server.stop()

        run_async(scenario())

    def test_malformed_decide_is_a_400_not_a_crash(self, published):
        config, _, registry = published
        service = DecisionService(registry, [config])

        async def scenario():
            server = PolicyServer(service)
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            body = b"this is not json"
            writer.write(
                b"POST /decide HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
                % (len(body), body)
            )
            await writer.drain()
            status_line = await reader.readline()
            assert b"400" in status_line
            writer.close()
            await server.stop()

        run_async(scenario())

    def test_unready_without_tables_or_configs(self, tmp_path):
        service = DecisionService(PolicyTableRegistry(tmp_path), [])

        async def scenario():
            server = PolicyServer(service)
            await server.start()
            client = PolicyClient(port=server.port)
            try:
                status, payload = await client.get("/readyz")
                assert status == 503
                assert payload["status"] == "unready"
                assert "no published tables" in payload["reasons"][0]
            finally:
                await client.close()
                await server.stop()

        run_async(scenario())

    def test_admission_control_sheds_with_a_valid_decision(self, published):
        config, table, registry = published
        service = DecisionService(registry, [config])
        signature = table.signatures()[0]

        async def scenario():
            server = PolicyServer(service, max_pending=2)
            await server.start()
            server._pending = server.max_pending  # saturate admission control
            client = PolicyClient(port=server.port)
            try:
                for _ in range(2):
                    payload = await client.decide(config.fingerprint(), signature)
                    assert payload["status"] == "overloaded"
                    assert payload["tier"] == "default"
                    assert payload["decision"]["delay"] >= 0.0

                status, ready = await client.get("/readyz")
                assert status == 503  # saturated instances report unready
            finally:
                server._pending = 0
                await client.close()
                await server.stop()

        run_async(scenario())
        assert service.counters_snapshot()["shed"] == 2

    def test_concurrent_overload_sheds_some_and_answers_all(self, published):
        config, table, registry = published
        service = DecisionService(registry, [config], planner_timeout=5.0)
        # A table hit is answered on the event loop and cannot be made slow;
        # what can pile up is the planner tier: a signature outside the
        # table, planned by a planner that waits.
        signature = off_table_signature(table)
        slow = threading.Event()
        gate_planner(service, config, slow, wait=0.3)

        async def scenario():
            server = PolicyServer(service, max_pending=2)
            await server.start()
            clients = [PolicyClient(port=server.port) for _ in range(6)]
            try:
                tasks = [
                    asyncio.create_task(
                        client.decide(config.fingerprint(), signature)
                    )
                    for client in clients
                ]
                await asyncio.sleep(0.05)
                slow.set()
                payloads = await asyncio.gather(*tasks)
            finally:
                for client in clients:
                    await client.close()
                await server.stop()
            return payloads

        payloads = run_async(scenario())
        statuses = [payload["status"] for payload in payloads]
        assert all(status in ("ok", "overloaded") for status in statuses)
        assert statuses.count("overloaded") >= 1  # admission control engaged
        assert all(payload["decision"]["delay"] >= 0.0 for payload in payloads)


# ------------------------------------------------------- hostile requests

#: Shapes a confused or hostile client can put where a signature belongs;
#: every one must be the transport's 400, never a tier's problem.
MALFORMED_SIGNATURES = {
    "non-list": {"rows": 1},
    "empty": [],
    "dict element": [{"a": 1}],
    "wrong row arity": [[1, 2]],
    "list-valued parameter": [[[["link_rate_bps", [12_000.0]]], 0.5, True, 0, False]],
    "nested pair": [[[[["link_rate_bps", 12_000.0]]], 0.5, True, 0, False]],
    "string weight": [["0123456789abcdef", "0.5", True, 0, False]],
    "int digest": [[12_000, 0.5, True, 0, False]],
}

#: ``(weight, now)`` a client can send that Python's JSON reader accepts but
#: no sender produces: each is a 400, not a tier-2 failure.
NON_FINITE_INPUTS = {
    "nan weight": (math.nan, 5.0),
    "inf weight": (math.inf, 5.0),
    "-inf weight": (-math.inf, 5.0),
    "nan now": (None, math.nan),
    "inf now": (None, math.inf),
}


@contextlib.asynccontextmanager
async def serving(service, clients: int = 1, **server_options):
    """``(server, *clients)``: a started server and its keep-alive clients."""
    server = PolicyServer(service, **server_options)
    await server.start()
    connected = [PolicyClient(port=server.port) for _ in range(clients)]
    try:
        yield (server, *connected)
    finally:
        for client in connected:
            await client.close()
        await server.stop()


def raw_exchange(service, request: bytes) -> bytes:
    """Send raw bytes to a fresh server; everything it answers before it closes."""

    async def scenario():
        async with serving(service, clients=0) as (server,):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            try:
                writer.write(request)
                await writer.drain()
                return await asyncio.wait_for(reader.read(), timeout=5.0)
            finally:
                writer.close()

    return run_async(scenario())


class TestHostileRequests:
    @pytest.mark.parametrize(
        "signature", MALFORMED_SIGNATURES.values(), ids=MALFORMED_SIGNATURES.keys()
    )
    def test_malformed_signature_is_a_400_that_counts_nothing(
        self, published, signature
    ):
        config, table, registry = published
        service = DecisionService(registry, [config])
        fingerprint = config.fingerprint()

        async def scenario():
            async with serving(service) as (_, client):
                with pytest.raises(ServingError, match=r"\(400\)"):
                    await client.decide(fingerprint, signature)
                connection = client._writer
                assert service.counters_snapshot() == fallback.ServingCounters().snapshot()
                assert service.breaker_for(fingerprint).state == "closed"
                # The keep-alive connection survived the 400.
                good = await client.decide(fingerprint, table.signatures()[0])
                assert client._writer is connection
                assert good["tier"] == "table"
                assert good["counters"]["requests"] == 1

        run_async(scenario())

    def test_traversal_fingerprint_is_a_400_that_counts_nothing(self, published):
        config, table, registry = published
        service = DecisionService(registry, [config])
        fingerprint = config.fingerprint()
        signature = table.signatures()[0]

        async def scenario():
            async with serving(service) as (_, client):
                for hostile in (f"{fingerprint}/../{fingerprint}", "..", ""):
                    with pytest.raises(ServingError, match=r"\(400\)"):
                        await client.decide(hostile, signature)
                assert service.counters_snapshot() == fallback.ServingCounters().snapshot()
                return await client.decide(fingerprint, signature)

        assert run_async(scenario())["tier"] == "table"
        assert registry.corrupt == 0

    def test_malformed_requests_cannot_open_the_breaker(self, published, tmp_path):
        """Three bad bodies used to switch tier 2 off for everyone."""
        config, table, _ = published
        service = DecisionService(
            PolicyTableRegistry(tmp_path), [config], breaker_threshold=3
        )
        fingerprint = config.fingerprint()

        async def scenario():
            async with serving(service) as (_, client):
                for _ in range(3):
                    with pytest.raises(ServingError, match=r"\(400\)"):
                        await client.decide(fingerprint, [[1, 2]])
                return await client.decide(fingerprint, table.signatures()[0])

        payload = run_async(scenario())
        assert payload["tier"] == "planner"
        counters = service.counters_snapshot()
        assert counters["requests"] == 1
        assert counters["planner_failures"] == counters["breaker_open"] == 0
        assert service.breaker_for(fingerprint).state == "closed"

    @pytest.mark.parametrize(
        "weight, now", NON_FINITE_INPUTS.values(), ids=NON_FINITE_INPUTS.keys()
    )
    def test_non_finite_inputs_are_400s_and_cannot_open_the_breaker(
        self, published, tmp_path, weight, now
    ):
        """A ``NaN`` weight or ``Infinity`` clock used to reach tier 2 and
        count as a planner failure: three of them opened the breaker."""
        config, table, _ = published
        service = DecisionService(
            PolicyTableRegistry(tmp_path), [config], breaker_threshold=3
        )
        fingerprint = config.fingerprint()
        valid = off_table_signature(table)
        hostile = valid if weight is None else tuple(
            (row[0], weight, *row[2:]) for row in valid
        )

        async def scenario():
            async with serving(service) as (_, client):
                for _ in range(3):
                    with pytest.raises(ServingError, match=r"\(400\)"):
                        await client.decide(fingerprint, hostile, now)
                assert service.counters_snapshot() == fallback.ServingCounters().snapshot()
                return await client.decide(fingerprint, valid, 5.0)

        payload = run_async(scenario())
        assert payload["tier"] == "planner"
        counters = service.counters_snapshot()
        assert counters["requests"] == counters["planner_fallbacks"] == 1
        assert counters["planner_failures"] == counters["breaker_open"] == 0
        assert service.breaker_for(fingerprint).state == "closed"

    def test_unparseable_content_length_is_a_400_and_a_close(self, published):
        config, _, registry = published
        service = DecisionService(registry, [config])
        answer = raw_exchange(  # read to EOF: the server closed
            service, b"POST /decide HTTP/1.1\r\nContent-Length: abc\r\n\r\n"
        )
        assert answer.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in answer
        assert b"malformed request head" in answer
        assert service.counters_snapshot() == fallback.ServingCounters().snapshot()

    def test_body_nested_past_the_recursion_limit_is_a_400(self, published):
        config, _, registry = published
        service = DecisionService(registry, [config])
        body = b'{"fingerprint": "f", "signature": %s%s}' % (b"[" * 100_000, b"]" * 100_000)
        answer = raw_exchange(
            service,
            b"POST /decide HTTP/1.1\r\nConnection: close\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body),
        )
        assert answer.startswith(b"HTTP/1.1 400 ")
        assert service.counters_snapshot()["requests"] == 0

    @pytest.mark.parametrize("length", [-1, 1_000_001], ids=["negative", "oversized"])
    def test_unreadable_content_length_closes_without_reading_the_body(
        self, published, length
    ):
        config, _, registry = published
        service = DecisionService(registry, [config])
        answer = raw_exchange(
            service, b"POST /decide HTTP/1.1\r\nContent-Length: %d\r\n\r\n{}" % length
        )
        assert answer == b""
        assert service.counters_snapshot()["requests"] == 0


#: ``(parameter, value)`` a hostile row substitutes into a real prior point:
#: configurations no sender of the config can report.  A row names its
#: assignment by digest, so such a row is well formed and simply names no
#: prior point.  A 0-bit or 1e-300-bit filler packet used to spin a planner
#: thread forever inside LinkModel; the prior-point check keeps every such
#: row off the planner.
HOSTILE_PARAMETERS = [
    ("filler_packet_bits", 0.0),
    ("filler_packet_bits", -1.0),
    ("filler_packet_bits", 1e-300),
    ("filler_packet_bits", math.nan),
    ("link_rate_bps", 12_345.0),  # well-formed, just not a grid point
    ("link_rate_bps", math.nan),
    ("cross_packet_bits", 0.0),
    ("buffer_capacity_bits", math.inf),
]


class TestHostileSignatureParameters:
    def test_off_prior_rows_are_answered_by_tier3_and_never_reach_the_planner(
        self, published, tmp_path, monkeypatch
    ):
        config, table, _ = published
        service = DecisionService(
            PolicyTableRegistry(tmp_path), [config], planner_timeout=0.5
        )
        rebuilt: list[tuple] = []
        real_rebuild = fallback.belief_from_signature

        def rebuild(signature, *args, **kwargs):
            rebuilt.append(signature)
            return real_rebuild(signature, *args, **kwargs)

        monkeypatch.setattr(fallback, "belief_from_signature", rebuild)
        fingerprint = config.fingerprint()
        real = table.signatures()[0]
        point = config.prior.points_by_digest()[real[0][0]]
        signatures = [
            ((assignment_digest({**point, name: value}), 1.0, True, 4, True),)
            for name, value in HOSTILE_PARAMETERS
        ]
        # A hostile row behind a real one, an assignment the config never
        # had, and digests that name nothing at all.
        signatures.append(real[:1] + signatures[2])
        stranger = {
            "buffer_capacity_bits": 96000.0,
            "filler_packet_bits": 1e-300,
            "link_rate_bps": 12000.0,
        }
        signatures.append(((assignment_digest(stranger), 1.0, True, 4, True),))
        signatures.append((("0" * 16, 1.0, True, 4, True),))
        signatures.append((("not a digest", 1.0, True, 4, True),))
        threads = threading.active_count()
        for signature in signatures:
            started = time.monotonic()
            served = service.decide(fingerprint, signature)
            assert time.monotonic() - started < service.planner_timeout
            assert (served.status, served.tier) == ("ok", "default")
        counters = service.counters_snapshot()
        assert counters["requests"] == len(signatures) == 12
        assert counters["table_misses"] == counters["default_served"] == 12
        assert counters["planner_failures"] == counters["breaker_open"] == 0
        assert counters["planner_fallbacks"] == 0
        assert service.breaker_for(fingerprint).state == "closed"
        assert threading.active_count() == threads
        assert rebuilt == []
        # The real signature still plans.
        assert service.decide(fingerprint, real).tier == "planner"
        assert rebuilt == [real]

    def test_a_row_carrying_parameter_pairs_is_a_400(self, published, tmp_path):
        """The row shape before digests: refused by the transport, counted
        nowhere, and the connection still serves the digest row."""
        config, table, _ = published
        service = DecisionService(
            PolicyTableRegistry(tmp_path), [config], planner_timeout=0.5
        )
        fingerprint = config.fingerprint()
        real = table.signatures()[0]
        point = config.prior.points_by_digest()[real[0][0]]
        pairs_row = [[sorted(point.items()), *real[0][1:]]]

        async def scenario():
            async with serving(service) as (_, client):
                for _ in range(4):
                    with pytest.raises(ServingError, match=r"\(400\)"):
                        await client.decide(fingerprint, pairs_row)
                assert service.counters_snapshot() == fallback.ServingCounters().snapshot()
                return await client.decide(fingerprint, real)

        assert run_async(scenario())["tier"] == "planner"
        assert service.counters_snapshot()["requests"] == 1
        assert service.breaker_for(fingerprint).state == "closed"

    def test_a_config_without_a_prior_is_never_planned_live(self, published, tmp_path):
        config, table, _ = published
        bare = SenderConfig(top_k=config.top_k)
        service = DecisionService(PolicyTableRegistry(tmp_path), [bare])
        served = service.decide(bare.fingerprint(), table.signatures()[0])
        assert served.tier == "default" and served.known_config
        assert service.counters_snapshot()["planner_failures"] == 0


# ----------------------------------------- table hits on the event loop


def gate_planner(service, config, gate: threading.Event, wait: float = 5.0) -> list[int]:
    """Make ``config``'s live planner wait for ``gate`` before it plans.

    Returns the list the gated planner appends its thread id to, one entry
    per live plan.
    """
    threads: list[int] = []
    planner = config.build_planner()
    plan = planner.decide

    def gated(belief, now):
        threads.append(threading.get_ident())
        gate.wait(wait)
        return plan(belief, now)

    planner.decide = gated
    service._planners[config.fingerprint()] = planner
    return threads


def record_decides(service) -> list[tuple[int, bool, bool]]:
    """Wrap ``service.decide``; one ``(thread, resident_only, answered)`` per call."""
    calls: list[tuple[int, bool, bool]] = []
    decide = service.decide

    def recording(*args, **kwargs):
        served = decide(*args, **kwargs)
        calls.append(
            (threading.get_ident(), kwargs.get("resident_only", False), served is not None)
        )
        return served

    service.decide = recording
    return calls


def two_versions(config):
    """Two table versions of one config, and a signature both hold."""
    first, second = (
        precompute_policy_table(
            config, pilot_duration=5.0, burst_levels=levels, seed=seed
        )
        for levels, seed in (((0, 2), 2), ((0, 1, 2), 3))
    )
    common = sorted(set(first.signatures()) & set(second.signatures()))
    assert common, "the two versions share no signatures"
    return first, second, common[0]


class TestTableHitsOnTheLoop:
    """What answering resident-table hits on the event loop must not change."""

    def test_publish_and_reload_take_effect_on_the_next_request(self, tmp_path):
        config = fast_config()
        first, second, signature = two_versions(config)
        registry = PolicyTableRegistry(tmp_path)
        digests = [registry.publish(first).stem]
        service = DecisionService(registry, [config])
        fingerprint = config.fingerprint()
        calls = record_decides(service)
        load_threads: list[int] = []
        load_version = registry._load_version

        def recording_load(*args):
            load_threads.append(threading.get_ident())
            return load_version(*args)

        registry._load_version = recording_load

        async def scenario():
            seen = []
            async with serving(service) as (_, client):  # one keep-alive connection

                async def ask():
                    reply = await client.decide(fingerprint, signature)
                    seen.append((reply["tier"], reply["table_digest"], registry.loads))

                await ask()  # cold: the load runs in the pool
                await ask()  # resident: answered on the loop
                digests.append(registry.publish(second).stem)
                await ask()  # the very next reply is the new version's
                await ask()
                assert (await client.reload())["dropped"] == 1
                await ask()  # dropped from memory: loaded again, in the pool
            return threading.get_ident(), seen

        loop_thread, seen = run_async(scenario())
        old, new = digests
        assert old != new
        assert seen == [
            ("table", old, 1), ("table", old, 1),
            ("table", new, 2), ("table", new, 2),
            ("table", new, 3),
        ]
        # Every load ran off the loop; the two hits between loads ran on it.
        assert len(load_threads) == 3 and loop_thread not in load_threads
        assert [call for call in calls if call[1] and call[2]] == [(loop_thread, True, True)] * 2
        assert all(thread != loop_thread for thread, resident_only, _ in calls if not resident_only)
        counters = service.counters_snapshot()
        assert counters["requests"] == counters["table_hits"] == 5

    def test_corrupt_current_version_is_quarantined_and_the_planner_answers(
        self, tmp_path
    ):
        config = fast_config()
        table = precompute_policy_table(
            config, pilot_duration=5.0, burst_levels=(0, 2), seed=2
        )
        registry = PolicyTableRegistry(tmp_path)
        good = registry.publish(table)
        service = DecisionService(registry, [config])
        fingerprint = config.fingerprint()
        signature = table.signatures()[0]

        async def scenario():
            async with serving(service) as (_, client):
                replies = [await client.decide(fingerprint, signature)]
                # A torn version lands and CURRENT names it, while the good
                # version is still the one in memory.
                torn = good.with_name("0123456789abcdef.json")
                torn.write_bytes(good.read_bytes()[:100])
                good.with_name("CURRENT").write_text(torn.stem + "\n")
                replies.append(await client.decide(fingerprint, signature))
                replies.append(await client.decide(fingerprint, signature))
            return replies

        replies = run_async(scenario())
        assert [reply["tier"] for reply in replies] == ["table", "planner", "planner"]
        assert "table_digest" not in replies[1]
        assert (tmp_path / "quarantine" / "0123456789abcdef.json").exists()
        counters = service.counters_snapshot()
        assert counters["table_corrupt"] == registry.corrupt == 1
        assert counters["requests"] == 3
        assert (counters["table_hits"], counters["planner_fallbacks"]) == (1, 2)

    def test_with_an_injector_nothing_is_answered_on_the_loop(self, published):
        config, table, registry = published
        fingerprint = config.fingerprint()
        assert registry.lookup(fingerprint) is not None  # resident from the start
        requests = 10
        injector = ServingFaultInjector(
            FaultPlan(seed=5, exception_rate=0.5, corrupt=3), requests
        )
        service = DecisionService(registry, [config], injector=injector)
        calls = record_decides(service)
        known = table.signatures()
        stream = [
            off_table_signature(table) if index % 3 == 2 else known[index % len(known)]
            for index in range(requests)
        ]

        async def scenario():
            async with serving(service) as (_, client):
                return threading.get_ident(), [
                    await client.decide(fingerprint, signature) for signature in stream
                ]

        loop_thread, replies = run_async(scenario())
        assert all(reply["status"] == "ok" for reply in replies)
        assert not any(answered for _, resident_only, answered in calls if resident_only)
        # Every fault is injected inside a full call, and those ran in the pool.
        full = [thread for thread, resident_only, _ in calls if not resident_only]
        assert len(full) == requests and loop_thread not in full
        assert service.counters_snapshot()["table_corrupt"] == 3

    def test_probes_and_hits_answer_while_a_planner_request_hangs(self, published):
        config, table, registry = published
        service = DecisionService(registry, [config], planner_timeout=10.0)
        fingerprint = config.fingerprint()
        gate = threading.Event()
        planner_threads = gate_planner(service, config, gate)

        async def scenario():
            async with serving(service, clients=2) as (_, client, slow_client):
                try:
                    await client.decide(fingerprint, table.signatures()[0])
                    hanging = asyncio.create_task(
                        slow_client.decide(fingerprint, off_table_signature(table))
                    )
                    for _ in range(500):  # until the live plan is really running
                        if planner_threads:
                            break
                        await asyncio.sleep(0.01)
                    status, health = await asyncio.wait_for(client.get("/healthz"), 2.0)
                    hit = await asyncio.wait_for(
                        client.decide(fingerprint, table.signatures()[0]), 2.0
                    )
                    still_hanging = not hanging.done()
                finally:
                    gate.set()
                slow = await asyncio.wait_for(hanging, 10.0)
            return threading.get_ident(), status, health, hit, still_hanging, slow

        loop_thread, status, health, hit, still_hanging, slow = run_async(scenario())
        assert still_hanging
        assert status == 200 and health["status"] == "ok"
        assert hit["tier"] == "table"
        assert slow["tier"] == "planner"
        assert planner_threads and loop_thread not in planner_threads

    def test_mixed_stream_keeps_the_counter_identity(self, published):
        config, table, registry = published
        service = DecisionService(registry, [config])
        fingerprint = config.fingerprint()
        known = table.signatures()
        stream = []
        for index in range(12):
            stream += [known[index % len(known)]]
            if index % 3 == 0:
                stream += [off_table_signature(table, bump=1 + index)]
            if index % 4 == 0:
                stream += [[[1, 2]]]  # a 400: counts nothing

        async def scenario():
            tiers = []
            async with serving(service, max_pending=2) as (server, client):
                for signature in stream:
                    try:
                        reply = await client.decide(fingerprint, signature)
                    except ServingError:
                        continue
                    tiers.append((reply["status"], reply["tier"]))
                # Saturated admission control sheds even a hit on a table
                # that is in memory: the check sits in front of the loop path.
                assert registry.is_resident(fingerprint)
                server._pending = server.max_pending
                shed = await client.decide(fingerprint, known[0])
                server._pending = 0
                tiers.append((shed["status"], shed["tier"]))
            return tiers

        tiers = run_async(scenario())
        assert tiers.count(("ok", "table")) == 12
        assert tiers.count(("ok", "planner")) == 4
        assert tiers[-1] == ("overloaded", "default")
        counters = service.counters_snapshot()
        assert counters["requests"] == len(tiers) == 17
        assert counters["shed"] == 1
        assert (
            counters["table_hits"]
            + counters["planner_fallbacks"]
            + counters["default_served"]
            == counters["requests"] - counters["shed"]
        )


# ------------------------------------------------------- chaos acceptance


class TestChaosAcceptance:
    def test_every_request_gets_a_valid_decision_and_counters_match(
        self, published
    ):
        """The headline robustness claim, checked against a reference walk.

        A seeded fault plan (exceptions, hangs, in-memory corruption) runs
        over a mixed table-hit / off-table request stream.  Every response
        must be a valid decision (100 % availability), a gated fraction
        must come from the real tiers rather than the safe default, and
        every per-tier counter must equal the value predicted by an
        independent simulation of the plan — determinism, not luck.
        """
        config, table, registry = published
        requests = 40
        plan = FaultPlan(
            seed=11, exception_rate=0.15, hangs=2, corrupt=4, hang_seconds=0.6
        )
        injector = ServingFaultInjector(plan, requests)
        service = DecisionService(
            registry,
            [config],
            planner_timeout=0.2,
            breaker_threshold=3,
            breaker_cooldown=300.0,  # once open, stays open: predictable
            injector=injector,
        )
        known = table.signatures()
        off = off_table_signature(table)
        stream = [
            off if index % 5 == 4 else known[index % len(known)]
            for index in range(requests)
        ]

        fingerprint = config.fingerprint()
        results = [service.decide(fingerprint, signature) for signature in stream]

        # 100% availability: every request got a valid decision.
        for served in results:
            assert served.status == "ok"
            assert served.tier in ("table", "planner", "default")
            assert served.decision.action.delay >= 0.0

        # Reference walk: predict every counter from the plan alone.
        expected = {
            "requests": requests, "table_hits": 0, "table_misses": 0,
            "table_corrupt": 0, "planner_fallbacks": 0, "planner_failures": 0,
            "breaker_open": 0, "default_served": 0, "shed": 0, "errors": 0,
        }
        consecutive = 0
        breaker_open = False
        for index, signature in enumerate(stream):
            faults = injector.faults_for(index)
            if faults.corrupt:
                expected["table_corrupt"] += 1
                hit = False
            else:
                hit = signature in known
            if hit:
                expected["table_hits"] += 1
                continue
            expected["table_misses"] += 1
            if breaker_open:
                expected["breaker_open"] += 1
                expected["default_served"] += 1
                continue
            if faults.planner_kind is not None:
                expected["planner_failures"] += 1
                expected["default_served"] += 1
                consecutive += 1
                if consecutive >= 3:
                    breaker_open = True
            else:
                expected["planner_fallbacks"] += 1
                consecutive = 0

        assert service.counters_snapshot() == expected
        counters = service.counters_snapshot()
        assert (
            counters["table_hits"]
            + counters["planner_fallbacks"]
            + counters["default_served"]
            == requests
        )
        # Degraded-mode quality gate: most answers avoid the safe default.
        assert (counters["table_hits"] + counters["planner_fallbacks"]) >= 0.7 * requests

    def test_injector_rejects_process_level_faults(self):
        with pytest.raises(ConfigurationError, match="no per-request meaning"):
            ServingFaultInjector(FaultPlan(kills=1), 10)
        from repro.runner.faults import PointFault

        with pytest.raises(ConfigurationError, match="no per-request meaning"):
            ServingFaultInjector(
                FaultPlan(targets=(PointFault(kind="kill_sweep", index=0),)), 10
            )

    def test_chaos_is_replayable(self):
        plans = [
            ServingFaultInjector(
                FaultPlan(seed=9, exception_rate=0.2, corrupt=3, hangs=1), 30
            )
            for _ in range(2)
        ]
        assert plans[0].expected_corrupt() == plans[1].expected_corrupt()
        assert plans[0].expected_planner_faults() == plans[1].expected_planner_faults()
        assert plans[0].assignment == plans[1].assignment


# ----------------------------------------------------------------- the CLI


class TestServingCli:
    def run_cli(self, *args, cwd=None):
        return subprocess.run(
            [sys.executable, "-m", "repro.serving", *args],
            capture_output=True,
            text=True,
            cwd=cwd or REPO_ROOT,
            env={
                **__import__("os").environ,
                "PYTHONPATH": str(REPO_ROOT / "src"),
            },
        )

    def test_publish_then_chaos_workload_is_clean(self, tmp_path):
        registry = tmp_path / "registry"
        published = self.run_cli(
            "publish", "--registry", str(registry), "--preset", "small", "--seed", "2"
        )
        assert published.returncode == 0, published.stdout + published.stderr
        assert "published preset 'small'" in published.stdout

        workload = self.run_cli(
            "workload",
            "--registry", str(registry),
            "--preset", "small",
            "--requests", "30",
            "--fallback-fraction", "0.2",
            "--planner-timeout", "0.5",
            "--inject-faults", "exception=0.1,corrupt=2,seed=3",
        )
        assert workload.returncode == 0, workload.stdout + workload.stderr
        assert "errors: 0" in workload.stdout
        assert "table_hits:" in workload.stdout

    def test_workload_without_published_table_exits_2(self, tmp_path):
        result = self.run_cli(
            "workload", "--registry", str(tmp_path / "empty"), "--requests", "5"
        )
        assert result.returncode == 2
        assert "no published table" in result.stderr


# ----------------------------------------------------- payload round trips


class TestWireFormat:
    def test_decision_payload_round_trip_is_exact(self, published):
        _, table, _ = published
        for signature in table.signatures():
            decision = table.decision_for(signature)
            restored = decision_from_payload(
                json.loads(json.dumps(decision_to_payload(decision)))
            )
            assert restored == decision

    def test_served_payload_includes_counters_and_tier(self, published):
        config, table, registry = published
        service = DecisionService(registry, [config])
        served = service.decide(config.fingerprint(), table.signatures()[0])
        payload = served.to_payload(service.counters_snapshot())
        assert payload["tier"] == "table"
        assert payload["counters"]["requests"] == 1
        assert payload["decision"]["delay"] == served.decision.action.delay


# ------------------------------------------------- transport contract


async def read_reply(reader: asyncio.StreamReader) -> tuple[bytes, bytes]:
    """One HTTP reply off ``reader``: ``(head, body)``."""
    head = await reader.readuntil(b"\r\n\r\n")
    length = next(
        int(line.split(b":", 1)[1])
        for line in head.split(b"\r\n")
        if line.lower().startswith(b"content-length:")
    )
    return head, await reader.readexactly(length)


async def read_to_close(reader: asyncio.StreamReader) -> bytes:
    """Everything the peer sends before it closes (a reset reads as a close)."""
    received = b""
    try:
        while chunk := await asyncio.wait_for(reader.read(65_536), timeout=5.0):
            received += chunk
    except ConnectionResetError:
        pass
    return received


def decide_request(fingerprint: str, signature, **headers: str) -> bytes:
    body = json.dumps({"fingerprint": fingerprint, "signature": signature}).encode()
    extra = "".join(f"{name}: {value}\r\n" for name, value in headers.items())
    return (
        f"POST /decide HTTP/1.1\r\nContent-Length: {len(body)}\r\n{extra}\r\n"
    ).encode() + body


async def wait_until(condition, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        await asyncio.sleep(0.01)


class TestTransportContract:
    """What the server's connection handling keeps, whatever reads the bytes."""

    def test_pipelined_requests_are_answered_in_request_order(self, published):
        config, table, registry = published
        service = DecisionService(registry, [config], planner_timeout=10.0)
        fingerprint = config.fingerprint()
        gate = threading.Event()
        planner_threads = gate_planner(service, config, gate)

        async def scenario():
            async with serving(service) as (_, client):
                await client.decide(fingerprint, table.signatures()[0])  # resident now
                reader, writer = await asyncio.open_connection("127.0.0.1", client.port)
                try:
                    # One write: a live plan, then a hit the loop could answer at once.
                    writer.write(
                        decide_request(fingerprint, off_table_signature(table))
                        + decide_request(fingerprint, table.signatures()[0])
                    )
                    await writer.drain()
                    await wait_until(lambda: planner_threads)
                    await asyncio.sleep(0.1)  # time for a wrongly ordered reply to leave
                    gate.set()
                    first = await asyncio.wait_for(read_reply(reader), 10.0)
                    second = await asyncio.wait_for(read_reply(reader), 10.0)
                finally:
                    gate.set()
                    writer.close()
            return [json.loads(body)["tier"] for _, body in (first, second)]

        assert run_async(scenario()) == ["planner", "table"]

    @pytest.mark.parametrize("terminated", [False, True], ids=["unterminated", "terminated"])
    def test_a_70_kb_head_is_closed_unanswered(self, published, terminated):
        config, _, registry = published
        service = DecisionService(registry, [config])
        head = b"POST /decide HTTP/1.1\r\nX-Padding: " + b"a" * 70_000
        if terminated:
            head += b"\r\nContent-Length: 2\r\n\r\n{}"

        async def scenario():
            async with serving(service, clients=0) as (server,):
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                try:
                    writer.write(head)
                    await writer.drain()
                    return await read_to_close(reader)
                finally:
                    writer.close()

        assert run_async(scenario()) == b""
        assert service.counters_snapshot() == fallback.ServingCounters().snapshot()

    def test_a_client_leaving_mid_plan_leaves_nothing_pending(self, published):
        config, table, registry = published
        service = DecisionService(registry, [config], planner_timeout=10.0)
        fingerprint = config.fingerprint()
        gate = threading.Event()
        planner_threads = gate_planner(service, config, gate)

        async def scenario():
            async with serving(service) as (server, client):
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                try:
                    writer.write(decide_request(fingerprint, off_table_signature(table)))
                    await writer.drain()
                    await wait_until(lambda: planner_threads)
                    in_flight = server.pending
                    writer.close()
                    await writer.wait_closed()
                    await asyncio.sleep(0.05)  # the server sees the close mid-plan
                finally:
                    gate.set()
                await wait_until(lambda: server.pending == 0)
                reply = await asyncio.wait_for(
                    client.decide(fingerprint, table.signatures()[0]), 5.0
                )
            return in_flight, reply

        in_flight, reply = run_async(scenario())
        assert in_flight == 1
        assert reply["tier"] == "table"


class TestReplyBytes:
    """A served reply is ``_render_response`` of its payload, byte for byte."""

    @pytest.mark.parametrize("keep_alive", [True, False], ids=["keep-alive", "close"])
    @pytest.mark.parametrize("tier", ["table", "planner", "default", "overloaded"])
    def test_every_tier_renders_the_oracle_bytes(self, published, tier, keep_alive):
        from repro.serving.server import _render_response, _render_served

        config, table, registry = published
        service = DecisionService(registry, [config])
        fingerprint = config.fingerprint()
        if tier == "table":
            served = service.decide(fingerprint, table.signatures()[0])
        elif tier == "planner":
            served = service.decide(fingerprint, off_table_signature(table))
        elif tier == "default":
            served = service.decide("no-such-config", table.signatures()[0])
        else:
            served = service.shed(fingerprint)
        assert (served.status, served.tier) == (
            ("overloaded", "default") if tier == "overloaded" else ("ok", tier)
        )
        assert (served.decision_json is not None) == (tier == "table")
        counters = service.counters_snapshot()
        assert _render_served(served, counters, keep_alive=keep_alive) == _render_response(
            200, served.to_payload(counters), keep_alive=keep_alive
        )

    def test_a_table_hit_on_the_wire_is_the_oracle_reply(self, published):
        from repro.serving.server import _render_response

        config, table, registry = published
        service = DecisionService(registry, [config])
        fingerprint = config.fingerprint()
        signature = table.signatures()[0]
        registry.lookup(fingerprint)  # resident: the reply is made on the loop
        answer = raw_exchange(
            service, decide_request(fingerprint, signature, Connection="close")
        )
        served = fallback.ServedDecision(
            status="ok",
            tier="table",
            decision=table.decision_for(signature),
            fingerprint=fingerprint,
            known_config=True,
            table_digest=registry.current_digest(fingerprint),
        )
        assert answer == _render_response(
            200, served.to_payload(service.counters_snapshot()), keep_alive=False
        )

    def test_a_republish_replaces_the_kept_decision_text(self, published, tmp_path):
        from repro.api.policy import PolicyTable

        config, table, _ = published
        registry = PolicyTableRegistry(tmp_path)
        registry.publish(table)
        payload = table.to_payload()
        for entry in payload["entries"]:
            entry["horizon"] += 1.0
        changed = PolicyTable.from_payload(payload)
        signature = table.signatures()[0]
        service = DecisionService(registry, [config])
        fingerprint = config.fingerprint()

        async def scenario():
            async with serving(service) as (_, client):
                replies = [await client.decide(fingerprint, signature) for _ in range(2)]
                registry.publish(changed)
                replies.append(await client.decide(fingerprint, signature))
            return replies

        cold, warm, republished = run_async(scenario())
        old = decision_to_payload(table.decision_for(signature))
        new = decision_to_payload(changed.decision_for(signature))
        assert old != new
        assert [cold["decision"], warm["decision"]] == [json.loads(json.dumps(old))] * 2
        assert republished["decision"] == json.loads(json.dumps(new))
        assert republished["table_digest"] != warm["table_digest"]

    def test_a_table_keeps_one_text_per_decision_it_serves(self, published):
        from repro.api.policy import PolicyTable

        _, table, _ = published
        copy = PolicyTable.from_payload(table.to_payload())
        signature = copy.signatures()[0]
        decision = copy.decision_for(signature)
        text = copy.decision_json(decision)
        assert text == json.dumps(decision_to_payload(decision), sort_keys=True)
        assert copy.decision_json(decision) is text
        # A decision stored in its place has its own text.
        replacement = copy.decision_for(copy.signatures()[-1])
        assert decision_to_payload(replacement) != decision_to_payload(decision)
        copy._store(signature, replacement)
        assert copy.decision_json(copy.decision_for(signature)) == json.dumps(
            decision_to_payload(replacement), sort_keys=True
        )
        # Decisions the table does not hold are rendered, never kept past its size.
        for _ in range(3 * copy.size):
            foreign = decision_from_payload(decision_to_payload(decision))
            assert copy.decision_json(foreign) == text
            assert len(copy._decision_json) <= copy.size


# --------------------------------------------------- client reconnection


@contextlib.asynccontextmanager
async def closing_server(drop_first: bool = False):
    """A raw server answering each request with ``Connection: close`` and
    closing; with ``drop_first`` the first connection closes unanswered."""
    connections = 0

    async def handle(reader, writer):
        nonlocal connections
        connections += 1
        try:
            head = await reader.readuntil(b"\r\n\r\n")
            length = next(
                (
                    int(line.split(b":", 1)[1])
                    for line in head.split(b"\r\n")
                    if line.lower().startswith(b"content-length:")
                ),
                0,
            )
            await reader.readexactly(length)
            if not (drop_first and connections == 1):
                body = json.dumps({"status": "ok", "connection": connections}).encode()
                writer.write(
                    b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
                    % (len(body), body)
                )
                await writer.drain()
        finally:
            writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    try:
        yield server.sockets[0].getsockname()[1]
    finally:
        server.close()
        await server.wait_closed()


class TestClientReconnects:
    def test_three_calls_to_a_server_that_closes_after_every_reply(self):
        async def scenario():
            async with closing_server() as port:
                client = PolicyClient(port=port)
                try:
                    return [await client.get("/healthz") for _ in range(3)]
                finally:
                    await client.close()

        replies = run_async(scenario())
        assert replies == [(200, {"status": "ok", "connection": n}) for n in (1, 2, 3)]

    def test_a_dropped_request_raises_and_the_next_call_reconnects(self):
        async def scenario():
            async with closing_server(drop_first=True) as port:
                client = PolicyClient(port=port)
                try:
                    with pytest.raises(ServingError, match="closed the connection"):
                        await client.get("/healthz")
                    return await client.get("/healthz")
                finally:
                    await client.close()

        assert run_async(scenario()) == (200, {"status": "ok", "connection": 2})
