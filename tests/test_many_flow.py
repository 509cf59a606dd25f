"""Tests for the ``many_flow_contention`` scenario and its determinism.

The headline guarantee: a seeded contention point is *byte-identical*
across the serial and parallel execution backends — many-flow
fairness numbers are a property of the spec, never of the machinery that
ran it.
"""

from __future__ import annotations

import json

import pytest

from repro.baselines.window import WindowSender
from repro.corpus import CorpusStore
from repro.errors import ConfigurationError
from repro.runner import ScenarioSpec, run_specs
from repro.runner.registry import DEFAULT_REGISTRY
from repro.runner.scenarios import many_flow_contention
from repro.runner.spec import grid
from repro.sim.engine import Simulator


def run_point(**params):
    spec = ScenarioSpec("many_flow_contention", params=params)
    return DEFAULT_REGISTRY.run_point(spec)


class TestScenarioValidation:
    def test_rejects_bad_flow_counts(self):
        with pytest.raises(ConfigurationError):
            many_flow_contention(flows=0)
        with pytest.raises(ConfigurationError):
            many_flow_contention(flows=4, isender_flows=5)
        with pytest.raises(ConfigurationError):
            many_flow_contention(flows=4, isender_flows=-1)

    def test_rejects_unknown_mix(self):
        with pytest.raises(ConfigurationError, match="unknown sender kind"):
            many_flow_contention(flows=4, mix="reno,vegas")
        with pytest.raises(ConfigurationError, match="at least one sender"):
            many_flow_contention(flows=4, isender_flows=0, mix="")

    def test_all_isender_flows_need_no_mix(self):
        metrics = run_point(
            flows=2, isender_flows=2, mix="", duration=4.0, policy="none"
        )
        assert metrics["isender_flows"] == 2.0
        assert metrics["goodput_baseline_bps"] == 0.0


class TestScenarioMetrics:
    def test_baseline_contention_point(self):
        metrics = run_point(flows=8, isender_flows=0, duration=8.0)
        assert metrics["flows"] == 8.0
        assert 0.0 < metrics["jain_index"] <= 1.0
        assert metrics["total_goodput_bps"] > 0.0
        assert 0.0 < metrics["utilization"] <= 1.0
        assert metrics["min_flow_goodput_bps"] <= metrics["max_flow_goodput_bps"]
        assert metrics["demux_ignored"] == 0

    def test_per_flow_metrics_opt_in(self):
        base = run_point(flows=4, isender_flows=0, duration=4.0)
        assert not any(key.startswith("flow_") for key in base)
        detailed = run_point(
            flows=4, isender_flows=0, duration=4.0, per_flow_metrics=True
        )
        per_flow = [key for key in detailed if key.startswith("flow_")]
        assert len(per_flow) == 4
        assert sum(detailed[key] for key in per_flow) == pytest.approx(
            detailed["total_goodput_bps"]
        )

    def test_runs_over_a_corpus_trace(self, tmp_path):
        store = CorpusStore(tmp_path)
        store.register_generator(
            "steady", "diurnal", {"duration": 30.0, "jitter": 0.0}, seed=0
        )
        metrics = run_point(
            flows=4,
            isender_flows=0,
            duration=8.0,
            trace="steady",
            corpus_dir=str(tmp_path),
        )
        assert metrics["total_goodput_bps"] > 0.0

    def test_config_fingerprint_tracks_trace_content(self, tmp_path):
        store = CorpusStore(tmp_path)
        store.register_generator("a", "diurnal", {"duration": 30.0}, seed=0)
        store.register_generator("b", "diurnal", {"duration": 30.0}, seed=0)
        store.register_generator("c", "diurnal", {"duration": 30.0}, seed=5)
        entry = DEFAULT_REGISTRY.get("many_flow_contention")

        def fingerprint(trace):
            params = {"trace": trace, "corpus_dir": str(tmp_path), "isender_flows": 0}
            return entry.config_factory(entry.effective_params(params)).fingerprint()

        # Same content under different names keys identically; different
        # content (another seed) does not.
        assert fingerprint("a") == fingerprint("b")
        assert fingerprint("a") != fingerprint("c")


class _Built(Exception):
    """Stops a scenario once its network is wired, before it runs."""


class TestNetworkAddWalksOnce:
    """128 senders share one bottleneck graph: ``Network.add`` walks it once
    and attaches exactly what a full walk from every root would, in the
    same order."""

    @staticmethod
    def full_walk_order(roots):
        """Every root's whole reachable graph, first sight kept, in order."""
        order: dict[int, object] = {}
        for root in roots:
            seen: set[int] = set()
            stack = [root]
            while stack:
                element = stack.pop()
                if id(element) in seen:
                    continue
                seen.add(id(element))
                order.setdefault(id(element), element)
                if element.downstream is not None:
                    stack.append(element.downstream)
                stack.extend(element.children())
        return list(order.values())

    def test_128_flow_build_attaches_the_full_walk_once(self, monkeypatch):
        from repro.sim import element as element_module

        walk = element_module._walk
        yields: list[object] = []
        roots: list[object] = []
        built: list[object] = []

        def counting_walk(*args):
            for element in walk(*args):
                yields.append(element)
                yield element

        def add(network, *elements):
            roots.extend(elements)
            network_add(network, *elements)

        def run(network, until=None, max_events=None):
            built.append(network)
            raise _Built

        network_add = element_module.Network.add
        monkeypatch.setattr(element_module, "_walk", counting_walk)
        monkeypatch.setattr(element_module.Network, "add", add)
        monkeypatch.setattr(element_module.Network, "run", run)
        with pytest.raises(_Built):
            many_flow_contention(flows=128, isender_flows=4, duration=1.0)
        (network,) = built

        expected = self.full_walk_order(roots)
        assert len(roots) == 128
        assert network.elements == expected
        assert len(yields) <= len(network.elements) + len(roots)

        started = []
        for element in network.elements:
            monkeypatch.setattr(
                element, "start", lambda element=element: started.append(element)
            )
        network.start()
        assert started == expected


class TestTimerMoveChangesNoOutcome:
    """`WindowSender._arm_rto` moves a live timer with `Simulator.reschedule`.

    Cancel + schedule, the way it used to re-arm, must give the same metrics
    bytes — `events_processed` included, so no stale fire may be counted.
    """

    def test_16_flow_point_matches_cancel_and_schedule(self, monkeypatch):
        params = {"flows": 16, "isender_flows": 0, "duration": 8.0}
        moves = {"in_place": 0}
        reschedule = Simulator.reschedule

        def counting_reschedule(sim, event, time):
            moved = reschedule(sim, event, time)
            moves["in_place"] += moved is event
            return moved

        monkeypatch.setattr(Simulator, "reschedule", counting_reschedule)
        moved = json.dumps(run_point(**params), sort_keys=True)
        assert moves["in_place"] > 0

        def rearm(sender):
            if sender._rto_timer is not None:
                sender._rto_timer.cancel()
                sender._rto_timer = None
            if sender.outstanding:
                sender._rto_timer = sender.sim.schedule(sender.rto, sender._handle_timeout)

        monkeypatch.setattr(WindowSender, "_arm_rto", rearm)
        rearmed = json.dumps(run_point(**params), sort_keys=True)
        assert moved == rearmed


class TestCrossBackendDeterminism:
    def test_64_flow_point_is_byte_identical_across_backends(self):
        """The issue's contract: serial and parallel runs of one seeded
        64-flow contention point serialize to identical bytes."""
        specs = grid(
            "many_flow_contention",
            seeds=(7,),
            base={"duration": 6.0, "isender_flows": 0},
            flows=(64,),
        )
        outputs = {
            backend: run_specs(specs, backend=backend, workers=2).to_json()
            for backend in ("serial", "parallel")
        }
        assert outputs["serial"] == outputs["parallel"]

    def test_64_flow_fused_point_is_byte_identical(self):
        """The same contract with four array-engine ISenders (``fused``
        spelling, ``policy=cache``) among the 64 flows."""
        specs = grid(
            "many_flow_contention",
            seeds=(7,),
            base={
                "duration": 3.0,
                "isender_flows": 4,
                "belief_backend": "fused",
                "rollout_backend": "fused",
                "policy": "cache",
            },
            flows=(64,),
        )
        outputs = {
            backend: run_specs(specs, backend=backend, workers=2).to_json()
            for backend in ("serial", "parallel")
        }
        assert outputs["serial"] == outputs["parallel"]

    def test_repeat_runs_are_identical(self):
        specs = grid("many_flow_contention", seeds=(3,), base={"duration": 4.0}, flows=(16,))
        first = run_specs(specs).to_json()
        second = run_specs(specs).to_json()
        assert first == second
