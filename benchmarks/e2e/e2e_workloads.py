"""The six reference workloads of the end-to-end benchmark.

Each workload drives ``repro`` only through public entry points — the
serial scenario runner, the result cache, the loopback policy server and
its client — exactly as a user would, and checks what comes back.

``--seed`` decides the *order* in which a workload presents its inputs
(α order, grid order, signature shuffle).  The simulated scenarios keep
their pinned scenario seeds: the simulated work of a Figure-3 point moves
by ±8 % from one scenario seed to the next, on top of the host noise the
regression bounds already have to absorb, and pinned inputs are what lets
``expected.json`` hold every simulated statistic to the bit.
"""

from __future__ import annotations

import asyncio
import json
import random
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from e2e_pace import host_pace
from e2e_stats import metrics_digest

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


@dataclass
class PassResult:
    """One timed pass: how much work, how long, and what went wrong.

    Every duration is raw host time; ``paces`` are the host-pace samples
    taken between the pass's stretches, from which the run's host-speed
    factor is worked out (see e2e_pace).
    """

    work: float  # work units completed (see Workload.work_unit)
    work_wall: float  # seconds spent completing them
    #: Operation times (see Workload.operation), grouped in the blocks
    #: between two pace samples.
    op_blocks: list[list[float]]
    wall: float  # seconds the pass spent in the program (pace sampling excluded)
    paces: list[float]
    attempted: int
    failures: list[str] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)  # workload-side counters


class Workload:
    """Base class: ``setup`` once, then ``run_pass`` repeatedly, then ``close``."""

    name = ""
    why = ""
    #: What ``work_per_s`` counts on this workload.
    work_unit = ""
    #: What ``op_p50_ms`` / ``op_p90_ms`` time on this workload.
    operation = ""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Import, build, publish, start — and run the quick-size warm-up."""
        raise NotImplementedError

    def run_pass(
        self, quick: bool = False, tracer: Any = None, paced: bool = True
    ) -> PassResult:
        """One pass; ``paced=False`` (the warm-up) skips the host-pace samples."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop whatever ``setup`` started."""


def _pass_span(tracer: Any):
    """The harness's root span around one traced pass (no-op untraced)."""
    return _Span(tracer, "bench.pass") if tracer is not None else nullcontext()


class _Span:
    def __init__(self, tracer: Any, name: str, handoff: bool = False) -> None:
        self.tracer, self.name, self.handoff = tracer, name, handoff

    def __enter__(self) -> None:
        self.record = self.tracer.begin(self.name, self.handoff)

    def __exit__(self, *exc_info: Any) -> None:
        self.tracer.end(self.record)


def sample_pace(paces: list[float], paced: bool) -> None:
    """Append one host-pace sample (the unpaced warm-up pass takes none)."""
    if paced:
        paces.append(host_pace())


def load_expected() -> dict[str, str]:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def check_points(store: Any, expected: dict[str, str], failures: list[str]) -> None:
    """Compare each point's metric digest with the pinned one."""
    for point in store:
        label = point.spec.label
        digest = metrics_digest(point.metrics)
        if expected.get(label) != digest:
            failures.append(
                f"{label}: digest {digest[:16]} != expected "
                f"{str(expected.get(label))[:16]}"
            )


# ------------------------------------------------------------------ scenarios


class ScenarioWorkload(Workload):
    """Scenario points through ``SerialRunner().run``, one call per point."""

    work_unit = "simulated second"
    scenario = ""
    scenario_seed = 0
    #: Parameters shared by every point; ``duration`` is the full length.
    base: dict[str, Any] = {}
    #: Full-length parameters the quick size divides by ten.
    scaled = ("duration",)
    axes: dict[str, list] = {}

    def specs(self, quick: bool) -> list:
        from repro.runner.spec import grid

        base = dict(self.base)
        if quick:
            for key in self.scaled:
                base[key] = base[key] / 10.0
        specs = grid(self.scenario, seeds=(self.scenario_seed,), base=base, **self.axes)
        random.Random(self.seed).shuffle(specs)
        return specs

    def setup(self) -> None:
        self.expected = load_expected()
        self.run_pass(quick=True, paced=False)

    def run_pass(
        self, quick: bool = False, tracer: Any = None, paced: bool = True
    ) -> PassResult:
        from repro.runner.backends import SerialRunner

        specs = self.specs(quick)
        stores = []
        walls: list[float] = []
        paces: list[float] = []
        sample_pace(paces, paced)
        with _pass_span(tracer):
            for index, spec in enumerate(specs):
                if tracer is not None:
                    tracer.op = index
                started = time.perf_counter()
                stores.append(SerialRunner().run([spec]))
                walls.append(time.perf_counter() - started)
                sample_pace(paces, paced)
        failures: list[str] = []
        for store in stores:
            check_points(store, self.expected, failures)
        wall = sum(walls)
        return PassResult(
            work=sum(spec.params["duration"] for spec in specs),
            work_wall=wall,
            op_blocks=[[wall]],
            wall=wall,
            paces=paces,
            attempted=len(specs),
            failures=failures,
        )


class Fig3Alpha4(ScenarioWorkload):
    name = "fig3_alpha4"
    why = (
        "the paper's Figure-3 sweep at full length on the fused engines: one big "
        "belief, rollout-dominated, so an inference or rollout change must show here"
    )
    operation = "one four-alpha Figure-3 experiment"
    scenario = "figure3_alpha"
    scenario_seed = 1
    base = {
        "duration": 300.0,
        "switch_interval": 100.0,
        "belief_backend": "fused",
        "rollout_backend": "fused",
        "policy": "none",
    }
    scaled = ("duration", "switch_interval")
    axes = {"alpha": [0.9, 1.0, 2.5, 5.0]}


class ContentionTcp128(ScenarioWorkload):
    name = "contention_tcp128"
    why = (
        "128 classic TCP flows and no inference at all: the control for any "
        "inference change and the workload where the event loop and elements show"
    )
    operation = "one 128-flow contention point"
    scenario = "many_flow_contention"
    base = {"duration": 60.0, "flows": 128, "isender_flows": 0, "mix": "reno,cubic,aimd"}


class ContentionIsender32(ScenarioWorkload):
    name = "contention_isender32"
    why = (
        "32 inference senders among 128 flows with the policy cache on: many small "
        "beliefs, update-dominated, so a gain for one big belief at their cost shows"
    )
    operation = "one 128-flow contention point"
    scenario = "many_flow_contention"
    base = {
        "duration": 20.0,
        "flows": 128,
        "isender_flows": 32,
        "mix": "reno,cubic,aimd",
        "belief_backend": "fused",
        "rollout_backend": "fused",
        "policy": "cache",
    }


# ---------------------------------------------------------------- sweep cache


class SweepCache(ScenarioWorkload):
    name = "sweep_cache"
    why = (
        "the runner CLI's default cached sweep: cold is the scalar reference engine "
        "plus runner overhead, warm is the runner's key/load/store path alone"
    )
    work_unit = "cold sweep point"
    operation = "one warm replay of the 8-point grid"
    replays = 1_000
    #: Warm replays per block; a host-pace sample follows each.
    block = 250
    #: Passes run so far (each gets a fresh cache directory).
    passes = 0

    def specs(self, quick: bool) -> list:
        from repro.runner.spec import grid

        # figure3_alpha's own defaults: 90 sim-s, scalar engines, no policy.
        base = {"duration": 9.0, "switch_interval": 3.0} if quick else {}
        specs = grid("figure3_alpha", seeds=(0, 1), base=base, alpha=[0.9, 1.0, 2.5, 5.0])
        random.Random(self.seed).shuffle(specs)
        return specs

    def run_pass(
        self, quick: bool = False, tracer: Any = None, paced: bool = True
    ) -> PassResult:
        from repro.runner.backends import SerialRunner
        from repro.runner.cache import ResultCache

        specs = self.specs(quick)
        replays = self.replays // 10 if quick else self.replays
        cache_dir = self.workdir / f"cache-{self.passes}"
        self.passes += 1
        warm_stores = []
        op_blocks: list[list[float]] = []
        paces: list[float] = []
        sample_pace(paces, paced)
        with _pass_span(tracer):
            if tracer is not None:
                tracer.op = 0
            started = time.perf_counter()
            cold = SerialRunner(cache=ResultCache(cache_dir)).run(specs)
            cold_wall = time.perf_counter() - started
            sample_pace(paces, paced)
            for first in range(0, replays, self.block):
                raws = []
                for index in range(first, min(first + self.block, replays)):
                    if tracer is not None:
                        tracer.op = index + 1
                    started = time.perf_counter()
                    store = SerialRunner(cache=ResultCache(cache_dir)).run(specs)
                    raws.append(time.perf_counter() - started)
                    warm_stores.append(store)
                op_blocks.append(raws)
                sample_pace(paces, paced)

        failures: list[str] = []
        if cold.cache_misses != len(specs):
            failures.append(f"cold run executed {cold.cache_misses}/{len(specs)} points")
        check_points(cold, self.expected, failures)
        artifact = cold.to_json()
        for index, store in enumerate(warm_stores):
            if store.cache_hits != len(specs):
                failures.append(
                    f"warm replay {index}: {store.cache_hits}/{len(specs)} hits"
                )
            elif store.to_json() != artifact:
                failures.append(f"warm replay {index}: artifact differs from the cold run's")
        shutil.rmtree(cache_dir, ignore_errors=True)
        return PassResult(
            work=len(specs),
            work_wall=cold_wall,
            op_blocks=op_blocks,
            wall=cold_wall + sum(sum(raws) for raws in op_blocks),
            paces=paces,
            attempted=len(specs) + replays,
            failures=failures,
        )


# -------------------------------------------------------------------- serving


class ServeWorkload(Workload):
    """One keep-alive client, closed loop, against an in-process loopback server.

    Server and client share this interpreter's event loop, so a round trip
    is client encode → loopback socket → HTTP parse → ``DecisionService``
    (executor thread) → JSON → socket → client parse.
    """

    work_unit = "decision"
    operation = "one /decide round trip (client send to parsed reply)"
    requests = 0
    #: Blocks per pass; a host-pace sample follows each.
    blocks = 4
    tier = ""
    publish_table = False

    def setup(self) -> None:
        from repro.api.config import SenderConfig
        from repro.api.policy import decision_to_payload, precompute_policy_table
        from repro.inference.prior import figure3_prior
        from repro.serving import (
            DecisionService,
            PolicyClient,
            PolicyServer,
            PolicyTableRegistry,
        )

        # The Figure-3 calibration: run_figure3_point's prior grid, fused engines.
        config = SenderConfig(
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
        table = precompute_policy_table(config, sweep_backend="fused")
        self.fingerprint = config.fingerprint()
        signatures = table.signatures()
        random.Random(self.seed).shuffle(signatures)
        self.signatures = signatures
        # What a correct table-tier reply must carry, in wire form.
        self.table_replies = {
            signature: json.loads(
                json.dumps(decision_to_payload(table.decision_for(signature)))
            )
            for signature in signatures
        }
        registry = PolicyTableRegistry(self.workdir / "registry")
        if self.publish_table:
            registry.publish(table)
        self.service = DecisionService(registry, [config], planner_timeout=60.0)
        self.loop = asyncio.new_event_loop()
        self.server = PolicyServer(self.service)
        self.loop.run_until_complete(self.server.start())
        self.client = PolicyClient(port=self.server.port)
        self.loop.run_until_complete(self.client.connect())
        self.run_pass(quick=True, paced=False)

    def run_pass(
        self, quick: bool = False, tracer: Any = None, paced: bool = True
    ) -> PassResult:
        count = self.requests // 10 if quick else self.requests
        block = max(1, count // self.blocks)
        before = self.service.counters_snapshot()
        wall = 0.0
        op_blocks: list[list[float]] = []
        replies: list[dict] = []
        paces: list[float] = []
        sample_pace(paces, paced)
        with _pass_span(tracer):
            for first in range(0, count, block):
                started = time.perf_counter()
                raws = self.loop.run_until_complete(
                    self._drive(first, min(first + block, count), replies, tracer)
                )
                wall += time.perf_counter() - started
                op_blocks.append(raws)
                sample_pace(paces, paced)
        after = self.service.counters_snapshot()
        delta = {key: after[key] - before[key] for key in after}

        failures: list[str] = []
        first_reply: dict[tuple, Any] = {}
        for index, reply in enumerate(replies):
            signature = self.signatures[index % len(self.signatures)]
            decision = reply.get("decision")
            if reply.get("status") != "ok" or reply.get("tier") != self.tier:
                failures.append(
                    f"request {index}: status {reply.get('status')!r}, "
                    f"tier {reply.get('tier')!r} (wanted {self.tier!r})"
                )
            elif self.publish_table and decision != self.table_replies[signature]:
                failures.append(f"request {index}: not the table's own decision")
            elif first_reply.setdefault(signature, decision) != decision:
                failures.append(f"request {index}: decision changed between replies")
        if delta["shed"] or delta["errors"]:
            failures.append(f"server shed {delta['shed']}, errors {delta['errors']}")
        return PassResult(
            work=count,
            work_wall=wall,
            op_blocks=op_blocks,
            wall=wall,
            paces=paces,
            attempted=count,
            failures=failures,
            counts={
                "serving.tier_table": delta["table_hits"],
                "serving.tier_planner": delta["planner_fallbacks"],
                "serving.tier_default": delta["default_served"],
                "serving.shed": delta["shed"],
                "serving.errors": delta["errors"],
            },
        )

    async def _drive(
        self, first: int, last: int, replies: list[dict], tracer: Any
    ) -> list[float]:
        """Requests ``first..last-1``, one at a time; returns their round trips."""
        signatures = self.signatures
        decide = self.client.decide
        fingerprint = self.fingerprint
        raws: list[float] = []
        for index in range(first, last):
            signature = signatures[index % len(signatures)]
            if tracer is None:
                started = time.perf_counter()
                reply = await decide(fingerprint, signature)
                raws.append(time.perf_counter() - started)
            else:
                tracer.op = index
                with _Span(tracer, "serving.request", handoff=True):
                    started = time.perf_counter()
                    reply = await decide(fingerprint, signature)
                    raws.append(time.perf_counter() - started)
            replies.append(reply)
        return raws

    def close(self) -> None:
        loop: Optional[asyncio.AbstractEventLoop] = getattr(self, "loop", None)
        if loop is None:
            return
        loop.run_until_complete(self.client.close())
        loop.run_until_complete(self.server.stop())
        loop.run_until_complete(loop.shutdown_default_executor())
        loop.close()
        self.service.close()


class ServeTable(ServeWorkload):
    name = "serve_table"
    why = (
        "every request is a published-table hit, so HTTP and JSON are most of the "
        "round trip: the workload for the table-lookup overhead and any wire change"
    )
    requests = 4_000
    tier = "table"
    publish_table = True


class ServePlanner(ServeWorkload):
    name = "serve_planner"
    why = (
        "same server, empty registry: every request rebuilds the belief and plans "
        "live, so inference and rollout savings show and HTTP savings are diluted"
    )
    requests = 300
    tier = "planner"


WORKLOADS = {
    cls.name: cls
    for cls in (
        Fig3Alpha4,
        ContentionTcp128,
        ContentionIsender32,
        SweepCache,
        ServeTable,
        ServePlanner,
    )
}
