"""Micro-benchmarks below the ledger's resolution; one run writes ``BENCH_micro.json`` whole.

Speed claims are made end to end, on the ``BENCHMARK.json`` workloads
(``benchmarks/e2e/``).  These eleven timings are hot spots a ledger workload
dilutes until a regression hides inside its bound: the bare event loop
(heap one deep, and 257 deep under timer moves), an element chain, the
scalar link model, a small belief, the wake-ups of an array belief that has
settled on one hypothesis, the wake-ups of an array sender on the Figure-3
prior (its forking updates and its plans: both array kernels), building a
contention point's 32 senders from their prior, a contention sender's two
opening plans (the rollout kernel on a standing queue 667 packets deep),
the in-process half of a served table decision, and the process backend's
fixed cost per point.

The ten single-process entries are **pace-corrected seconds**.  The host
drifts 30–60 % for minutes at a time, so each timed run of a workload
follows a run of the ledger's fixed reference kernel
(``benchmarks/e2e/e2e_pace.kernel``, imported read-only), and the entry is
``median(workload / kernel) × NOMINAL_KERNEL_S`` over ``REPEATS`` such
pairs.  Each ratio is taken within one pair, so a slow phase scales both
of its runs and cancels; the median drops the pairs a burst hit on one
side only.  (The minimum of each side, taken over different pairs, read
+21 % and +32 % over the baseline on unchanged code; the minimum ratio
picks a pair whose kernel run was slowed and spread 24–118 %.)  Six
consecutive runs of this file on unchanged code spread 3.0–10.6 % per
entry, which sizes the one threshold ``benchmarks/compare.py`` holds them
to against the committed baseline (``benchmarks/baselines/BENCH_micro.json``).

The process fan-out entry spreads ~30 % from run to run, so it is not
compared with the baseline: it is an order-of-magnitude ceiling (≈3–5 ms
measured, gated ≤ 25 ms) that catches a per-point cost that grew by a
multiple, nothing finer.

Refresh the baseline alongside a change that moves one of these on purpose::

    python -m pytest -m bench -q && cp BENCH_micro.json benchmarks/baselines/
"""

from __future__ import annotations

import copy
import statistics
import time
from pathlib import Path

from repro.api.config import SenderConfig
from repro.api.policy import precompute_policy_table
from repro.api.sender import build_components
from repro.elements import Buffer, Collector, Throughput
from repro.inference import (
    AckObservation,
    BeliefState,
    GaussianKernel,
    figure3_prior,
    single_link_prior,
)
from repro.inference.linkmodel import LinkModel, LinkModelParams
from repro.runner import ParallelRunner, ScenarioRegistry, SerialRunner
from repro.runner.scenarios import many_flow_sender_prior
from repro.runner.spec import grid
from repro.serving import DecisionService, PolicyTableRegistry
from repro.sim.element import Network
from repro.sim.engine import Simulator
from repro.sim.packet import Packet

E2E_DIR = Path(__file__).resolve().parent / "e2e"

#: Interleaved (kernel, workload) pairs per single-process entry.
REPEATS = 50

TABLE_DECIDES = 1_000

#: The settled-belief entry: beliefs × rounds each = 1 000 wake-ups.  A
#: ``contention_isender32`` pass gives each sender ≈270 updates; one belief
#: run much longer would mostly time ``Hypothesis.score`` re-reading every
#: prediction it ever made.
SETTLED_BELIEFS = 4
SETTLED_ROUNDS = 250

#: ``contention_isender32``'s inference senders: 32 per point, each built
#: from the scenario's 21-point prior for 128 flows on its default 8 Mbit/s
#: link and 8 Mbit buffer (7 link rates around the 62.5 kbit/s fair share ×
#: empty, half and full buffers, i.e. 0, 333 and 666 queued filler packets).
PRIOR_BUILDS = 32
CONTENTION_SENDER = SenderConfig(belief_backend="fused", rollout_backend="fused", policy="cache")
CONTENTION_PRIOR = many_flow_sender_prior(8_000_000.0 / 128, 8_000_000.0)

#: The Figure-3 entry: one array sender on ``run_figure3_point``'s prior grid
#: (4 link rates × 4 cross fractions × 3 loss rates × 4 buffers).
FIGURE3_WAKEUPS = 12
FIGURE3_SENDER = SenderConfig(belief_backend="vectorized", rollout_backend="vectorized")
FIGURE3_PRIOR = figure3_prior(
    link_rate_points=4, cross_fraction_points=4, loss_points=3, buffer_points=4, fill_points=1
)

#: The fan-out entry: points, workers, repeats (median taken), ceiling.
NOOP_POINTS = 64
NOOP_WORKERS = 2
NOOP_REPEATS = 5
NOOP_MAX_MS_PER_POINT = 25.0

def run_event_loop() -> int:
    """20k self-rescheduling timer events through the bare simulator."""
    sim = Simulator()
    counter = {"fired": 0}

    def tick() -> None:
        counter["fired"] += 1
        if counter["fired"] < 20_000:
            sim.schedule(0.001, tick)

    sim.schedule(0.0, tick)
    sim.run()
    return counter["fired"]


def run_event_loop_churn() -> int:
    """20k ticks beside 256 standing timers, one moved a second out per tick.

    ``run_event_loop`` keeps the heap one deep, so the cost of ordering it is
    invisible there.  This is the retransmission-timer pattern of a many-flow
    run: every ACK moves a timer to a second from now with
    ``Simulator.reschedule``, as ``WindowSender._arm_rto`` does.  A later move
    is made in place, so the heap stays 257 deep and a timer's deferred entry
    is re-pushed when it reaches the head, about once a second.
    """
    sim = Simulator()
    timers = [sim.schedule(1.0, int) for _ in range(256)]
    counter = {"fired": 0}

    def tick() -> None:
        slot = counter["fired"] % len(timers)
        counter["fired"] += 1
        timers[slot] = sim.reschedule(timers[slot], sim.now + 1.0)
        if counter["fired"] < 20_000:
            sim.schedule(0.001, tick)

    sim.schedule(0.0, tick)
    sim.run()
    return counter["fired"]


def run_queueing_chain() -> int:
    """5k packets through a Buffer → Throughput → Collector chain."""
    network = Network(seed=0)
    buffer = Buffer(capacity_bits=1e9, name="buf")
    link = Throughput(rate_bps=1e6, name="link")
    sink = Collector(name="sink")
    buffer.connect(link)
    link.connect(sink)
    network.add(buffer)
    network.start()
    for seq in range(5_000):
        buffer.receive(Packet(seq=seq, flow="f", size_bits=12_000, sent_at=0.0))
    network.run()
    return sink.count()


_LINK_MODEL_PARAMS = LinkModelParams(
    link_rate_bps=12_000.0,
    buffer_capacity_bits=96_000.0,
    cross_rate_pps=0.7,
    loss_rate=0.2,
    mean_time_to_switch=100.0,
)


def run_link_model_advance() -> int:
    """500 sends then a long advance through the fast link model."""
    model = LinkModel(_LINK_MODEL_PARAMS)
    for seq in range(500):
        model.send_own(seq, 12_000.0, float(seq))
    model.advance(1_000.0)
    return len(model.predictions)


def run_belief_updates() -> int:
    """50 send/ack/update rounds over a 27-hypothesis belief."""
    prior = single_link_prior(link_rate_points=9, fill_points=3)
    belief = BeliefState.from_prior(prior, kernel=GaussianKernel(sigma=0.3))
    for seq in range(50):
        at = float(seq)
        belief.record_send(seq, 12_000.0, at)
        belief.update(at + 1.0, [AckObservation(seq=seq, received_at=at + 1.0, ack_at=at + 1.0)])
    return belief.updates_applied


def settled_wakeups():
    """1 000 wake-ups of array-backend beliefs that have settled on one row.

    The ``many_flow_contention`` sender's prior shape (7 link rates × 3
    fills, no gate to fork on), driven until one row is left and the belief
    has handed it to the scalar kernel; each round is then what a settled
    sender's wake-up costs the belief — ``record_send``, ``update`` with one
    acknowledgement, ``decision_signature`` for the policy cache.  This is
    >90 % of ``contention_isender32``'s updates, which the ledger's 25 %
    bound would let slip back into the array kernel unnoticed.
    """
    prior = single_link_prior(
        link_rate_low=4_000.0, link_rate_high=40_000.0, link_rate_points=7, fill_points=3
    )
    settled = BeliefState.from_prior(prior, backend="vectorized", kernel=GaussianKernel(sigma=0.15))

    def wake_ups(belief: BeliefState, first_seq: int, rounds: int) -> None:
        for seq in range(first_seq, first_seq + rounds):
            at = float(seq)
            belief.record_send(seq, 12_000.0, at)
            belief.update(at + 0.8, [AckObservation(seq=seq, received_at=at + 0.75, ack_at=at + 0.75)])
            belief.decision_signature(4, 3_000.0)

    warm_up = 0
    while settled.state is not None:
        wake_ups(settled, warm_up, 1)
        warm_up += 1

    def run_settled_wakeups() -> int:
        applied = 0
        for _ in range(SETTLED_BELIEFS):
            belief = copy.deepcopy(settled)
            wake_ups(belief, warm_up, SETTLED_ROUNDS)
            applied += belief.updates_applied - settled.updates_applied
        return applied

    return run_settled_wakeups


def figure3_wakeups():
    """``FIGURE3_WAKEUPS`` wake-ups of an array sender on the Figure-3 prior.

    Each is a send, an update on one acknowledgement and a plan.  Every row
    of this prior has a latent gate, so every update forks each row into a
    stay and a switch branch, advanced together in one frontier; the plan
    rolls the 16 heaviest rows through every action in the packet-column
    rollout kernel.  These two array kernels are most of ``fig3_alpha4``'s time;
    here they run without its simulator and network.
    """
    parts = build_components(FIGURE3_SENDER, FIGURE3_PRIOR)
    fresh, planner = parts.belief, parts.planner

    def run_figure3_wakeups() -> int:
        belief = copy.deepcopy(fresh)
        decisions = 0
        for seq in range(FIGURE3_WAKEUPS):
            at = float(seq)
            belief.record_send(seq, 12_000.0, at)
            belief.update(at + 0.9, [AckObservation(seq=seq, received_at=at + 0.85, ack_at=at + 0.85)])
            decisions += planner.decide(belief, at + 0.9) is not None
        return decisions

    return run_figure3_wakeups


def contention_opening_plans():
    """A fresh ``contention_isender32`` belief's two opening plans.

    A plan at t = 0, then one more after a send at t = 0: 16 of the 21 prior
    rows, the full buffer's 666 queued fillers plus the one in service as
    the deepest base, 9 actions.  This is the rollout kernel's deep-base
    path, 2 of a point's 460 plans, which no ledger workload can show.
    """
    parts = build_components(CONTENTION_SENDER, CONTENTION_PRIOR)
    fresh, planner = parts.belief, parts.planner

    def run_contention_opening_plans() -> int:
        belief = copy.deepcopy(fresh)
        decisions = planner.decide(belief, 0.0) is not None
        belief.record_send(0, 12_000.0, 0.0)
        return decisions + (planner.decide(belief, 0.0) is not None)

    return run_contention_opening_plans


def run_prior_builds() -> int:
    """A ``contention_isender32`` point's 32 ``build_components`` calls.

    Belief, planner and policy cache per sender; the belief is the array
    engine's, written straight from the prior grid.  Returns the hypotheses
    built (32 × 21).
    """
    return sum(
        len(build_components(CONTENTION_SENDER, CONTENTION_PRIOR).belief)
        for _ in range(PRIOR_BUILDS)
    )


def table_decides(registry_dir: Path):
    """``TABLE_DECIDES`` served decisions, every one a published-table hit.

    The whole ``DecisionService.decide`` path, counters and all, with no
    HTTP in front of it: what ``serve_table`` cannot show behind its
    round trip.
    """
    config = SenderConfig(
        prior=single_link_prior(link_rate_points=2, fill_points=1),
        top_k=4,
        max_hypotheses=32,
        belief_backend="vectorized",
        rollout_backend="vectorized",
        policy="table",
    )
    table = precompute_policy_table(config, pilot_duration=5.0, burst_levels=(0, 2), seed=2)
    registry = PolicyTableRegistry(registry_dir)
    registry.publish(table)
    service = DecisionService(registry, [config])
    fingerprint = config.fingerprint()
    signatures = table.signatures()

    def run_table_decides() -> int:
        return sum(
            service.decide(fingerprint, signatures[index % len(signatures)]).tier == "table"
            for index in range(TABLE_DECIDES)
        )

    return run_table_decides


#: label → (workload, what a correct run of it returns)
SINGLE_PROCESS = {
    "event_loop_20k": (run_event_loop, 20_000),
    "event_loop_churn": (run_event_loop_churn, 20_000),
    "queueing_chain_5k": (run_queueing_chain, 5_000),
    "link_model_advance_500": (run_link_model_advance, 500),
    "belief_update_50_rounds": (run_belief_updates, 50),
    "prior_build_32": (run_prior_builds, PRIOR_BUILDS * CONTENTION_PRIOR.size),
}


def _noop_scenario(seed: int = 0, idx: int = 0) -> dict[str, float]:
    return {"idx": float(idx)}


def fan_out_ms_per_point() -> float:
    """The process backend's fixed cost: no-op points through forked workers."""
    registry = ScenarioRegistry()
    registry.register("noop")(_noop_scenario)
    specs = grid("noop", idx=tuple(range(NOOP_POINTS)))
    reference = SerialRunner(registry=registry).run(specs).to_json()
    walls = []
    for _ in range(NOOP_REPEATS):
        started = time.perf_counter()
        store = ParallelRunner(workers=NOOP_WORKERS, registry=registry).run(specs)
        walls.append(time.perf_counter() - started)
        assert store.to_json() == reference
    return statistics.median(walls) / NOOP_POINTS * 1e3


def _seconds(work) -> float:
    started = time.perf_counter()
    work()
    return time.perf_counter() - started


def test_micro_record(bench_record, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(E2E_DIR))
    from e2e_pace import NOMINAL_KERNEL_S, kernel

    workloads = {
        **SINGLE_PROCESS,
        "settled_wakeups_1k": (settled_wakeups(), SETTLED_BELIEFS * SETTLED_ROUNDS),
        "figure3_wakeups_12": (figure3_wakeups(), FIGURE3_WAKEUPS),
        "contention_opening_plans": (contention_opening_plans(), 2),
        "table_decide_1k": (table_decides(tmp_path), TABLE_DECIDES),
    }
    entries = {}
    for label, (workload, expected) in workloads.items():
        assert workload() == expected  # also warms caches and allocators
        paces, walls = [], []
        for _ in range(REPEATS):
            paces.append(_seconds(kernel))
            walls.append(_seconds(workload))
        ratio = statistics.median(wall / pace for pace, wall in zip(paces, walls))
        corrected = ratio * NOMINAL_KERNEL_S
        entries[label] = (
            {"corrected_s": corrected},
            {
                "raw_median_s": statistics.median(walls),
                "kernel_median_s": statistics.median(paces),
                "repeats": REPEATS,
            },
        )
        print(f"{label:26s} {corrected * 1e3:8.3f} ms corrected")

    ms_per_point = fan_out_ms_per_point()
    entries["parallel_noop_64pt"] = (
        {"ms_per_point": ms_per_point},
        {
            "workers": NOOP_WORKERS,
            "repeats": NOOP_REPEATS,
            "note": "order-of-magnitude ceiling only; not compared with the baseline",
        },
    )
    print(f"{'parallel_noop_64pt':26s} {ms_per_point:8.3f} ms/point")

    bench_record(
        "micro",
        entries,
        gates={"parallel_noop_64pt.ms_per_point": {"max": NOOP_MAX_MS_PER_POINT}},
    )
