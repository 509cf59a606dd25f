"""Micro-benchmarks of the simulation substrate itself.

These do not correspond to a figure in the paper; they exist so regressions
in the hot paths (the event loop, the queueing pair, the fast link model,
belief updates) show up in benchmark history.  Each test also contributes
its pytest-benchmark minimum to the canonical ``BENCH_engine.json`` record
checked by ``benchmarks/compare.py`` — no second timing harness.
"""

from __future__ import annotations

from repro.elements import Buffer, Collector, Throughput
from repro.inference import AckObservation, BeliefState, GaussianKernel, single_link_prior
from repro.inference.linkmodel import LinkModel, LinkModelParams
from repro.sim.element import Network
from repro.sim.engine import Simulator
from repro.sim.packet import Packet

# ---------------------------------------------------------------- workloads


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
    """20k ticks beside 256 standing timers, one cancelled and re-armed per tick.

    ``run_event_loop`` keeps the heap one deep, so the cost of ordering it is
    invisible there.  This is the retransmission-timer pattern of a many-flow
    run: every ACK cancels a timer a second out and arms a new one, leaving
    the heap ~1 250 deep (256 live timers plus a second's worth of dead ones).
    """
    sim = Simulator()
    timers = [sim.schedule(1.0, int) for _ in range(256)]
    counter = {"fired": 0}

    def tick() -> None:
        slot = counter["fired"] % len(timers)
        counter["fired"] += 1
        timers[slot].cancel()
        timers[slot] = sim.schedule(1.0, int)
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
    return len(belief)


# -------------------------------------------------------------------- benches


def record_engine_timing(bench_record, benchmark, label: str, workload) -> None:
    """Contribute one workload's pytest-benchmark minimum to BENCH_engine.json."""
    bench_record(
        "engine",
        entries={
            label: (
                {"wall_time_s": benchmark.stats.stats.min},
                {"workload": workload.__name__},
            )
        },
    )


def test_event_loop_throughput(benchmark, bench_record):
    fired = benchmark(run_event_loop)
    assert fired == 20_000
    record_engine_timing(bench_record, benchmark, "event_loop_20k", run_event_loop)


def test_event_loop_churn_throughput(benchmark, bench_record):
    fired = benchmark(run_event_loop_churn)
    assert fired == 20_000
    record_engine_timing(bench_record, benchmark, "event_loop_churn", run_event_loop_churn)


def test_queueing_chain_throughput(benchmark, bench_record):
    delivered = benchmark(run_queueing_chain)
    assert delivered == 5_000
    record_engine_timing(bench_record, benchmark, "queueing_chain_5k", run_queueing_chain)


def test_link_model_advance_throughput(benchmark, bench_record):
    predictions = benchmark(run_link_model_advance)
    assert predictions == 500
    record_engine_timing(
        bench_record, benchmark, "link_model_advance_500", run_link_model_advance
    )


def test_belief_update_throughput(benchmark, bench_record):
    remaining = benchmark(run_belief_updates)
    assert remaining >= 1
    record_engine_timing(
        bench_record, benchmark, "belief_update_50_rounds", run_belief_updates
    )
