"""Built-in scenarios: the paper's figure experiments plus grid workloads.

Each scenario is a module-level function registered on the default
registry.  It receives the point's derived ``seed`` plus its parameters and
returns a flat dict of numeric summary metrics — the representation the
result store serializes canonically, so two runs of the same spec can be
compared byte-for-byte.

This module is imported lazily by the registry (first name resolution), so
``repro.experiments`` can import the runner backends without a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.api.config import SenderConfig, canonical_digest
from repro.api.sender import build_components
from repro.baselines.aimd import AimdSender
from repro.baselines.cubic import CubicSender
from repro.baselines.newreno import NewRenoSender
from repro.baselines.reno import RenoSender
from repro.cellular.link import CellularLink, TraceDrivenLink
from repro.core.isender import ISender
from repro.core.policy import SharedPlanner
from repro.corpus.generators import RandomWalkLink
from repro.corpus.store import open_corpus_store
from repro.corpus.trace import LinkTrace
from repro.elements.buffer import Buffer
from repro.elements.delay import Delay
from repro.elements.diverter import FlowDemux
from repro.elements.loss import Loss
from repro.elements.receiver import Receiver
from repro.elements.throughput import Throughput
from repro.errors import ConfigurationError
from repro.experiments.ablation import run_ablation_point
from repro.experiments.comparison import run_loss_comparison
from repro.experiments.figure1 import run_figure1
from repro.experiments.figure3 import run_figure3_point
from repro.experiments.simple import run_convergence_scenario, run_drain_scenario
from repro.inference.prior import Prior, single_link_prior
from repro.metrics.fairness import convergence_time, flow_rate_matrix, jain_index
from repro.runner.registry import scenario
from repro.runner.spec import ScenarioSpec, grid
from repro.sim.element import Network
from repro.units import DEFAULT_PACKET_BITS

# ------------------------------------------------------------ config factories
#
# Scenarios that build a SenderConfig declare how their parameters map to
# one, in a single place shared by the scenario body and the registry's
# ``config_factory`` hook.  The result cache folds the factory's
# ``fingerprint()`` into each point's key, so cached points invalidate when
# configuration semantics change (a new SenderConfig default, a bumped
# FINGERPRINT_VERSION) even though the scenario params did not.
#
# Factories index ``params`` rather than carrying their own defaults: the
# registry hands them the point's *effective* params (signature defaults
# already resolved via ``ScenarioEntry.effective_params``), so a changed
# scenario-signature default can never drift from what the cache keys on.


def figure3_alpha_config(params: Mapping[str, Any]) -> SenderConfig:
    """The :class:`SenderConfig` a ``figure3_alpha`` point builds."""
    return SenderConfig(
        belief_backend=params["belief_backend"],
        rollout_backend=params["rollout_backend"],
        policy=params["policy"],
    )


def inference_ablation_config(params: Mapping[str, Any]) -> SenderConfig:
    """The :class:`SenderConfig` an ``inference_ablation_point`` builds."""
    return SenderConfig(
        kernel=params["kernel"],
        kernel_scale=params["kernel_scale"],
        max_hypotheses=params["max_hypotheses"],
        top_k=params["top_k"],
        belief_backend=params["backend"],
        rollout_backend=params["rollout_backend"],
        policy=params["policy"],
    )


# --------------------------------------------------------------------- figures


@scenario()
def figure1(
    seed: int = 7,
    duration: float = 90.0,
    nominal_rate_bps: float = 4_000_000.0,
    buffer_seconds: float = 10.0,
    link_loss_rate: float = 0.05,
) -> dict[str, float]:
    """Figure 1: RTT inflation of a TCP download over a bufferbloated cellular link."""
    result = run_figure1(
        duration=duration,
        nominal_rate_bps=nominal_rate_bps,
        buffer_seconds=buffer_seconds,
        link_loss_rate=link_loss_rate,
        seed=seed,
    )
    return {
        "base_rtt_s": result.base_rtt,
        "min_rtt_s": result.rtt.min(),
        "median_rtt_s": result.median_rtt,
        "max_rtt_s": result.max_rtt,
        "inflation_factor": result.inflation_factor,
        "throughput_bps": result.throughput_bps,
        "link_layer_retransmissions": result.link_layer_retransmissions,
        "buffer_drops": result.buffer_drops,
        "peak_buffer_bits": result.peak_buffer_bits,
    }


@scenario(config_factory=figure3_alpha_config)
def figure3_alpha(
    seed: int = 1,
    alpha: float = 1.0,
    duration: float = 90.0,
    switch_interval: float = 30.0,
    link_rate_bps: float = 12_000.0,
    cross_fraction: float = 0.7,
    loss_rate: float = 0.2,
    buffer_capacity_bits: float = 96_000.0,
    belief_backend: str = "scalar",
    rollout_backend: str = "scalar",
    policy: str = "none",
) -> dict[str, float]:
    """Figure 3: one α point of the cross-traffic-priority sweep.

    ``belief_backend`` / ``rollout_backend`` / ``policy`` select the
    engines through :class:`repro.api.SenderConfig`, so the CLI can sweep
    engine and policy combinations over the paper's main experiment::

        python -m repro.runner run figure3_alpha \\
            --sweep rollout_backend=scalar,vectorized --sweep policy=none,cache
    """
    result = run_figure3_point(
        alpha=alpha,
        duration=duration,
        switch_interval=switch_interval,
        link_rate_bps=link_rate_bps,
        cross_fraction=cross_fraction,
        loss_rate=loss_rate,
        buffer_capacity_bits=buffer_capacity_bits,
        seed=seed,
        settings=figure3_alpha_config(
            {
                "belief_backend": belief_backend,
                "rollout_backend": rollout_backend,
                "policy": policy,
            }
        ),
    )
    return {
        "alpha": alpha,
        "packets_sent": result.packets_sent,
        "packets_acked": result.packets_acked,
        "rate_cross_on_1_bps": result.rate_on1_bps,
        "rate_cross_off_bps": result.rate_off_bps,
        "rate_cross_on_2_bps": result.rate_on2_bps,
        "cross_rate_on_2_bps": result.cross_rate_on2_bps,
        "buffer_drops": result.buffer_drops,
        "cross_drops": result.cross_drops,
        "final_hypotheses": result.final_hypotheses,
        "degenerate_updates": result.degenerate_updates,
    }


@scenario()
def convergence(
    seed: int = 3,
    duration: float = 60.0,
    link_rate_bps: float = 12_000.0,
    buffer_capacity_bits: float = 96_000.0,
) -> dict[str, float]:
    """Scenario A of §4: the sender infers an unknown link speed and converges."""
    result = run_convergence_scenario(
        true_link_rate_bps=link_rate_bps,
        duration=duration,
        buffer_capacity_bits=buffer_capacity_bits,
        seed=seed,
    )
    return {
        "converged": int(result.converged),
        "true_link_rate_bps": result.true_link_rate_bps,
        "inferred_link_rate_bps": result.inferred_link_rate_bps,
        "early_rate_bps": result.early_rate_bps,
        "late_rate_bps": result.late_rate_bps,
        "packets_sent": result.packets_sent,
        "posterior_true_rate_probability": result.posterior_true_rate_probability,
    }


@scenario()
def drain(
    seed: int = 3,
    duration: float = 40.0,
    initial_fill_bits: float = 48_000.0,
    latency_penalty: float = 0.1,
) -> dict[str, float]:
    """Scenario B of §4: the latency-penalizing sender waits for the buffer to drain."""
    result = run_drain_scenario(
        duration=duration,
        initial_fill_bits=initial_fill_bits,
        latency_penalty=latency_penalty,
        seed=seed,
    )
    return {
        "first_send_plain_s": result.first_send_plain,
        "first_send_penalized_s": result.first_send_penalized,
        "late_rate_plain_bps": result.late_rate_plain_bps,
        "late_rate_penalized_bps": result.late_rate_penalized_bps,
        "drain_time_s": result.drain_time,
        "penalized_waits_longer": int(result.penalized_sender_waits_longer),
    }


@scenario()
def loss_comparison(
    seed: int = 5,
    duration: float = 90.0,
    loss_rate: float = 0.2,
    link_rate_bps: float = 12_000.0,
) -> dict[str, float]:
    """§1/§2 headline: loss-blind TCP vs. the model-based sender on a lossy link."""
    result = run_loss_comparison(
        loss_rate=loss_rate,
        link_rate_bps=link_rate_bps,
        duration=duration,
        seed=seed,
    )
    return {
        "tcp_goodput_bps": result.tcp_goodput_bps,
        "tcp_utilization": result.tcp_utilization,
        "tcp_timeouts": result.tcp_timeouts,
        "isender_goodput_bps": result.isender_goodput_bps,
        "isender_utilization": result.isender_utilization,
        "isender_advantage": result.isender_advantage,
    }


@scenario(config_factory=inference_ablation_config)
def inference_ablation_point(
    seed: int = 2,
    duration: float = 30.0,
    kernel: str = "gaussian",
    kernel_scale: float = 0.4,
    max_hypotheses: int = 200,
    top_k: int = 16,
    backend: str = "scalar",
    rollout_backend: str = "scalar",
    policy: str = "none",
    link_rate_bps: float = 12_000.0,
    loss_rate: float = 0.2,
) -> dict[str, float]:
    """One configuration of the inference-approximation ablation.

    ``policy`` is the §3.3 decision-policy mode (``none`` / ``cache`` /
    ``table``).  Sweep engines and policies together, e.g.::

        python -m repro.runner run inference_ablation_point \\
            --sweep rollout_backend=scalar,vectorized \\
            --sweep policy=none,cache,table
    """
    config = inference_ablation_config(
        {
            "kernel": kernel,
            "kernel_scale": kernel_scale,
            "max_hypotheses": max_hypotheses,
            "top_k": top_k,
            "backend": backend,
            "rollout_backend": rollout_backend,
            "policy": policy,
        }
    )
    label = (
        f"{kernel}/{max_hypotheses}hyp/top{top_k}/{backend}/{rollout_backend}/{policy}"
    )
    outcome = run_ablation_point(
        label,
        config,
        duration=duration,
        link_rate_bps=link_rate_bps,
        loss_rate=loss_rate,
        seed=seed,
    )
    return {
        "packets_sent": outcome.packets_sent,
        "goodput_bps": outcome.goodput_bps,
        "rollouts": outcome.rollouts,
        "final_hypotheses": outcome.final_hypotheses,
        "degenerate_updates": outcome.degenerate_updates,
        "posterior_true_link_rate": outcome.posterior_true_link_rate,
        "policy_hits": outcome.policy_hits,
        "policy_misses": outcome.policy_misses,
    }


# --------------------------------------------------------------- grid workloads


@scenario()
def single_link_tcp(
    seed: int = 0,
    duration: float = 30.0,
    link_rate_bps: float = 1_000_000.0,
    loss_rate: float = 0.0,
    extra_delay_s: float = 0.0,
    buffer_bits: float = 480_000.0,
    packet_bits: float = DEFAULT_PACKET_BITS,
) -> dict[str, float]:
    """A NewReno bulk transfer over one bottleneck: the loss × delay × buffer grid cell.

    Cheap enough to sweep by the hundreds; the workload the determinism and
    scaling tests use.
    """
    network = Network(seed=seed)
    buffer = Buffer(capacity_bits=buffer_bits, name="buffer")
    link = Throughput(rate_bps=link_rate_bps, name="link")
    receiver = Receiver(name="receiver", accept_flows={"tcp"})
    sender = NewRenoSender(receiver, flow="tcp", packet_bits=packet_bits, name="tcp")

    sender.connect(buffer)
    buffer.connect(link)
    tail = link
    if extra_delay_s > 0.0:
        delay = Delay(delay=extra_delay_s, name="path-delay")
        tail.connect(delay)
        tail = delay
    loss = None
    if loss_rate > 0.0:
        loss = Loss(rate=loss_rate, name="loss")
        tail.connect(loss)
        tail = loss
    tail.connect(receiver)
    network.add(sender)
    network.run(until=duration)

    goodput = receiver.throughput_bps(0.0, duration, flow="tcp")
    return {
        "goodput_bps": goodput,
        "utilization": goodput / link_rate_bps,
        "packets_sent": sender.packets_sent,
        "timeouts": sender.timeouts,
        "buffer_drops": buffer.drop_count,
        "loss_drops": loss.drop_count if loss is not None else 0,
        "events_processed": network.sim.events_processed,
    }


@scenario()
def cellular_trace_tcp(
    seed: int = 0,
    duration: float = 60.0,
    nominal_rate_bps: float = 2_000_000.0,
    min_rate_bps: float = 200_000.0,
    max_rate_bps: float = 6_000_000.0,
    buffer_seconds: float = 4.0,
    loss_rate: float = 0.05,
    retransmit_delay: float = 0.05,
    propagation_delay: float = 0.03,
    packet_bits: float = DEFAULT_PACKET_BITS,
) -> dict[str, float]:
    """A trace-driven cellular run: TCP over a random-walk-rate, loss-hiding link."""
    network = Network(seed=seed)
    rate_process = RandomWalkLink(
        nominal_bps=nominal_rate_bps,
        min_bps=min_rate_bps,
        max_bps=max_rate_bps,
        duration=duration + 10.0,
    ).build(seed)
    link = CellularLink(
        rate_process=rate_process,
        buffer_bits=buffer_seconds * nominal_rate_bps,
        loss_rate=loss_rate,
        retransmit_delay=retransmit_delay,
        propagation_delay=propagation_delay,
        name="cellular-link",
    )
    receiver = Receiver(name="receiver", accept_flows={"tcp"})
    sender = NewRenoSender(
        receiver,
        flow="tcp",
        packet_bits=packet_bits,
        name="tcp",
        initial_ssthresh=1e9,
        max_rto=120.0,
    )
    sender.connect(link)
    link.connect(receiver)
    network.add(sender)
    network.run(until=duration)

    samples = sender.rtt_series()
    rtts = [rtt for _, rtt in samples] if samples else [propagation_delay]
    return {
        "throughput_bps": receiver.throughput_bps(0.0, duration, flow="tcp"),
        "max_rtt_s": max(rtts),
        "mean_rtt_s": sum(rtts) / len(rtts),
        "link_layer_retransmissions": link.link_layer_retransmissions,
        "buffer_drops": link.drop_count,
        "peak_buffer_bits": link.peak_occupancy_bits,
    }


# ------------------------------------------------------------ corpus scenarios
#
# Corpus-backed scenarios carry the *content* of their workload in the
# trace corpus, addressed by entry name.  Names are mutable (re-ingesting
# under the same name replaces the entry), so the cache must not key on
# them: the config factories below resolve the name to its content digest
# in the driver process and fold that digest — plus the sender-config
# fingerprint where one exists — into the point key via a lightweight
# composite that quacks like a SenderConfig (``fingerprint()`` is all the
# cache calls).


@dataclass(frozen=True)
class _CorpusEntryKey:
    """The cache-key identity of a corpus-backed point: digest + config."""

    trace_digest: str
    sender_fingerprint: str = ""

    def fingerprint(self) -> str:
        return canonical_digest(
            {"trace": self.trace_digest, "sender": self.sender_fingerprint}
        )


def corpus_trace_config(params: Mapping[str, Any]) -> _CorpusEntryKey:
    """Key a ``corpus_trace`` point on the named entry's content digest."""
    store = open_corpus_store(params["corpus_dir"] or None)
    return _CorpusEntryKey(trace_digest=store.digest_of(params["trace"]))


def many_flow_sender_config(params: Mapping[str, Any]) -> SenderConfig:
    """The :class:`SenderConfig` every ISender flow in the contention mix uses."""
    return SenderConfig(
        alpha=params["alpha"],
        belief_backend=params["belief_backend"],
        rollout_backend=params["rollout_backend"],
        policy=params["policy"],
        packet_bits=params["packet_bits"],
    )


def many_flow_sender_prior(
    fair_share_bps: float, buffer_bits: float, packet_bits: float = DEFAULT_PACKET_BITS
) -> Prior:
    """The prior every ISender flow in the contention mix starts from.

    Seven link rates from a quarter to four times the flow's fair share of
    the bottleneck, and the shared buffer empty, half full or full.
    """
    return single_link_prior(
        link_rate_low=fair_share_bps / 4.0,
        link_rate_high=fair_share_bps * 4.0,
        link_rate_points=7,
        buffer_capacity_bits=buffer_bits,
        fill_points=3,
        packet_bits=packet_bits,
    )


def many_flow_contention_config(params: Mapping[str, Any]) -> _CorpusEntryKey:
    """Key a ``many_flow_contention`` point on trace digest + sender config."""
    digest = ""
    if params["trace"]:
        digest = open_corpus_store(params["corpus_dir"] or None).digest_of(
            params["trace"]
        )
    sender_fingerprint = ""
    if params["isender_flows"] > 0:
        sender_fingerprint = many_flow_sender_config(params).fingerprint()
    return _CorpusEntryKey(
        trace_digest=digest, sender_fingerprint=sender_fingerprint
    )


@scenario(config_factory=corpus_trace_config)
def corpus_trace(
    seed: int = 0,
    trace: str = "",
    corpus_dir: str = "",
    duration: float = 0.0,
    buffer_seconds: float = 4.0,
    loss_rate: float = 0.0,
    retransmit_delay: float = 0.05,
    propagation_delay: float = 0.03,
    packet_bits: float = DEFAULT_PACKET_BITS,
) -> dict[str, float]:
    """TCP over a corpus-registered link trace (ingested or generated).

    ``trace`` names a corpus entry (see ``python -m repro.corpus list``);
    ``corpus_dir`` overrides the default ``<cache-dir>/corpus`` root.
    ``duration`` of 0 runs the trace's full length.  The cache key folds
    in the entry's *content digest*, so re-ingesting different data under
    the same name invalidates cached points even though the params did
    not change.
    """
    if not trace:
        raise ConfigurationError(
            "corpus_trace needs a trace: pass --set trace=<corpus entry name>"
        )
    link_trace = open_corpus_store(corpus_dir or None).get(trace)
    run_for = duration if duration > 0.0 else link_trace.duration
    network = Network(seed=seed)
    link = CellularLink(
        rate_process=link_trace,
        buffer_bits=buffer_seconds * link_trace.mean_rate(),
        loss_rate=loss_rate,
        retransmit_delay=retransmit_delay,
        propagation_delay=propagation_delay,
        name="corpus-link",
    )
    receiver = Receiver(name="receiver", accept_flows={"tcp"})
    sender = NewRenoSender(
        receiver,
        flow="tcp",
        packet_bits=packet_bits,
        name="tcp",
        initial_ssthresh=1e9,
        max_rto=120.0,
    )
    sender.connect(link)
    link.connect(receiver)
    network.add(sender)
    network.run(until=run_for)

    goodput = receiver.throughput_bps(0.0, run_for, flow="tcp")
    samples = sender.rtt_series()
    rtts = [rtt for _, rtt in samples] if samples else [propagation_delay]
    return {
        "goodput_bps": goodput,
        "utilization": goodput / link_trace.mean_rate(),
        "trace_mean_rate_bps": link_trace.mean_rate(),
        "trace_min_rate_bps": link_trace.min_rate(),
        "max_rtt_s": max(rtts),
        "mean_rtt_s": sum(rtts) / len(rtts),
        "link_layer_retransmissions": link.link_layer_retransmissions,
        "buffer_drops": link.drop_count,
        "peak_buffer_bits": link.peak_occupancy_bits,
    }


#: Baseline sender classes a ``many_flow_contention`` mix may cycle through.
MANY_FLOW_SENDER_KINDS = {
    "reno": RenoSender,
    "newreno": NewRenoSender,
    "cubic": CubicSender,
    "aimd": AimdSender,
}


@scenario(config_factory=many_flow_contention_config)
def many_flow_contention(
    seed: int = 0,
    duration: float = 30.0,
    flows: int = 8,
    isender_flows: int = 1,
    mix: str = "reno,cubic,aimd",
    trace: str = "",
    corpus_dir: str = "",
    link_rate_bps: float = 8_000_000.0,
    buffer_seconds: float = 1.0,
    propagation_delay: float = 0.02,
    packet_bits: float = DEFAULT_PACKET_BITS,
    alpha: float = 1.0,
    policy: str = "cache",
    belief_backend: str = "scalar",
    rollout_backend: str = "scalar",
    fairness_window: float = 2.0,
    fairness_threshold: float = 0.9,
    per_flow_metrics: bool = False,
) -> dict[str, float]:
    """N concurrent flows through one shared buffer and trace-driven link.

    The first ``isender_flows`` flows are inference-based
    :class:`~repro.core.isender.ISender` instances (configured by
    ``alpha``/``policy``/backends); the rest cycle through the ``mix`` of
    classic congestion controllers.  Each ISender owns its belief and its
    policy cache or table; all of them share one
    :class:`~repro.core.policy.SharedPlanner`, so a plan two senders need
    for the same belief at the same instant is made once, with no change
    to any decision.  The bottleneck is a shared tail-drop
    :class:`~repro.elements.buffer.Buffer` drained by a
    :class:`~repro.cellular.link.TraceDrivenLink` — a corpus entry when
    ``trace`` is set, otherwise a constant ``link_rate_bps`` link.
    Emits per-flow throughput/delay summaries plus the fairness metrics
    (Jain's index over flow goodputs; convergence time of the windowed
    Jain index at ``fairness_threshold``)::

        python -m repro.runner run many_flow_contention \\
            --set flows=16 --set isender_flows=4 --set duration=20
    """
    if flows < 1:
        raise ConfigurationError(f"flows must be at least 1, got {flows!r}")
    if not 0 <= isender_flows <= flows:
        raise ConfigurationError(
            f"isender_flows ({isender_flows!r}) must lie in [0, flows]"
        )
    mix_kinds = [kind.strip() for kind in mix.split(",") if kind.strip()]
    unknown = sorted(set(mix_kinds) - set(MANY_FLOW_SENDER_KINDS))
    if unknown:
        raise ConfigurationError(
            f"unknown sender kind(s) in mix: {', '.join(unknown)} "
            f"(known: {', '.join(sorted(MANY_FLOW_SENDER_KINDS))})"
        )
    if isender_flows < flows and not mix_kinds:
        raise ConfigurationError("mix must name at least one sender kind")

    if trace:
        link_trace = open_corpus_store(corpus_dir or None).get(trace)
    else:
        link_trace = LinkTrace.constant(link_rate_bps, duration + 10.0)
    mean_rate = link_trace.mean_rate()
    buffer_bits = buffer_seconds * mean_rate

    network = Network(seed=seed)
    buffer = Buffer(capacity_bits=buffer_bits, name="shared-buffer")
    link = TraceDrivenLink(link_trace, name="bottleneck")
    buffer.connect(link)
    tail = link
    if propagation_delay > 0.0:
        delay = Delay(delay=propagation_delay, name="path-delay")
        tail.connect(delay)
        tail = delay

    # One Receiver per flow: every sender owns its receiver's on_deliver
    # ACK hook, so flows sharing a receiver would steal each other's ACK
    # clock.  The demux fans the bottleneck's output back out per flow.
    fair_share = mean_rate / flows
    if isender_flows > 0:
        isender_config = many_flow_sender_config(
            {
                "alpha": alpha,
                "belief_backend": belief_backend,
                "rollout_backend": rollout_backend,
                "policy": policy,
                "packet_bits": packet_bits,
            }
        )
        isender_prior = many_flow_sender_prior(fair_share, buffer_bits, packet_bits)
        shared_planner = SharedPlanner(isender_config.build_planner())
    flow_names: list[str] = []
    flow_kinds: list[str] = []
    senders: list[Any] = []
    receivers: dict[str, Receiver] = {}
    branches: dict[str, Any] = {}
    for index in range(flows):
        if index < isender_flows:
            kind = "isender"
        else:
            kind = mix_kinds[(index - isender_flows) % len(mix_kinds)]
        flow = f"{kind}-{index}"
        receiver = Receiver(name=f"recv-{flow}", accept_flows={flow})
        if kind == "isender":
            # Each flow owns its belief and its cache or table: senders
            # must not share inference state.  They share one planner,
            # whose exact per-instant memo plans a belief they all hold
            # (every flow's opening plans) once for all of them.
            parts = build_components(
                isender_config, isender_prior, planner=shared_planner
            )
            sender = ISender(
                parts.belief,
                parts.planner,
                receiver,
                flow=flow,
                packet_bits=packet_bits,
                name=flow,
                policy=parts.policy,
            )
        else:
            sender = MANY_FLOW_SENDER_KINDS[kind](
                receiver, flow=flow, packet_bits=packet_bits, name=flow
            )
        sender.connect(buffer)
        senders.append(sender)
        flow_names.append(flow)
        flow_kinds.append(kind)
        receivers[flow] = receiver
        branches[flow] = receiver
    demux = FlowDemux(branches, name="flow-demux")
    tail.connect(demux)
    # Register roots only after the demux is wired: Network.add walks each
    # sender's downstream graph at add time, and the receivers are only
    # reachable through the demux.
    network.add(*senders)
    network.run(until=duration)

    goodputs = {
        flow: receivers[flow].throughput_bps(0.0, duration, flow=flow)
        for flow in flow_names
    }
    window_starts, rate_rows = flow_rate_matrix(
        {flow: receivers[flow].deliveries for flow in flow_names},
        start=0.0,
        end=duration,
        window=fairness_window,
    )
    converged_at = convergence_time(
        window_starts, rate_rows, threshold=fairness_threshold
    )
    delays = [
        delivery.delay
        for flow in flow_names
        for delivery in receivers[flow].deliveries
    ]
    total_goodput = sum(goodputs.values())
    kind_goodputs = {
        kind: [goodputs[flow] for flow, k in zip(flow_names, flow_kinds) if k == kind]
        for kind in set(flow_kinds)
    }
    isender_rates = kind_goodputs.get("isender", [])
    baseline_rates = [
        goodputs[flow]
        for flow, kind in zip(flow_names, flow_kinds)
        if kind != "isender"
    ]
    metrics = {
        "flows": float(flows),
        "isender_flows": float(isender_flows),
        "jain_index": jain_index(list(goodputs.values())),
        "convergence_time_s": converged_at if converged_at is not None else -1.0,
        "total_goodput_bps": total_goodput,
        "mean_flow_goodput_bps": total_goodput / flows,
        "min_flow_goodput_bps": min(goodputs.values()),
        "max_flow_goodput_bps": max(goodputs.values()),
        "utilization": total_goodput / mean_rate,
        "goodput_isender_bps": (
            sum(isender_rates) / len(isender_rates) if isender_rates else 0.0
        ),
        "goodput_baseline_bps": (
            sum(baseline_rates) / len(baseline_rates) if baseline_rates else 0.0
        ),
        "mean_delay_s": sum(delays) / len(delays) if delays else 0.0,
        "max_delay_s": max(delays) if delays else 0.0,
        "buffer_drops": buffer.drop_count,
        "demux_ignored": demux.ignored_count,
        "events_processed": network.sim.events_processed,
    }
    if per_flow_metrics:
        for index, flow in enumerate(flow_names):
            metrics[f"flow_{index:03d}_goodput_bps"] = goodputs[flow]
    return metrics


# ------------------------------------------------------------- spec generators


def loss_delay_buffer_specs(
    losses: Sequence[float] = (0.0, 0.02, 0.1),
    delays: Sequence[float] = (0.0, 0.02, 0.08),
    buffers: Sequence[float] = (120_000.0, 480_000.0, 1_920_000.0),
    seeds: Sequence[int] | int = (0,),
    duration: float = 20.0,
    link_rate_bps: float = 1_000_000.0,
) -> list[ScenarioSpec]:
    """The loss × delay × buffer grid over the ``single_link_tcp`` scenario."""
    return grid(
        "single_link_tcp",
        seeds=seeds,
        base={"duration": duration, "link_rate_bps": link_rate_bps},
        loss_rate=list(losses),
        extra_delay_s=list(delays),
        buffer_bits=list(buffers),
    )


def many_flow_specs(
    flow_counts: Sequence[int] = (4, 16, 64),
    seeds: Sequence[int] | int = (0,),
    duration: float = 20.0,
    **params: Any,
) -> list[ScenarioSpec]:
    """A flow-count scaling sweep over ``many_flow_contention``."""
    return grid(
        "many_flow_contention",
        seeds=seeds,
        base={"duration": duration, **params},
        flows=list(flow_counts),
    )
