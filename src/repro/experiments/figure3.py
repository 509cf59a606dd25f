"""Figure 3 — varying the priority given to cross traffic.

The paper's main experiment: the Figure-2 network (12 kbit/s link, 70 %
cross traffic switched on/off every 100 seconds, 20 % last-mile loss,
96,000-bit buffer) with the ISender run once per value of α, the weight the
utility function gives to cross-traffic throughput.  The paper reports the
sequence-number-vs-time traces and makes four qualitative claims:

1. every sender starts slowly while it is uncertain of the parameters;
2. while the cross traffic is off, the sender transmits at the link speed;
3. while the cross traffic is on, higher α means a more deferential sender
   (α = 1 roughly fills the capacity the cross traffic leaves unused);
4. only the α < 1 sender causes buffer overflows.

:func:`run_figure3` reproduces the experiment and
:meth:`Figure3Result.check_claims` verifies the four claims on the measured
data (with tolerances, since our substrate is not the authors' simulator).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.api.config import SenderConfig
from repro.api.sender import build_sender
from repro.inference.prior import figure3_prior
from repro.metrics.summary import ExperimentRow
from repro.metrics.timeseries import TimeSeries
from repro.runner.backends import RunnerBase, SerialRunner
from repro.topology.presets import figure2_network
from repro.units import DEFAULT_PACKET_BITS

#: The §4 network's true link speed and last-mile loss rate.
LINK_RATE_BPS = 12_000.0
LOSS_RATE = 0.2


@dataclass
class Figure3AlphaResult:
    """Measurements for one value of α."""

    alpha: float
    sequence_series: TimeSeries
    packets_sent: int
    packets_acked: int
    rate_on1_bps: float
    rate_off_bps: float
    rate_on2_bps: float
    cross_rate_on2_bps: float
    buffer_drops: int
    cross_drops: int
    final_hypotheses: int
    degenerate_updates: int

    def row(self) -> ExperimentRow:
        """One summary row (the per-α series point the paper's figure shows)."""
        return ExperimentRow(
            label=f"alpha={self.alpha:g}",
            values={
                "sent": self.packets_sent,
                "acked": self.packets_acked,
                "rate_cross_on_1 (bps)": self.rate_on1_bps,
                "rate_cross_off (bps)": self.rate_off_bps,
                "rate_cross_on_2 (bps)": self.rate_on2_bps,
                "cross_rate_on_2 (bps)": self.cross_rate_on2_bps,
                "buffer_drops": self.buffer_drops,
                "hypotheses": self.final_hypotheses,
            },
        )


@dataclass
class Figure3Result:
    """The full α sweep."""

    duration: float
    switch_interval: float
    link_rate_bps: float
    loss_rate: float
    per_alpha: list[Figure3AlphaResult] = field(default_factory=list)

    def rows(self) -> list[ExperimentRow]:
        """Summary rows, one per α."""
        return [result.row() for result in self.per_alpha]

    def series(self) -> dict[str, TimeSeries]:
        """The sequence-number traces, keyed by α label (Figure 3's curves)."""
        return {f"alpha={r.alpha:g}": r.sequence_series for r in self.per_alpha}

    # ------------------------------------------------------------- the claims

    def check_claims(self) -> dict[str, bool]:
        """Evaluate the paper's four qualitative claims on the measured data."""
        ordered = sorted(self.per_alpha, key=lambda r: r.alpha)
        claims: dict[str, bool] = {}

        # Claim 1: slow start under uncertainty — the early rate is below the
        # eventual cross-off rate for every α.
        claims["starts_slowly"] = all(
            result.rate_on1_bps <= result.rate_off_bps + 1e-9
            or result.rate_on1_bps < 0.6 * self.link_rate_bps
            for result in ordered
        )

        # Claim 2: with cross traffic off, deliveries approach the link speed
        # (less stochastic loss).  We require at least 60 % of the lossy
        # capacity for the non-deferential senders (alpha <= 1).
        lossy_capacity = self.link_rate_bps * (1.0 - self.loss_rate)
        claims["link_speed_when_cross_off"] = all(
            result.rate_off_bps >= 0.6 * lossy_capacity
            for result in ordered
            if result.alpha <= 1.0
        )

        # Claim 3: deference is monotone in alpha while cross traffic is on
        # (measured on total packets sent, the most robust statistic).  A 20 %
        # slack absorbs run-to-run noise on shortened scenarios; the extreme
        # alphas must still be strictly ordered.
        sent = [result.packets_sent for result in ordered]
        monotone_with_slack = all(
            earlier >= 0.8 * later for earlier, later in zip(sent, sent[1:])
        )
        extremes_ordered = sent[0] > sent[-1]
        claims["deference_monotone_in_alpha"] = monotone_with_slack and extremes_ordered

        # Claim 4: only alpha < 1 causes (meaningful) buffer overflow.
        claims["only_alpha_below_one_overflows"] = all(
            (result.buffer_drops >= 5) == (result.alpha < 1.0) for result in ordered
        )
        return claims


def run_figure3_point(
    alpha: float,
    duration: float = 300.0,
    switch_interval: float = 100.0,
    link_rate_bps: float = LINK_RATE_BPS,
    cross_fraction: float = 0.7,
    loss_rate: float = LOSS_RATE,
    buffer_capacity_bits: float = 96_000.0,
    seed: int = 1,
    settings: SenderConfig | None = None,
) -> Figure3AlphaResult:
    """Run one α point of the Figure-3 experiment.

    This is the unit the scenario runner parallelizes: a module-level
    function of picklable arguments whose result depends only on them, so
    a sweep computes the same numbers regardless of backend.

    ``settings`` is the sender calibration, a
    :class:`repro.api.SenderConfig` (``None`` means the defaults).  The
    sender's prior is :func:`~repro.inference.prior.figure3_prior` on a
    4 × 4 × 3 × 4 grid (link, cross fraction, loss, buffer) with an empty
    buffer: coarse, to keep the ensemble small, as the paper notes is
    necessary for the rejection-sampling approach.
    """
    base = settings if settings is not None else SenderConfig()
    phase = switch_interval
    network = figure2_network(
        link_rate_bps=link_rate_bps,
        cross_fraction=cross_fraction,
        loss_rate=loss_rate,
        buffer_capacity_bits=buffer_capacity_bits,
        packet_bits=DEFAULT_PACKET_BITS,
        switch_interval=switch_interval,
        seed=seed,
    )
    prior = figure3_prior(
        link_rate_points=4,
        cross_fraction_points=4,
        loss_points=3,
        buffer_points=4,
        fill_points=1,
        packet_bits=DEFAULT_PACKET_BITS,
    )
    run_config = replace(base, alpha=alpha, packet_bits=DEFAULT_PACKET_BITS)
    sender = build_sender(run_config, network, prior=prior)
    network.network.run(until=duration)

    receiver = network.sender_receiver
    margin = min(20.0, phase / 5.0)
    rate_on1 = receiver.throughput_bps(margin, phase)
    rate_off = receiver.throughput_bps(phase + margin / 2.0, 2.0 * phase)
    rate_on2 = receiver.throughput_bps(2.0 * phase + margin / 2.0, min(3.0 * phase, duration))
    cross_on2 = network.cross_receiver.throughput_bps(
        2.0 * phase + margin / 2.0, min(3.0 * phase, duration), flow=network.cross_flow
    )
    return Figure3AlphaResult(
        alpha=alpha,
        sequence_series=TimeSeries.from_pairs(sender.sequence_series()),
        packets_sent=sender.packets_sent,
        packets_acked=sender.packets_acked,
        rate_on1_bps=rate_on1,
        rate_off_bps=rate_off,
        rate_on2_bps=rate_on2,
        cross_rate_on2_bps=cross_on2,
        buffer_drops=network.buffer.drop_count,
        cross_drops=network.buffer.drops_by_flow.get(network.cross_flow, 0),
        final_hypotheses=len(sender.belief),
        degenerate_updates=sender.belief.degenerate_updates,
    )


def run_figure3(
    alphas: Sequence[float] = (0.9, 1.0, 2.5, 5.0),
    duration: float = 300.0,
    switch_interval: float = 100.0,
    runner: "RunnerBase | None" = None,
) -> Figure3Result:
    """Run the Figure-3 experiment: :func:`run_figure3_point` once per α, on
    the paper's network with seed 1 and the Figure-3 sender calibration.

    Parameters
    ----------
    alphas:
        The cross-traffic priorities to sweep (the paper uses 0.9, 1, 2.5, 5).
    duration / switch_interval:
        Total simulated time and the cross-traffic on/off half-period.  The
        paper uses 300 s / 100 s; the tests use a shortened version.
    runner:
        Execution backend for the sweep — any object with
        ``map(fn, kwargs_list)`` such as
        :class:`repro.runner.backends.SerialRunner` (the default) or
        :class:`repro.runner.backends.ParallelRunner` to fan the α points
        out over worker processes.
    """
    if runner is None:
        runner = SerialRunner()
    tasks = [
        {
            "alpha": alpha,
            "duration": duration,
            "switch_interval": switch_interval,
        }
        for alpha in alphas
    ]
    result = Figure3Result(
        duration=duration,
        switch_interval=switch_interval,
        link_rate_bps=LINK_RATE_BPS,
        loss_rate=LOSS_RATE,
    )
    result.per_alpha.extend(runner.map(run_figure3_point, tasks))
    return result
