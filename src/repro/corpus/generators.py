"""Seeded synthetic workload families for the trace corpus.

Each family is a small frozen dataclass, checked when it is constructed,
whose ``build(seed)`` returns a :class:`~repro.corpus.trace.LinkTrace`.
A family instance plus a seed is a complete, reproducible description of a
workload, which is exactly what the corpus manifest records for generator
entries: the family name, the constructor parameters, and the seed.
Re-materializing the entry from the manifest always reproduces the same
trace (and hence the same digest), so a pruned generator blob rebuilds
transparently.

The five families cover the workload axes the paper's cellular setting
cares about:

* :class:`RandomWalkLink` — the Figure-1 link: a bounded, mean-reverting
  multiplicative random walk (fading, scheduling, cell load);
* :class:`MarkovOnOffLink` — two-state capacity (coverage vs. shadowing),
  with exponentially-distributed dwell times;
* :class:`DiurnalLoadLink` — slow sinusoidal load curve between a trough
  and a peak capacity, with seeded multiplicative jitter;
* :class:`FlashCrowdLink` — a steady link whose capacity collapses for a
  crowd interval and ramps back linearly (cell overload);
* :class:`CorrelatedLossBurstLink` — a Gilbert–Elliott good/bad process;
  loss bursts are modeled as deep capacity fades, so the same artifact
  drives any rate-driven link without a separate loss channel.

All randomness flows through one ``random.Random(seed)`` per build, so
traces are deterministic per ``(family params, seed)``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, fields
from typing import Mapping

from repro.corpus.trace import LinkTrace
from repro.errors import ConfigurationError

__all__ = [
    "GENERATOR_FAMILIES",
    "CorrelatedLossBurstLink",
    "DiurnalLoadLink",
    "FlashCrowdLink",
    "MarkovOnOffLink",
    "RandomWalkLink",
    "build_generator",
]


def _require_positive(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:  # NaN fails it too
        raise ConfigurationError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class RandomWalkLink:
    """Figure 1's link: a piecewise-constant, mean-reverting random walk.

    A cellular downlink's capacity varies on sub-second timescales.  The
    log-rate takes a Gaussian step of standard deviation ``volatility``
    every ``step_interval`` seconds, is pulled back toward ``nominal_bps``
    with strength ``reversion`` (0..1) and is clamped to ``[min_bps,
    max_bps]`` — the two properties Figure 1 depends on: the rate is
    sometimes far below nominal (so queues build) and it is autocorrelated
    (so they persist long enough to matter).
    """

    nominal_bps: float = 4_000_000.0
    min_bps: float = 400_000.0
    max_bps: float = 10_000_000.0
    step_interval: float = 0.5
    volatility: float = 0.35
    reversion: float = 0.15
    duration: float = 600.0

    def __post_init__(self) -> None:
        for name in ("nominal_bps", "min_bps", "max_bps", "step_interval", "duration"):
            _require_positive(name, getattr(self, name))
        if not self.min_bps <= self.nominal_bps <= self.max_bps:
            raise ConfigurationError("require min_bps <= nominal_bps <= max_bps")
        if not 0.0 <= self.reversion <= 1.0:
            raise ConfigurationError("reversion must lie in [0, 1]")
        if not 0.0 <= self.volatility < math.inf:
            raise ConfigurationError(
                f"volatility must be non-negative and finite, got {self.volatility!r}"
            )

    def build(self, seed: int = 0) -> LinkTrace:
        rng = random.Random(seed)
        log_nominal = math.log(self.nominal_bps)
        log_rate = log_nominal
        times: list[float] = []
        rates: list[float] = []
        time = 0.0
        while time < self.duration:
            times.append(time)
            rates.append(min(self.max_bps, max(self.min_bps, math.exp(log_rate))))
            log_rate += self.reversion * (log_nominal - log_rate) + rng.gauss(
                0.0, self.volatility
            )
            time += self.step_interval
        return LinkTrace(
            times=times, rates=rates, duration=self.duration, source="random_walk"
        )


@dataclass(frozen=True)
class MarkovOnOffLink:
    """Two-state Markov link: full capacity, or a degraded 'off' rate.

    Dwell times in each state are exponential with the given means, the
    classic on/off fluid model for a link that alternates between good
    coverage and deep shadowing.
    """

    on_rate_bps: float = 4_000_000.0
    off_rate_bps: float = 200_000.0
    mean_on_s: float = 8.0
    mean_off_s: float = 2.0
    duration: float = 120.0

    def __post_init__(self) -> None:
        _require_positive("on_rate_bps", self.on_rate_bps)
        _require_positive("off_rate_bps", self.off_rate_bps)
        _require_positive("mean_on_s", self.mean_on_s)
        _require_positive("mean_off_s", self.mean_off_s)
        _require_positive("duration", self.duration)

    def build(self, seed: int = 0) -> LinkTrace:
        rng = random.Random(seed)
        times: list[float] = []
        rates: list[float] = []
        time = 0.0
        on = True
        while time < self.duration:
            times.append(time)
            rates.append(self.on_rate_bps if on else self.off_rate_bps)
            mean = self.mean_on_s if on else self.mean_off_s
            time += rng.expovariate(1.0 / mean)
            on = not on
        return LinkTrace(
            times=times, rates=rates, duration=self.duration, source="markov_onoff"
        )


@dataclass(frozen=True)
class DiurnalLoadLink:
    """Capacity following a day-scale cosine between trough and peak.

    The per-step multiplicative jitter keeps the curve from being exactly
    periodic, the way background cell load never is.
    """

    peak_rate_bps: float = 6_000_000.0
    trough_rate_bps: float = 1_000_000.0
    period_s: float = 60.0
    step_interval: float = 1.0
    jitter: float = 0.05
    duration: float = 120.0

    def __post_init__(self) -> None:
        _require_positive("peak_rate_bps", self.peak_rate_bps)
        _require_positive("trough_rate_bps", self.trough_rate_bps)
        _require_positive("period_s", self.period_s)
        _require_positive("step_interval", self.step_interval)
        _require_positive("duration", self.duration)
        if self.trough_rate_bps > self.peak_rate_bps:
            raise ConfigurationError("trough_rate_bps must not exceed peak_rate_bps")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigurationError("jitter must lie in [0, 1)")

    def build(self, seed: int = 0) -> LinkTrace:
        rng = random.Random(seed)
        mid = (self.peak_rate_bps + self.trough_rate_bps) / 2.0
        swing = (self.peak_rate_bps - self.trough_rate_bps) / 2.0
        times: list[float] = []
        rates: list[float] = []
        time = 0.0
        while time < self.duration:
            base = mid + swing * math.cos(2.0 * math.pi * time / self.period_s)
            factor = 1.0 + rng.uniform(-self.jitter, self.jitter)
            times.append(time)
            rates.append(max(base * factor, self.trough_rate_bps * (1.0 - self.jitter)))
            time += self.step_interval
        return LinkTrace(
            times=times, rates=rates, duration=self.duration, source="diurnal"
        )


@dataclass(frozen=True)
class FlashCrowdLink:
    """A steady link hit by a crowd: capacity collapses, then ramps back.

    The crowd arrives at a seeded instant in the middle third of the
    trace, drops per-user capacity to ``crowd_rate_bps`` for
    ``crowd_duration_s``, then recovers linearly over ``recovery_s``.
    """

    base_rate_bps: float = 5_000_000.0
    crowd_rate_bps: float = 500_000.0
    crowd_duration_s: float = 15.0
    recovery_s: float = 10.0
    step_interval: float = 0.5
    duration: float = 120.0

    def __post_init__(self) -> None:
        _require_positive("base_rate_bps", self.base_rate_bps)
        _require_positive("crowd_rate_bps", self.crowd_rate_bps)
        _require_positive("crowd_duration_s", self.crowd_duration_s)
        _require_positive("recovery_s", self.recovery_s)
        _require_positive("step_interval", self.step_interval)
        _require_positive("duration", self.duration)
        if self.crowd_rate_bps > self.base_rate_bps:
            raise ConfigurationError("crowd_rate_bps must not exceed base_rate_bps")

    def build(self, seed: int = 0) -> LinkTrace:
        rng = random.Random(seed)
        onset = rng.uniform(self.duration / 3.0, 2.0 * self.duration / 3.0)
        crowd_end = onset + self.crowd_duration_s
        # Sample on the step grid plus the exact breakpoints, so the seeded
        # onset is visible in the trace even when it falls between steps.
        grid = [
            index * self.step_interval
            for index in range(math.ceil(self.duration / self.step_interval))
        ]
        breaks = (onset, crowd_end, crowd_end + self.recovery_s)
        sample_times = sorted(
            set(grid) | {point for point in breaks if 0.0 < point < self.duration}
        )
        times: list[float] = []
        rates: list[float] = []
        for time in sample_times:
            if time < onset or time >= crowd_end + self.recovery_s:
                rate = self.base_rate_bps
            elif time < crowd_end:
                rate = self.crowd_rate_bps
            else:
                frac = (time - crowd_end) / self.recovery_s
                rate = self.crowd_rate_bps + frac * (
                    self.base_rate_bps - self.crowd_rate_bps
                )
            times.append(time)
            rates.append(rate)
        return LinkTrace(
            times=times, rates=rates, duration=self.duration, source="flash_crowd"
        )


@dataclass(frozen=True)
class CorrelatedLossBurstLink:
    """Gilbert–Elliott bursty degradation as a capacity process.

    A two-state chain stepped every ``step_interval``: in the good state
    the link runs at ``good_rate_bps``; in the bad state capacity fades to
    ``good_rate_bps * bad_rate_fraction``.  Transition probabilities are
    per step, so bursts are geometrically distributed and correlated —
    the loss pattern the paper's cellular setting exhibits, expressed as
    deep rate fades so any rate-driven link consumes it directly.
    """

    good_rate_bps: float = 4_000_000.0
    bad_rate_fraction: float = 0.02
    p_good_to_bad: float = 0.02
    p_bad_to_good: float = 0.25
    step_interval: float = 0.2
    duration: float = 120.0

    def __post_init__(self) -> None:
        _require_positive("good_rate_bps", self.good_rate_bps)
        _require_positive("step_interval", self.step_interval)
        _require_positive("duration", self.duration)
        if not 0.0 < self.bad_rate_fraction <= 1.0:
            raise ConfigurationError("bad_rate_fraction must lie in (0, 1]")
        for name in ("p_good_to_bad", "p_bad_to_good"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must lie in [0, 1]")

    def build(self, seed: int = 0) -> LinkTrace:
        rng = random.Random(seed)
        bad_rate = self.good_rate_bps * self.bad_rate_fraction
        times: list[float] = []
        rates: list[float] = []
        time = 0.0
        good = True
        while time < self.duration:
            times.append(time)
            rates.append(self.good_rate_bps if good else bad_rate)
            flip = self.p_good_to_bad if good else self.p_bad_to_good
            if rng.random() < flip:
                good = not good
            time += self.step_interval
        return LinkTrace(
            times=times, rates=rates, duration=self.duration, source="loss_burst"
        )


#: Family name -> dataclass, the registry the manifest and CLI share.
GENERATOR_FAMILIES = {
    "random_walk": RandomWalkLink,
    "markov_onoff": MarkovOnOffLink,
    "diurnal": DiurnalLoadLink,
    "flash_crowd": FlashCrowdLink,
    "loss_burst": CorrelatedLossBurstLink,
}


def build_generator(family: str, params: Mapping | None = None):
    """Instantiate a generator family by name with keyword parameters."""
    try:
        cls = GENERATOR_FAMILIES[family]
    except KeyError:
        raise ConfigurationError(
            f"unknown generator family {family!r} "
            f"(known: {', '.join(sorted(GENERATOR_FAMILIES))})"
        ) from None
    params = dict(params or {})
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(params) - known)
    if unknown:
        raise ConfigurationError(
            f"unknown parameter(s) for {family}: {', '.join(unknown)} "
            f"(accepted: {', '.join(sorted(known))})"
        )
    return cls(**params)
