"""Explicit instantaneous utility functions (§3.3).

The paper defines the instantaneous utility of a packet as its size in bits
discounted exponentially in how far in the future it is received, so that a
stream of packets accumulates utility nearly linearly in throughput.  The
sender's overall utility adds the cross traffic's utility weighted by a
coefficient α, and may optionally penalize the latency the sender inflicts
on cross traffic.

The literal formula in the paper ("divided by e^τ, τ in milliseconds") is
inconsistent with the paper's own linearity argument, so the discount
timescale here is an explicit parameter (see DESIGN.md, substitutions).  The
qualitative behaviour — throughput is rewarded nearly linearly, and packets
delivered sooner are worth slightly more — is preserved for any timescale
that is long compared with the packet service time.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Protocol

import numpy as np

from repro.errors import UtilityError
from repro.inference.hypothesis import RolloutOutcome

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.inference.vectorized.rollout import BatchedRolloutOutcome


class UtilityFunction(Protocol):
    """Anything that can value the predicted outcome of an action.

    Implementations may additionally provide ``evaluate_batch(outcome)``
    taking a :class:`~repro.inference.vectorized.rollout.BatchedRolloutOutcome`
    and returning one value per lane; the vectorized planner uses it when
    present and falls back to per-lane ``evaluate`` calls otherwise.
    """

    def evaluate(self, outcome: RolloutOutcome) -> float:
        """Return the (expected) utility of the rollout outcome."""
        ...


class ExponentialDiscount:
    """Discount factor ``exp(-(t - t0) / timescale)`` for deliveries at time ``t``."""

    def __init__(self, timescale: float) -> None:
        if not timescale > 0.0:  # NaN fails it too
            raise UtilityError(f"discount timescale must be positive, got {timescale!r}")
        self.timescale = timescale

    def factor(self, delivery_time: float, reference_time: float) -> float:
        """Discount applied to a delivery ``delivery_time - reference_time`` ahead."""
        lag = max(0.0, delivery_time - reference_time)
        return math.exp(-lag / self.timescale)


class AlphaWeightedUtility:
    """Own discounted throughput plus α times the cross traffic's (§4).

    Parameters
    ----------
    alpha:
        Relative value of cross-traffic bits (the α swept in Figure 3).
    discount_timescale:
        Timescale, in seconds, of the exponential delivery-delay discount.
    latency_penalty:
        Utility subtracted per cross-traffic bit-second of delay accumulated
        within the rollout horizon.  Zero reproduces the Figure-3 utility; a
        positive value reproduces the "drain the buffer first" behaviour of
        §4's second prose scenario.
    """

    def __init__(
        self,
        alpha: float = 1.0,
        discount_timescale: float = 10.0,
        latency_penalty: float = 0.0,
    ) -> None:
        # Each check is written so that NaN fails it.
        if not alpha >= 0.0:
            raise UtilityError(f"alpha must be non-negative, got {alpha!r}")
        if not latency_penalty >= 0.0:
            raise UtilityError(f"latency_penalty must be non-negative, got {latency_penalty!r}")
        self.alpha = alpha
        self.discount = ExponentialDiscount(discount_timescale)
        self.latency_penalty = latency_penalty

    def evaluate(self, outcome: RolloutOutcome) -> float:
        reference = outcome.decision_time
        own_value = sum(
            bits * survival * self.discount.factor(time, reference)
            for time, bits, survival in outcome.own_deliveries
        )
        cross_value = sum(
            bits * survival * self.discount.factor(time, reference)
            for time, bits, survival in outcome.cross_deliveries
        )
        value = own_value + self.alpha * cross_value
        if self.latency_penalty > 0.0:
            # Cross bits delivered within the horizon are charged their actual
            # lateness; cross bits still stuck in the queue at the end of the
            # horizon are charged the full horizon, so an action can never
            # look better merely by pushing cross traffic past the horizon.
            lateness = sum(
                bits * max(0.0, time - reference)
                for time, bits, _survival in outcome.cross_deliveries
            )
            lateness += outcome.final_cross_backlog_bits * outcome.horizon
            # A cross packet forced out of the buffer must not be cheaper than
            # one merely delayed, so drops are charged the full horizon too.
            lateness += sum(bits for _time, bits in outcome.cross_drops) * outcome.horizon
            value -= self.latency_penalty * self.alpha * lateness
        return value

    def evaluate_batch(self, outcome: "BatchedRolloutOutcome") -> np.ndarray:
        """One utility per (action × hypothesis) lane, as a flat array.

        Applies the same arithmetic as :meth:`evaluate` — identical term
        order per lane — with the single documented divergence that the
        discount uses ``np.exp`` instead of ``math.exp`` (≤1 ulp per term,
        hence the planner's ``1e-9`` relative equivalence tolerance).  Each
        lane starts from its base column's top-to-bottom partial sum at its
        delivered count, and ``np.add.at`` adds its arrival terms left to
        right: the scalar ``sum``'s order.  The latency penalty charges each
        lane at its own horizon.
        """
        lanes = outcome.lanes
        reference = outcome.decision_time
        timescale = self.discount.timescale
        base, columns = outcome.base_time.shape
        grid = (lanes // max(columns, 1), columns)  # (action, column) for each lane
        survival = outcome.own_survival[:columns]
        base_factor = np.exp(-np.maximum(0.0, outcome.base_time - reference) / timescale)

        delivered = np.zeros((base + 1, columns))
        terms = (outcome.packet_bits * survival) * base_factor
        np.add.accumulate(np.where(outcome.base_own, terms, 0.0), axis=0, out=delivered[1:])
        own_value = delivered[outcome.base_done.reshape(grid), np.arange(columns)].ravel()
        if outcome.own_time.size:
            factor = np.exp(
                -np.maximum(0.0, outcome.own_time - reference) / timescale
            )
            terms = (outcome.packet_bits * outcome.own_survival[outcome.own_lane]) * factor
            np.add.at(own_value, outcome.own_lane, terms)
        terms = (outcome.base_bits * survival) * base_factor
        cross_value = np.zeros(grid)
        cross_value += np.add.accumulate(np.where(outcome.base_cross, terms, 0.0), axis=0)[-1]
        cross_value = cross_value.ravel()
        if outcome.cross_time.size:
            factor = np.exp(
                -np.maximum(0.0, outcome.cross_time - reference) / timescale
            )
            terms = (outcome.cross_bits * outcome.own_survival[outcome.cross_lane]) * factor
            np.add.at(cross_value, outcome.cross_lane, terms)
        value = own_value + self.alpha * cross_value

        if self.latency_penalty > 0.0:
            terms = outcome.base_bits * np.maximum(0.0, outcome.base_time - reference)
            lateness = np.zeros(grid)
            lateness += np.add.accumulate(np.where(outcome.base_cross, terms, 0.0), axis=0)[-1]
            lateness = lateness.ravel()
            if outcome.cross_time.size:
                np.add.at(
                    lateness,
                    outcome.cross_lane,
                    outcome.cross_bits * np.maximum(0.0, outcome.cross_time - reference),
                )
            lateness += outcome.final_bits()[1] * outcome.horizon
            if outcome.cross_drop_bits.size:
                dropped = np.zeros(lanes)
                np.add.at(dropped, outcome.cross_drop_lane, outcome.cross_drop_bits)
                lateness += dropped * outcome.horizon
            value = value - self.latency_penalty * self.alpha * lateness
        return value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AlphaWeightedUtility(alpha={self.alpha}, "
            f"timescale={self.discount.timescale}, latency_penalty={self.latency_penalty})"
        )


class LatencyPenaltyUtility(AlphaWeightedUtility):
    """α-weighted utility with a latency penalty on cross traffic.

    This is the utility of §4's second prose scenario: with cross traffic
    present and induced latency penalized, the sender drains the shared
    buffer before ramping up to the link speed.
    """

    def __init__(
        self,
        alpha: float = 1.0,
        discount_timescale: float = 10.0,
        latency_penalty: float = 0.1,
    ) -> None:
        super().__init__(
            alpha=alpha,
            discount_timescale=discount_timescale,
            latency_penalty=latency_penalty,
        )
