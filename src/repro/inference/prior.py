"""Prior distributions over network configurations.

A :class:`Prior` is a thin wrapper around a
:class:`~repro.inference.parameters.ParameterGrid` whose parameter names are
understood by :class:`~repro.inference.linkmodel.LinkModelParams`.  The
module also provides the two priors the experiments use:

* :func:`figure3_prior` — the §4 prior of the paper (link speed, cross rate,
  loss rate, buffer capacity, initial fullness, mean time to switch), with a
  configurable grid resolution.
* :func:`single_link_prior` — a smaller prior for the "simple configuration"
  scenarios (unknown link speed and initial buffer fullness only).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from repro.errors import ConfigurationError
from repro.inference.parameters import (
    ParameterGrid,
    ParameterSpec,
    assignment_digest,
    uniform_grid,
)
from repro.units import DEFAULT_PACKET_BITS


@dataclass(frozen=True)
class Prior:
    """A prior distribution over discretized network configurations."""

    grid: ParameterGrid
    #: Parameters shared by every configuration (not part of the grid).
    fixed: Mapping[str, float] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.fixed is None:
            object.__setattr__(self, "fixed", {})

    @property
    def size(self) -> int:
        """Number of configurations in the prior's support."""
        return self.grid.size

    def combinations(self) -> Iterator[tuple[dict[str, float], float]]:
        """Yield ``(parameter assignment, prior probability)`` pairs."""
        for assignment, probability in self.grid.combinations():
            merged = dict(self.fixed)
            merged.update(assignment)
            yield merged, probability

    def points_by_digest(self) -> dict[str, dict[str, float]]:
        """Every assignment of the support, keyed by the
        :func:`~repro.inference.parameters.assignment_digest` a decision
        signature row names it by."""
        return {assignment_digest(assignment): assignment for assignment, _ in self.combinations()}



def figure3_prior(
    link_rate_low: float = 10_000.0,
    link_rate_high: float = 16_000.0,
    link_rate_points: int = 4,
    cross_fraction_low: float = 0.4,
    cross_fraction_high: float = 0.7,
    cross_fraction_points: int = 4,
    loss_low: float = 0.0,
    loss_high: float = 0.2,
    loss_points: int = 3,
    buffer_low: float = 72_000.0,
    buffer_high: float = 108_000.0,
    buffer_points: int = 3,
    fill_points: int = 2,
    packet_bits: float = DEFAULT_PACKET_BITS,
) -> Prior:
    """The paper's §4 prior, discretized.

    The ranges default to the table in §4:

    =====================  =======================  ==========
    Parameter              Prior range              True value
    =====================  =======================  ==========
    c (link speed)         10,000 – 16,000 bit/s    12,000
    r (cross rate)         0.4 c – 0.7 c            0.7 c
    t (mean time to switch) 100 s (fixed)            n/a
    p (loss rate)          0 – 0.2                  0.2
    buffer capacity        72,000 – 108,000 bits    96,000
    initial fullness       0 – capacity             0
    =====================  =======================  ==========

    ``*_points`` control the grid resolution (coarser grids keep the
    rejection-sampling ensemble small, as the paper notes is necessary).
    The cross-traffic rate is gridded as a *fraction of the link speed*, as
    in the paper's table, and converted to packets per second per
    configuration.  The sender starts sure that the cross traffic is on, as
    the paper's does.
    """
    if link_rate_points < 1 or cross_fraction_points < 1:
        raise ConfigurationError("grid resolutions must be at least 1")

    link_values = uniform_grid(link_rate_low, link_rate_high, link_rate_points)
    fraction_values = uniform_grid(cross_fraction_low, cross_fraction_high, cross_fraction_points)
    loss_values = uniform_grid(loss_low, loss_high, loss_points)
    buffer_values = uniform_grid(buffer_low, buffer_high, buffer_points)
    fill_fractions = uniform_grid(0.0, 1.0, fill_points) if fill_points > 1 else (0.0,)

    # The cross rate and initial fill are defined relative to other gridded
    # parameters, so the grid stores the *relative* quantities and the
    # Hypothesis factory resolves them.  To keep Hypothesis.from_params
    # usable directly, we expand the relative parameters into absolute ones
    # here by enumerating the joint support explicitly.
    grid = ParameterGrid(
        specs=(
            ParameterSpec("link_rate_bps", link_values),
            ParameterSpec("cross_fraction", fraction_values),
            ParameterSpec("loss_rate", loss_values),
            ParameterSpec("buffer_capacity_bits", buffer_values),
            ParameterSpec("fill_fraction", fill_fractions),
        )
    )
    fixed = {
        "mean_time_to_switch": 100.0,
        "cross_packet_bits": packet_bits,
        "packet_bits": packet_bits,
    }
    return DerivedPrior(grid=grid, fixed=fixed)


def single_link_prior(
    link_rate_low: float = 8_000.0,
    link_rate_high: float = 16_000.0,
    link_rate_points: int = 5,
    buffer_capacity_bits: float = 96_000.0,
    fill_points: int = 3,
    loss_rate: float = 0.0,
    cross_rate_pps: float = 0.0,
    packet_bits: float = DEFAULT_PACKET_BITS,
) -> Prior:
    """Prior for the §4 "simple configuration": unknown link speed and fullness."""
    link_values = uniform_grid(link_rate_low, link_rate_high, link_rate_points)
    fill_fractions = uniform_grid(0.0, 1.0, fill_points) if fill_points > 1 else (0.0,)
    grid = ParameterGrid(
        specs=(
            ParameterSpec("link_rate_bps", link_values),
            ParameterSpec("fill_fraction", fill_fractions),
        )
    )
    fixed = {
        "buffer_capacity_bits": buffer_capacity_bits,
        "loss_rate": loss_rate,
        "cross_packet_bits": packet_bits,
        "packet_bits": packet_bits,
    }
    if cross_rate_pps > 0:
        fixed["cross_rate_pps"] = cross_rate_pps
        fixed["cross_fraction"] = cross_rate_pps * packet_bits / ((link_rate_low + link_rate_high) / 2)
    return DerivedPrior(grid=grid, fixed=fixed)


class DerivedPrior(Prior):
    """A prior whose grid contains *relative* parameters.

    ``cross_fraction`` (cross rate as a fraction of the link speed) and
    ``fill_fraction`` (initial fullness as a fraction of the buffer
    capacity) are resolved into the absolute ``cross_rate_pps`` and
    ``initial_fill_bits`` the link model needs.
    """

    def combinations(self) -> Iterator[tuple[dict[str, float], float]]:
        for assignment, probability in super().combinations():
            resolved = dict(assignment)
            packet_bits = resolved.get("cross_packet_bits", DEFAULT_PACKET_BITS)
            if "cross_fraction" in resolved and "cross_rate_pps" not in resolved:
                fraction = resolved["cross_fraction"]
                resolved["cross_rate_pps"] = fraction * resolved["link_rate_bps"] / packet_bits
            if "fill_fraction" in resolved and "initial_fill_bits" not in resolved:
                resolved["initial_fill_bits"] = (
                    resolved["fill_fraction"] * resolved["buffer_capacity_bits"]
                )
            yield resolved, probability
