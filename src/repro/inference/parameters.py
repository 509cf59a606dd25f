"""Discretized parameter grids.

The paper's prior is "a discretized uniform distribution" over ranges of the
unknown network parameters (§4).  A :class:`ParameterSpec` describes the
support of one parameter; a :class:`ParameterGrid` is the Cartesian product
of several specs and can enumerate every combination with its prior
probability.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro._persist import canonical_digest
from repro.errors import ConfigurationError


def uniform_grid(low: float, high: float, count: int) -> tuple[float, ...]:
    """``count`` evenly spaced values covering ``[low, high]`` inclusive."""
    if count < 1:
        raise ConfigurationError(f"count must be at least 1, got {count!r}")
    if high < low:
        raise ConfigurationError(f"high ({high!r}) must not be below low ({low!r})")
    if count == 1:
        return (low,)
    step = (high - low) / (count - 1)
    return tuple(low + step * index for index in range(count))


def assignment_digest(assignment: Mapping[str, float]) -> str:
    """The 16-hex name of one parameter assignment in a decision signature.

    The :func:`~repro._persist.canonical_digest` of the assignment with every
    number written as a float, so it does not depend on dict order, and two
    assignments share a digest exactly when their sorted ``(name, value)``
    pairs compare equal (``1`` and ``1.0``, ``0.0`` and ``-0.0`` alike).
    Memoized on the items in insertion order, which that rule makes exact: a
    prior's points are hashed once per process, not once per belief built
    from them.
    """
    return _items_digest(tuple(assignment.items()))


@functools.lru_cache(maxsize=1 << 16)
def _items_digest(items: tuple) -> str:
    return canonical_digest(
        {
            name: float(value) + 0.0 if isinstance(value, (int, float)) else value
            for name, value in items
        }
    )


@dataclass(frozen=True)
class ParameterSpec:
    """The discretized support of one unknown parameter.

    Attributes
    ----------
    name:
        Parameter name (e.g. ``"link_rate_bps"``).
    values:
        The discrete support.
    weights:
        Optional prior weights, one per value; uniform when omitted.  They
        need not be normalized.
    """

    name: str
    values: tuple[float, ...]
    weights: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not self.values:
            raise ConfigurationError(f"parameter {self.name!r} needs at least one value")
        if self.weights is not None:
            if len(self.weights) != len(self.values):
                raise ConfigurationError(
                    f"parameter {self.name!r}: {len(self.weights)} weights for "
                    f"{len(self.values)} values"
                )
            if any(weight < 0 for weight in self.weights):
                raise ConfigurationError(f"parameter {self.name!r}: weights must be non-negative")
            if sum(self.weights) <= 0:
                raise ConfigurationError(f"parameter {self.name!r}: weights must not all be zero")

    def normalized_weights(self) -> tuple[float, ...]:
        """Prior probabilities of each value (summing to one)."""
        if self.weights is None:
            probability = 1.0 / len(self.values)
            return tuple(probability for _ in self.values)
        total = sum(self.weights)
        return tuple(weight / total for weight in self.weights)

    @property
    def size(self) -> int:
        """Number of discrete values."""
        return len(self.values)


@dataclass(frozen=True)
class ParameterGrid:
    """The Cartesian product of several :class:`ParameterSpec` objects."""

    specs: tuple[ParameterSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        names = [spec.name for spec in self.specs]
        if len(names) != len(set(names)):
            raise ConfigurationError(f"duplicate parameter names in grid: {names}")

    @property
    def size(self) -> int:
        """Total number of parameter combinations."""
        total = 1
        for spec in self.specs:
            total *= spec.size
        return total

    @property
    def names(self) -> tuple[str, ...]:
        """Names of the parameters, in grid order."""
        return tuple(spec.name for spec in self.specs)

    def spec(self, name: str) -> ParameterSpec:
        """Look up one spec by name."""
        for candidate in self.specs:
            if candidate.name == name:
                return candidate
        raise KeyError(f"no parameter named {name!r} in grid")

    def combinations(self) -> Iterator[tuple[Mapping[str, float], float]]:
        """Yield ``(assignment, prior_probability)`` for every combination."""
        value_lists = [spec.values for spec in self.specs]
        weight_lists = [spec.normalized_weights() for spec in self.specs]
        for values, weights in zip(
            itertools.product(*value_lists), itertools.product(*weight_lists)
        ):
            assignment = dict(zip(self.names, values))
            probability = 1.0
            for weight in weights:
                probability *= weight
            yield assignment, probability

