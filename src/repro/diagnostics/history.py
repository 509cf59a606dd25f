"""Cached-sweep auto-bisection: which grid region changed identity?

:func:`bisect_cached_sweep` replays a sweep's grid points through the
:class:`~repro.runner.cache.ResultCache` *key space only*: each spec is
classified as a cache hit or miss without executing anything.  Because
cache keys fold in scenario params, seeds, config fingerprints, and code
identity, the misses are exactly the grid region whose identity changed —
the region a regression entered — and the axis values appearing only
among misses localize it further.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.runner.cache import ResultCache
from repro.runner.spec import ScenarioSpec

__all__ = ["SweepBisection", "bisect_cached_sweep"]


@dataclass
class SweepBisection:
    """Hit/miss partition of a sweep's grid through the result cache."""

    hits: list[ScenarioSpec] = field(default_factory=list)
    misses: list[ScenarioSpec] = field(default_factory=list)
    #: Axis name -> values that appear only among cache misses.
    suspect_axes: dict[str, list] = field(default_factory=dict)

    @property
    def localized(self) -> bool:
        return bool(self.suspect_axes)

    def render(self) -> str:
        lines = [
            f"cached sweep bisection: {len(self.hits)} hit(s), "
            f"{len(self.misses)} miss(es)"
        ]
        if not self.misses:
            lines.append("  every point replays from cache — no region changed")
        elif not self.hits:
            lines.append(
                "  every point misses — a global identity change "
                "(code, defaults, or schema), not a localized region"
            )
        elif self.localized:
            for axis, values in sorted(self.suspect_axes.items()):
                rendered = ", ".join(repr(value) for value in values)
                lines.append(f"  suspect axis {axis!r}: misses only at {rendered}")
        else:
            lines.append("  misses do not localize to any single axis")
        for spec in self.misses:
            lines.append(f"  miss: {spec.label}")
        return "\n".join(lines)


def _axis_values(specs: Sequence[ScenarioSpec]) -> dict[str, set[str]]:
    values: dict[str, set[str]] = {}
    for spec in specs:
        for axis, value in spec.params.items():
            values.setdefault(axis, set()).add(repr(value))
        values.setdefault("seed", set()).add(repr(spec.seed))
    return values


def bisect_cached_sweep(
    cache: ResultCache,
    specs: Sequence[ScenarioSpec],
    registry=None,
) -> SweepBisection:
    """Partition ``specs`` into cache hits and misses; localize the misses.

    Nothing executes: each point is probed purely through its cache key.
    A value of some parameter axis (or seed) that occurs *only* among
    misses marks the grid region whose identity changed since the cache
    was populated — the region to re-run first when hunting a regression.
    """
    bisection = SweepBisection()
    reprs: dict[str, object] = {}
    for spec in specs:
        for value in list(spec.params.values()) + [spec.seed]:
            reprs.setdefault(repr(value), value)
        result = cache.load_point(cache.point_key(spec, registry), spec)
        (bisection.hits if result is not None else bisection.misses).append(spec)
    if bisection.hits and bisection.misses:
        hit_values = _axis_values(bisection.hits)
        miss_values = _axis_values(bisection.misses)
        for axis, misses in sorted(miss_values.items()):
            only_missing = misses - hit_values.get(axis, set())
            if only_missing:
                bisection.suspect_axes[axis] = sorted(
                    (reprs[rendered] for rendered in only_missing), key=repr
                )
    return bisection
