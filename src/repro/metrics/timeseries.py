"""Time-series containers and the series the paper's figures plot.

* Figure 1 plots round-trip time against time for a TCP download.
* Figure 3 plots cumulative sequence number against time for the ISender.

:class:`TimeSeries` is a small immutable-ish container of ``(time, value)``
pairs with the resampling/windowing operations the benches need.  Figure 3's
series comes from :meth:`~repro.core.isender.ISender.sequence_series`.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True)
class TimeSeries:
    """A sequence of ``(time, value)`` samples ordered by time."""

    times: tuple[float, ...]
    values: tuple[float, ...]

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "TimeSeries":
        """Build a series from an iterable of ``(time, value)`` pairs."""
        ordered = sorted(pairs, key=lambda pair: pair[0])
        times = tuple(t for t, _ in ordered)
        values = tuple(v for _, v in ordered)
        return cls(times=times, values=values)

    def __len__(self) -> int:
        return len(self.times)

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(zip(self.times, self.values))

    def is_empty(self) -> bool:
        """Whether the series has no samples."""
        return len(self.times) == 0

    # ------------------------------------------------------------- selection

    def between(self, start: float, end: float) -> "TimeSeries":
        """Samples with ``start <= time < end``."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_left(self.times, end)
        return TimeSeries(times=self.times[lo:hi], values=self.values[lo:hi])

    # ------------------------------------------------------------ statistics

    def max(self) -> float:
        """Largest value (raises on an empty series)."""
        return max(self.values)

    def min(self) -> float:
        """Smallest value (raises on an empty series)."""
        return min(self.values)

    def mean(self) -> float:
        """Arithmetic mean of the values (raises on an empty series)."""
        if not self.values:
            raise ValueError("cannot take the mean of an empty series")
        return sum(self.values) / len(self.values)

    def percentile(self, fraction: float) -> float:
        """Value at the given fraction (0..1) using nearest-rank."""
        if not self.values:
            raise ValueError("cannot take a percentile of an empty series")
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must lie in [0, 1], got {fraction!r}")
        ordered = sorted(self.values)
        rank = min(len(ordered) - 1, max(0, math.ceil(fraction * len(ordered)) - 1))
        return ordered[rank]

    # ------------------------------------------------------------ transforms

    def windowed(self, window: float) -> "TimeSeries":
        """The mean of each non-empty window of ``window`` seconds, stamped
        at the window start."""
        if window <= 0:
            raise ValueError(f"window must be positive, got {window!r}")
        if self.is_empty():
            return self
        start = math.floor(self.times[0] / window) * window
        buckets: dict[float, list[float]] = {}
        for time, value in self:
            key = start + math.floor((time - start) / window) * window
            buckets.setdefault(key, []).append(value)
        pairs = [(key, sum(values) / len(values)) for key, values in sorted(buckets.items())]
        return TimeSeries.from_pairs(pairs)


# --------------------------------------------------------------------------
# Figure-specific helpers
# --------------------------------------------------------------------------


def rtt_series(samples: Iterable[tuple[float, float]]) -> TimeSeries:
    """Round-trip-time samples vs. time (Figure 1's y-axis)."""
    return TimeSeries.from_pairs(samples)
