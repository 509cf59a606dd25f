"""Order statistics and output digests for the end-to-end benchmark.

Stdlib only: the harness self-test imports this module without touching
``repro`` or numpy.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from typing import Any, Mapping, Optional, Sequence

#: Percentiles the reports may quote, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)

#: A percentile is quoted only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def _rank(count: int, q: float) -> int:
    """1-based nearest rank of the ``q`` percentile among ``count`` samples."""
    # Rounded first: 99.9 / 100 * 10_000 is 9990.000000000002 in floats.
    return max(1, math.ceil(round(q * count / 100.0, 9)))


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with ≥ ``q`` % at or below it."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    return sorted(samples)[_rank(len(samples), q) - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly beyond the ``q`` percentile."""
    return count - _rank(count, q) if count else 0


def supported_percentile(count: int) -> Optional[float]:
    """The highest of :data:`PERCENTILES` with ≥10 samples beyond it, if any."""
    supported = [
        q for q in PERCENTILES if samples_beyond(count, q) >= MIN_SAMPLES_BEYOND
    ]
    return supported[-1] if supported else None


def spread_fraction(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 below two values)."""
    if len(values) < 2:
        return 0.0
    first, middle, third = statistics.quantiles(values, n=4)
    return (third - first) / middle if middle else 0.0


def canonical_json(value: Any) -> str:
    """Key-sorted, whitespace-free JSON: one spelling per value.

    ``default=str`` matches ``ResultStore.to_json``, so a metric the runner
    can serialize always digests.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)


def metrics_digest(metrics: Mapping[str, Any]) -> str:
    """sha256 of a scenario point's metric dict in canonical JSON."""
    return hashlib.sha256(canonical_json(dict(metrics)).encode("utf-8")).hexdigest()
