"""Fairness and convergence metrics for many-flow contention scenarios.

When N senders share one bottleneck, per-flow throughput alone does not
answer the questions the paper's multi-user frontier asks: *how evenly* is
capacity shared, and *how quickly* does the share stabilize?  This module
provides the two standard answers:

* :func:`jain_index` — Jain's fairness index, ``(Σx)² / (n·Σx²)``, which is
  1.0 for a perfectly even allocation and ``1/n`` when one flow takes
  everything;
* :func:`convergence_time` — the earliest time from which the windowed
  Jain index stays above a threshold for the rest of the run.

:func:`flow_rate_matrix` builds the windowed per-flow rate series those
two consume from ``(received_at, size_bits)`` pairs, such as
:meth:`~repro.elements.receiver.Receiver.arrivals` yields.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Optional, Sequence

__all__ = [
    "convergence_time",
    "flow_rate_matrix",
    "jain_index",
]


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index of an allocation.

    Ranges over ``[1/n, 1]`` for non-negative allocations: 1.0 when all
    shares are equal, ``1/n`` when a single flow takes everything.  Edge
    cases: an empty allocation has no flows to be unfair between and
    returns 0.0; an all-zero allocation is degenerate-equal (every flow
    got the same nothing) and returns 1.0.  A zero-throughput flow among
    active ones correctly drags the index down.
    """
    if not values:
        return 0.0
    total = float(sum(values))
    squares = float(sum(value * value for value in values))
    if squares == 0.0:
        return 1.0
    return (total * total) / (len(values) * squares)


def flow_rate_matrix(
    arrivals_by_flow: Mapping[str, Iterable[tuple[float, float]]],
    start: float,
    end: float,
    window: float,
) -> tuple[list[float], dict[str, list[float]]]:
    """Windowed per-flow delivery rates over ``[start, end)``.

    Returns ``(window_starts, {flow: [rate_bps per window]})``, all flows
    sharing one window grid so the rows line up for
    :func:`convergence_time`.  Deliveries outside the interval are ignored.
    """
    if window <= 0:
        raise ValueError(f"window must be positive, got {window!r}")
    if end <= start:
        raise ValueError(f"end ({end!r}) must exceed start ({start!r})")
    count = int(math.ceil((end - start) / window))
    window_starts = [start + index * window for index in range(count)]
    rates: dict[str, list[float]] = {}
    for flow, arrivals in arrivals_by_flow.items():
        bits = [0.0] * count
        for received_at, size_bits in arrivals:
            if start <= received_at < end:
                index = int((received_at - start) / window)
                bits[min(index, count - 1)] += size_bits
        rates[flow] = [b / window for b in bits]
    return window_starts, rates


def convergence_time(
    window_starts: Sequence[float],
    rates_by_flow: Mapping[str, Sequence[float]],
    threshold: float = 0.9,
) -> Optional[float]:
    """Earliest window start from which fairness stays converged.

    A run is *converged from* window ``i`` when the Jain index of the
    per-flow rates is at least ``threshold`` in window ``i`` and every
    later window.  Returns the start time of that window, or ``None``
    when the run never converges (including the no-flows/no-windows
    degenerate cases — with nothing measured, there is nothing to call
    converged).

    Scanning backward makes the cost one pass: the suffix property fails
    at the latest unfair window, and the answer is the window after it.
    """
    if not window_starts or not rates_by_flow:
        return None
    converged_from: Optional[float] = None
    for index in range(len(window_starts) - 1, -1, -1):
        allocation = [rates[index] for rates in rates_by_flow.values()]
        if jain_index(allocation) >= threshold:
            converged_from = window_starts[index]
        else:
            break
    return converged_from
