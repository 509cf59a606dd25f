"""Host-speed correction for the end-to-end benchmark.

The sandboxes this benchmark runs on share their host: identical work was
measured 30-60 % slower for minutes at a time, and ±10 % from one 200 ms
sample to the next, with nothing else running in the guest.  No regression
bound survives the slow phases, so a fixed reference kernel is sampled
between the timed stretches of a run, and the run's timings are scaled by
``NOMINAL_KERNEL_S / median kernel time`` — the time the work would have
taken with the host at its quiet speed.  One factor per run: the median over
its 6-40 samples follows the slow phases and ignores the fast noise, which
the medians over passes and blocks already deal with.  Raw, uncorrected
values are reported beside the corrected ones.

The kernel mixes what the workloads are made of — interpreter arithmetic,
object churn, small-array numpy, JSON both ways — because contention does
not slow all four alike.  It is part of the benchmark and never changes
with the program under test.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

#: The kernel's duration on this sandbox class with a quiet host.
NOMINAL_KERNEL_S = 0.0125

#: Kernel runs per pace sample (the sample is their median).
KERNEL_RUNS = 9

_ARRAY = np.arange(2_000, dtype=float)
_INDEX = np.arange(0, 2_000, 3)
_PAYLOAD = {
    "fingerprint": "27cbafe9e19ae2f2",
    "signature": [[["link_rate_bps", 12000.0], ["loss_rate", 0.2]], 0.125, True, 3, False] * 6,
    "now": 0.0,
}


class _Point:
    __slots__ = ("first", "second")

    def __init__(self, first: int, second: tuple) -> None:
        self.first = first
        self.second = second


def kernel() -> float:
    """A fixed amount of work; returns a value so nothing is optimised away."""
    total = 0
    for index in range(60_000):
        total += index * index
    table: dict[int, _Point] = {}
    for index in range(12_000):
        point = _Point(index, (index, index + 1))
        table[index & 1023] = point
        total += len([point.first, point.second[0]])
    values = _ARRAY
    for _ in range(400):
        sums = np.cumsum(values[_INDEX])
        values = _ARRAY + np.where(sums > 500.0, sums, 0.0).sum() * 1e-9
    for _ in range(250):
        text = json.dumps(_PAYLOAD)
        total += len(json.loads(text)) + len(text.encode("utf-8").decode("utf-8").split(","))
    return total + float(values[0])


def host_pace(runs: int = KERNEL_RUNS) -> float:
    """Seconds the reference kernel takes right now (median of ``runs`` runs)."""
    samples = []
    for _ in range(runs):
        started = time.perf_counter()
        kernel()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def speed_factor(paces: list[float]) -> float:
    """What to multiply raw durations by, given the pace samples around them."""
    return NOMINAL_KERNEL_S / statistics.median(paces)
