"""The corpus's canonical trace artifact: a validated, digestable rate trace.

A :class:`LinkTrace` is the load-once representation every corpus entry —
ingested real-world trace or seeded synthetic generator — resolves to: a
piecewise-constant ``(time, rate)`` schedule with an explicit duration and
a content digest that keys it in the on-disk store.  It is the only thing
a link reads: :class:`~repro.cellular.link.CellularLink` and
:class:`~repro.cellular.link.TraceDrivenLink` both take their service
times from :meth:`LinkTrace.service_time`.

Validation happens at construction, never at read time: times must be
finite, strictly increasing and start at or after zero, rates must be
finite and strictly positive, and the duration must be finite and cover the
last segment (NaN fails every check).  The digest hashes
only the data (times, rates, duration) under the repository's one
canonical-JSON convention, so renaming a corpus entry or re-ingesting the
same bytes under a different name never changes the digest the result
cache keys on.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterable, Mapping, Optional, Sequence

from repro._persist import canonical_digest
from repro.errors import ConfigurationError

#: Trace payload layout version; part of the digest, so a layout change
#: re-keys every stored artifact instead of silently aliasing old ones.
TRACE_SCHEMA_VERSION = 1

#: Floor applied to a trace's instantaneous rate wherever a link divides by
#: it.  A generator trace with a deep fade (e.g. ``loss_burst`` with a tiny
#: ``bad_rate_fraction``) can report micro-bps rates; dividing by those
#: silently schedules multi-hour service times for a single packet.  Rates
#: below this floor serve at the floor instead — 1 kbit/s, slow enough that
#: a fade still stalls the link for seconds per packet, bounded enough that
#: the simulation keeps making progress.
MIN_SERVICE_RATE_BPS = 1_000.0


def trace_digest(
    times: Sequence[float], rates: Sequence[float], duration: float
) -> str:
    """Content digest of a trace's data (name- and source-independent)."""
    return canonical_digest(
        {
            "schema": TRACE_SCHEMA_VERSION,
            "times": [float(t) for t in times],
            "rates": [float(r) for r in rates],
            "duration": float(duration),
        },
        length=64,
    )


class LinkTrace:
    """A validated piecewise-constant link-rate trace.

    Parameters
    ----------
    times:
        Segment start times in seconds, finite, strictly increasing, first >= 0.
    rates:
        Service rate in bits/s for each segment; finite and strictly positive.
    duration:
        Total trace length in seconds (finite, and must reach past the last
        segment start).  ``None`` extends the last segment by the trace's final
        inter-sample gap (or 1 s for a single-segment trace).
    name / source:
        Free-form provenance, excluded from the digest.
    """

    def __init__(
        self,
        times: Iterable[float],
        rates: Iterable[float],
        duration: Optional[float] = None,
        name: str = "",
        source: str = "",
    ) -> None:
        self.times: tuple[float, ...] = tuple(float(t) for t in times)
        self.rates: tuple[float, ...] = tuple(float(r) for r in rates)
        if not self.times:
            raise ConfigurationError("a LinkTrace needs at least one sample")
        if len(self.times) != len(self.rates):
            raise ConfigurationError(
                f"times ({len(self.times)}) and rates ({len(self.rates)}) "
                "must have equal length"
            )
        # Each check is written so that NaN fails it, and times, rates and
        # the duration must be finite.
        if not 0.0 <= self.times[0] < math.inf:
            raise ConfigurationError(
                f"trace must start at a finite t >= 0, got {self.times[0]!r}"
            )
        for index in range(1, len(self.times)):
            if not self.times[index - 1] < self.times[index] < math.inf:
                raise ConfigurationError(
                    f"trace times must be finite and strictly increasing; sample "
                    f"{index} ({self.times[index]!r}) does not follow "
                    f"{self.times[index - 1]!r}"
                )
        for index, rate in enumerate(self.rates):
            if not 0.0 < rate < math.inf:
                raise ConfigurationError(
                    f"trace rates must be finite and positive; sample {index} is {rate!r}"
                )
        if duration is None:
            if len(self.times) >= 2:
                duration = self.times[-1] + (self.times[-1] - self.times[-2])
            else:
                duration = self.times[-1] + 1.0
        duration = float(duration)
        if not self.times[-1] < duration < math.inf:
            raise ConfigurationError(
                f"duration ({duration!r}) must be finite and extend past the "
                f"last segment start ({self.times[-1]!r})"
            )
        self.duration = duration
        self.name = name
        self.source = source

        # Segment lengths close the trace at `duration`, so the mean is the
        # true time-weighted average rate (what utilization is judged
        # against), not a sample average skewed by irregular segments.
        spans = [
            (self.times[i + 1] if i + 1 < len(self.times) else duration)
            - self.times[i]
            for i in range(len(self.times))
        ]
        self._mean_rate = (
            sum(rate * span for rate, span in zip(self.rates, spans))
            / (duration - self.times[0])
        )
        self._min_rate = min(self.rates)
        # The last segment holds its rate forever (see `segments_from`); a
        # one-segment trace is that segment everywhere.
        self._last_start = self.times[-1] if len(self.times) > 1 else -math.inf
        self._last_service_rate = max(self.rates[-1], MIN_SERVICE_RATE_BPS)
        self._digest: Optional[str] = None

    # ------------------------------------------------------------ identity

    @property
    def digest(self) -> str:
        """Content digest (lazy; hashes data only, never name/source)."""
        if self._digest is None:
            self._digest = trace_digest(self.times, self.rates, self.duration)
        return self._digest

    @classmethod
    def constant(cls, rate_bps: float, duration: float) -> "LinkTrace":
        """A fixed-rate link: one segment at ``rate_bps``."""
        return cls(times=[0.0], rates=[rate_bps], duration=duration, source="constant")

    # ------------------------------------------------------------- capacity

    def segments_from(self, start: float):
        """Yield ``(rate, segment_end)`` from the segment containing ``start``.

        Clamped to the trace ends: a ``start`` before the first sample yields
        the first segment, and the last segment is unbounded
        (``segment_end = math.inf``) because the trace holds its last rate
        forever.
        """
        index = max(bisect_right(self.times, start) - 1, 0)
        while index + 1 < len(self.times):
            yield self.rates[index], self.times[index + 1]
            index += 1
        yield self.rates[index], math.inf

    def service_time(self, start: float, size_bits: float) -> float:
        """Seconds to serialize ``size_bits`` beginning at ``start``.

        The one rule both links follow: the packet is *integrated across
        rate segments* from the instant its transmission begins (sampling
        the rate once at ``start`` lets a packet straddling a sharp drop
        finish at the stale pre-drop rate, skipping outage bins for free),
        and no segment serves slower than :data:`MIN_SERVICE_RATE_BPS`.
        """
        if start >= self._last_start:
            # In the unbounded last segment (every call on a constant trace)
            # the loop below returns ``0.0 + size_bits / rate`` at once.
            return size_bits / self._last_service_rate
        remaining = size_bits
        elapsed = 0.0
        for rate, segment_end in self.segments_from(start):
            rate = max(rate, MIN_SERVICE_RATE_BPS)
            span = segment_end - (start + elapsed)
            if span <= 0.0:
                continue
            drained = rate * span  # inf for the final, unbounded segment
            if remaining <= drained:
                return elapsed + remaining / rate
            remaining -= drained
            elapsed += span
        raise AssertionError("unreachable: the final segment is unbounded")

    def mean_rate(self) -> float:
        """Time-weighted mean rate over the trace's duration."""
        return self._mean_rate

    def min_rate(self) -> float:
        """Smallest rate in the trace."""
        return self._min_rate

    def samples(self) -> list[tuple[float, float]]:
        """The full ``(time, rate)`` trace."""
        return list(zip(self.times, self.rates))

    def __len__(self) -> int:
        return len(self.rates)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LinkTrace(samples={len(self)}, duration={self.duration:g}s, "
            f"mean={self._mean_rate:g}bps, digest={self.digest[:12]})"
        )

    # ------------------------------------------------------------ round trip

    def to_payload(self) -> dict:
        """JSON-serializable blob form (the corpus store's on-disk layout)."""
        return {
            "schema": TRACE_SCHEMA_VERSION,
            "digest": self.digest,
            "name": self.name,
            "source": self.source,
            "times": list(self.times),
            "rates": list(self.rates),
            "duration": self.duration,
        }

    @classmethod
    def from_payload(cls, payload: Mapping) -> "LinkTrace":
        """Rebuild a trace from :meth:`to_payload` output, re-validating it."""
        if not isinstance(payload, Mapping):
            raise ConfigurationError("trace payload must be a mapping")
        if payload.get("schema") != TRACE_SCHEMA_VERSION:
            raise ConfigurationError(
                f"unsupported trace schema {payload.get('schema')!r} "
                f"(expected {TRACE_SCHEMA_VERSION})"
            )
        trace = cls(
            times=payload.get("times", ()),
            rates=payload.get("rates", ()),
            duration=payload.get("duration"),
            name=str(payload.get("name", "")),
            source=str(payload.get("source", "")),
        )
        recorded = payload.get("digest")
        if recorded is not None and recorded != trace.digest:
            raise ConfigurationError(
                f"trace payload digest {recorded!r} does not match its "
                f"content digest {trace.digest!r} (corrupt or edited blob)"
            )
        return trace
