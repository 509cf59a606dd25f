"""Parsers that turn on-disk trace files into :class:`LinkTrace` artifacts.

Two input formats are accepted:

``mahimahi``
    The mahimahi ``--uplink-log``/trace convention: one integer millisecond
    timestamp per line, each marking the delivery opportunity of one
    MTU-sized packet.  The parser bins opportunities into fixed windows and
    converts counts to bits/s, flooring empty windows at a small positive
    rate (a ``LinkTrace`` rate must be positive; a true outage is modeled
    as a near-zero rate, which stalls a simulated link just the same).  A
    trace longer than :data:`MAX_MAHIMAHI_BINS` bins is refused before any
    bin is allocated.

``samples``
    The repository's native ``(time, rate)`` form: two columns per line
    (whitespace- or comma-separated), seconds and bits/s.  ``#`` comments
    and blank lines are ignored.

``load_trace_path`` auto-detects between them: a file whose data lines are
all single integers is a mahimahi trace; anything with two columns is a
sample file.
"""

from __future__ import annotations

from pathlib import Path

from repro.corpus.trace import LinkTrace
from repro.errors import ConfigurationError
from repro.units import DEFAULT_PACKET_BITS

__all__ = [
    "load_trace_path",
    "parse_mahimahi_text",
    "parse_samples_text",
]

#: Default bin width for mahimahi ingestion, in milliseconds.  100 ms is
#: wide enough that a saturated cellular trace has many packets per bin
#: (smooth rates) and narrow enough to keep sub-second capacity swings.
DEFAULT_BIN_MS = 100

#: Rate assigned to a bin with zero delivery opportunities.  Positive by
#: the LinkTrace invariant; 1 kbit/s serves one packet in ~12 s, which is
#: an outage at simulation timescales.
OUTAGE_FLOOR_BPS = 1000.0

#: Most rate bins a mahimahi trace may span: 27.8 h at the default 100 ms.
#: The bins are allocated up front from the last timestamp, so a two-line
#: file ending at ``100000000000`` would otherwise ask for 10⁹ of them.
MAX_MAHIMAHI_BINS = 1_000_000


def _data_lines(text: str) -> list[tuple[int, str]]:
    """Non-blank, non-comment lines with their 1-based line numbers."""
    out = []
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((number, line))
    return out


def parse_samples_text(text: str, name: str = "", source: str = "samples") -> LinkTrace:
    """Parse native ``time rate`` (or ``time,rate``) sample text."""
    times: list[float] = []
    rates: list[float] = []
    for number, line in _data_lines(text):
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise ConfigurationError(
                f"line {number}: expected 'time rate', got {line!r}"
            )
        try:
            times.append(float(parts[0]))
            rates.append(float(parts[1]))
        except ValueError as exc:
            raise ConfigurationError(f"line {number}: {exc}") from exc
    if not times:
        raise ConfigurationError("sample file contains no data lines")
    return LinkTrace(times=times, rates=rates, name=name, source=source)


def parse_mahimahi_text(
    text: str,
    name: str = "",
    source: str = "mahimahi",
    packet_bits: int = DEFAULT_PACKET_BITS,
    bin_ms: int = DEFAULT_BIN_MS,
    min_rate_bps: float = OUTAGE_FLOOR_BPS,
) -> LinkTrace:
    """Parse a mahimahi packet-delivery trace (one ms timestamp per line).

    Timestamps need not be unique (several packets can be delivered in the
    same millisecond) but must be non-decreasing, matching the files
    mahimahi itself accepts.
    """
    if bin_ms <= 0:
        raise ConfigurationError("bin_ms must be positive")
    if packet_bits <= 0:
        raise ConfigurationError("packet_bits must be positive")
    if min_rate_bps <= 0:
        raise ConfigurationError("min_rate_bps must be positive")
    stamps: list[int] = []
    for number, line in _data_lines(text):
        try:
            stamp = int(line)
        except ValueError as exc:
            raise ConfigurationError(
                f"line {number}: expected an integer millisecond timestamp, "
                f"got {line!r}"
            ) from exc
        if stamp < 0:
            raise ConfigurationError(f"line {number}: negative timestamp {stamp}")
        if stamps and stamp < stamps[-1]:
            raise ConfigurationError(
                f"line {number}: timestamp {stamp} precedes {stamps[-1]} "
                "(mahimahi traces are non-decreasing)"
            )
        stamps.append(stamp)
    if not stamps:
        raise ConfigurationError("mahimahi trace contains no data lines")

    bin_count = stamps[-1] // bin_ms + 1
    if bin_count > MAX_MAHIMAHI_BINS:
        raise ConfigurationError(
            f"mahimahi trace ends at {stamps[-1]} ms: {bin_count} bins of {bin_ms} ms, "
            f"more than the {MAX_MAHIMAHI_BINS} a trace may span"
        )
    counts = [0] * bin_count
    for stamp in stamps:
        counts[stamp // bin_ms] += 1
    bin_s = bin_ms / 1000.0
    times = [index * bin_s for index in range(bin_count)]
    rates = [
        max(count * packet_bits / bin_s, min_rate_bps) for count in counts
    ]
    return LinkTrace(
        times=times,
        rates=rates,
        duration=bin_count * bin_s,
        name=name,
        source=source,
    )


def load_trace_path(
    path: str | Path,
    fmt: str = "auto",
    name: str = "",
    packet_bits: int = DEFAULT_PACKET_BITS,
    bin_ms: int = DEFAULT_BIN_MS,
) -> LinkTrace:
    """Load a trace file, auto-detecting its format unless ``fmt`` pins it.

    ``fmt`` is one of ``auto``, ``mahimahi``, ``samples``.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read trace file {path}: {exc}") from exc
    if fmt == "auto":
        lines = _data_lines(text)
        if not lines:
            raise ConfigurationError(f"{path} contains no data lines")
        fmt = (
            "mahimahi"
            if all(_is_integer(line) for _, line in lines)
            else "samples"
        )
    trace_name = name or path.stem
    if fmt == "mahimahi":
        return parse_mahimahi_text(
            text,
            name=trace_name,
            source=str(path),
            packet_bits=packet_bits,
            bin_ms=bin_ms,
        )
    if fmt == "samples":
        return parse_samples_text(text, name=trace_name, source=str(path))
    raise ConfigurationError(
        f"unknown trace format {fmt!r} (expected auto, mahimahi, or samples)"
    )


def _is_integer(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True
