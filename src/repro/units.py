"""Unit helpers and shared physical constants.

All internal quantities use SI-style base units:

* time is measured in **seconds** (floating point),
* data sizes in **bits**,
* rates in **bits per second**.

The helpers below exist so call sites can say ``kilobits(96)`` or
``from_ms(250)`` instead of sprinkling magic conversion factors around.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError

#: Number of bits in one byte.
BITS_PER_BYTE = 8

#: Conventional Ethernet-style payload size used throughout the paper (1,500 bytes).
DEFAULT_PACKET_BYTES = 1500

#: The same default packet size expressed in bits (12,000 bits).
DEFAULT_PACKET_BITS = DEFAULT_PACKET_BYTES * BITS_PER_BYTE

#: Number of milliseconds in one second.
MS_PER_SECOND = 1000.0


def bytes_to_bits(num_bytes: float) -> float:
    """Convert a size in bytes to bits."""
    return num_bytes * BITS_PER_BYTE


def bits_to_bytes(num_bits: float) -> float:
    """Convert a size in bits to bytes."""
    return num_bits / BITS_PER_BYTE


def kilobits(value: float) -> float:
    """Return ``value`` kilobits expressed in bits."""
    return value * 1_000.0


def megabits(value: float) -> float:
    """Return ``value`` megabits expressed in bits."""
    return value * 1_000_000.0


def kbps(value: float) -> float:
    """Return ``value`` kilobits per second expressed in bits per second."""
    return value * 1_000.0


def mbps(value: float) -> float:
    """Return ``value`` megabits per second expressed in bits per second."""
    return value * 1_000_000.0


def from_ms(milliseconds: float) -> float:
    """Convert a duration in milliseconds to seconds."""
    return milliseconds / MS_PER_SECOND


def to_ms(seconds: float) -> float:
    """Convert a duration in seconds to milliseconds."""
    return seconds * MS_PER_SECOND


def transmission_time(size_bits: float, rate_bps: float) -> float:
    """Time in seconds to serialize ``size_bits`` onto a ``rate_bps`` link.

    Raises
    ------
    ValueError
        If the rate is not strictly positive.
    """
    if rate_bps <= 0:
        raise ValueError(f"link rate must be positive, got {rate_bps!r}")
    return size_bits / rate_bps


def packets_to_bits(num_packets: float, packet_bytes: int = DEFAULT_PACKET_BYTES) -> float:
    """Convert a packet count to bits assuming ``packet_bytes`` sized packets."""
    return num_packets * packet_bytes * BITS_PER_BYTE


#: The most filler packets one initial fill may be cut into.  The deepest
#: fill a shipped prior holds is 666 packets; the limit leaves two orders of
#: magnitude above that and refuses what no model can hold: a 1e-300-bit
#: filler cuts any real fill into ~1e300 packets and never finishes.
MAX_FILLER_PACKETS = 65_536


def filler_packet_sizes(fill_bits: float, filler_bits: float) -> list[float]:
    """A buffer's initial fullness cut into filler packets, in queue order.

    The one packetisation of the paper's "initial fullness" parameter: full
    ``filler_bits`` packets, then whatever is left, stopping once less than
    ``1e-9`` bits remain.  The simulator's
    :class:`~repro.elements.buffer.Buffer` and the belief's link model (both
    of its engines) pre-load exactly these sizes.

    Raises :class:`~repro.errors.ConfigurationError` for a filler size that
    is not positive and finite, a fill that is negative or not finite
    (NaN fails both tests), or a fill that would be cut into more than
    :data:`MAX_FILLER_PACKETS` packets — the count is checked before any
    packet is cut.
    """
    if not 0.0 < filler_bits < math.inf:
        raise ConfigurationError(
            f"filler packet size must be positive and finite, got {filler_bits!r}"
        )
    if not 0.0 <= fill_bits < math.inf:
        raise ConfigurationError(
            f"initial fill must be non-negative and finite, got {fill_bits!r}"
        )
    if fill_bits / filler_bits > MAX_FILLER_PACKETS:
        raise ConfigurationError(
            f"an initial fill of {fill_bits!r} bits in {filler_bits!r}-bit filler "
            f"packets is more than {MAX_FILLER_PACKETS} packets"
        )
    sizes = []
    remaining = fill_bits
    while remaining > 1e-9:
        size = min(filler_bits, remaining)
        sizes.append(size)
        remaining -= size
    return sizes
