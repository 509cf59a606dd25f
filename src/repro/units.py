"""Shared physical constants and the one cut of an initial fill into packets.

All internal quantities use SI-style base units:

* time is measured in **seconds** (floating point),
* data sizes in **bits**,
* rates in **bits per second**.
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
