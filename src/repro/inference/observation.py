"""What the sender knows: its own transmissions and the acknowledgements.

The RECEIVER "conveys the time of each packet received back to the ISENDER"
(§3.1); the preliminary experiments assume synchronized clocks and a
lossless, instant return path (§3.4), so an acknowledgement tells the sender
both the sequence number and the exact reception time of the packet.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class AckObservation:
    """One acknowledgement received by the sender.

    Attributes
    ----------
    seq:
        Sequence number of the acknowledged packet.
    received_at:
        Time the packet arrived at the receiver (as reported by the
        receiver; equal to the delivery time under synchronized clocks).
    ack_at:
        Time the acknowledgement reached the sender (equal to
        ``received_at`` when the return path is instant).
    """

    seq: int
    received_at: float
    ack_at: float
