"""Generic additive-increase / multiplicative-decrease window control.

A stripped-down controller without slow start, useful as the simplest
possible loss-driven baseline: increase by ``INCREASE`` packets per RTT,
multiply by ``DECREASE`` on loss.
"""

from __future__ import annotations

from repro.baselines.window import WindowSender

#: Packets added to the window per round trip.
INCREASE = 1.0
#: The window's multiplier on a loss.
DECREASE = 0.5


class AimdSender(WindowSender):
    """AIMD(1, 0.5): increase one packet per round trip, halve the window on loss."""

    def on_ack_window(self, newly_acked: int) -> None:
        self.cwnd += INCREASE * newly_acked / max(self.cwnd, 1.0)

    def on_fast_retransmit(self) -> None:
        self.ssthresh = max(self.cwnd * DECREASE, 1.0)
        self.cwnd = max(self.cwnd * DECREASE, 1.0)

    def on_timeout(self) -> None:
        self.ssthresh = max(self.cwnd * DECREASE, 1.0)
        self.cwnd = 1.0
