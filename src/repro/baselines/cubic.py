"""A CUBIC-style congestion controller (Ha, Rhee & Xu, 2008), simplified.

The window grows as a cubic function of the time since the last loss event,
anchored at the window size where that loss occurred, which makes growth
aggressive far from the previous operating point and cautious near it.  The
TCP-friendliness and fast-convergence refinements of the full algorithm are
reduced to the ``BETA`` multiplicative decrease and the cubic growth curve —
enough to reproduce CUBIC's qualitative behaviour in the benchmarks.
"""

from __future__ import annotations

from repro.baselines.window import WindowSender

#: The cubic growth curve's scaling constant ``C``.
SCALING = 0.4
#: The window's multiplier on a loss.
BETA = 0.7


class CubicSender(WindowSender):
    """Loss-based sender with cubic window growth."""

    def _restart(self) -> None:
        super()._restart()
        self.w_max = self.cwnd
        self.epoch_start: float | None = None

    def _cubic_window(self, elapsed: float) -> float:
        inflection = (self.w_max * (1.0 - BETA) / SCALING) ** (1.0 / 3.0)
        return SCALING * (elapsed - inflection) ** 3 + self.w_max

    def on_ack_window(self, newly_acked: int) -> None:
        now = self.sim.now
        if self.cwnd < self.ssthresh:
            self.cwnd += float(newly_acked)
            return
        if self.epoch_start is None:
            self.epoch_start = now
        target = self._cubic_window(now - self.epoch_start)
        if target > self.cwnd:
            self.cwnd += (target - self.cwnd) / max(self.cwnd, 1.0) * newly_acked
        else:
            self.cwnd += 0.01 * newly_acked  # slow probing below the curve

    def on_fast_retransmit(self) -> None:
        self.w_max = self.cwnd
        self.epoch_start = None
        self.ssthresh = max(self.cwnd * BETA, 2.0)
        self.cwnd = max(self.cwnd * BETA, 1.0)

    def on_timeout(self) -> None:
        self.w_max = self.cwnd
        self.epoch_start = None
        super().on_timeout()
