"""TCP-like window-based senders and simple rate-based senders.

The paper's argument is framed against TCP's implicit network model: all
loss is congestion, RTT jitter is light-tailed, and one ``cwnd`` variable
summarizes the path.  To reproduce the motivating observations (Figure 1's
bufferbloat, the poor throughput of loss-blind congestion control over a
20 %-loss path) the library ships faithful-enough reimplementations of the
classic window algorithms plus fixed-rate reference senders:

* :class:`~repro.baselines.window.WindowSender` — shared machinery
  (self-clocked sliding window, RTT estimation, RTO, duplicate-ACK
  detection).
* :class:`~repro.baselines.reno.RenoSender`,
  :class:`~repro.baselines.newreno.NewRenoSender`,
  :class:`~repro.baselines.cubic.CubicSender`,
  :class:`~repro.baselines.aimd.AimdSender` — the classic loss-driven
  congestion controllers.
* :class:`~repro.baselines.rate_sender.FixedRateSender` — the open-loop
  reference.
"""

from repro.baselines.aimd import AimdSender
from repro.baselines.cubic import CubicSender
from repro.baselines.newreno import NewRenoSender
from repro.baselines.rate_sender import FixedRateSender
from repro.baselines.reno import RenoSender
from repro.baselines.window import WindowSender

__all__ = [
    "AimdSender",
    "CubicSender",
    "FixedRateSender",
    "NewRenoSender",
    "RenoSender",
    "WindowSender",
]
