"""A synthetic bufferbloated cellular link.

Figure 1 of the paper shows the round-trip time of a TCP download over a
commercial LTE network climbing from ~100 ms to roughly ten seconds because
the network hides non-congestive losses behind link-layer retransmission and
provisions very deep buffers.  We cannot replay the original Verizon trace,
so this package builds the closest synthetic equivalent (see DESIGN.md,
substitutions).  It is two link elements; the capacity they serve at is a
:mod:`repro.corpus` trace (Figure 1's bounded random walk is the
``random_walk`` family, :class:`~repro.corpus.generators.RandomWalkLink`):

* :class:`~repro.cellular.link.CellularLink` — a deep tail-drop buffer
  drained at the time-varying rate, with link-layer ARQ that converts
  stochastic loss into delay instead of exposing it to the sender.
* :class:`~repro.cellular.link.TraceDrivenLink` — the same time-varying
  server without buffer or ARQ, for the standard buffer-pull protocol.
"""

from repro.cellular.link import CellularLink, TraceDrivenLink

__all__ = [
    "CellularLink",
    "TraceDrivenLink",
]
