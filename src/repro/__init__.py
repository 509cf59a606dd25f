"""repro — a reproduction of "End-to-End Transmission Control by Modeling
Uncertainty about the Network State" (Winstein & Balakrishnan, HotNets 2011).

The package is organized as:

* :mod:`repro.sim` — discrete-event simulation substrate.
* :mod:`repro.elements` — the paper's language of network elements (§3.1).
* :mod:`repro.topology` — wiring helpers and preset networks (Figure 2).
* :mod:`repro.inference` — priors, hypotheses, and the Bayesian belief state.
* :mod:`repro.core` — utility functions, the expected-utility planner, and
  the model-based ISender (the paper's contribution).
* :mod:`repro.api` — the configuration layer: ``SenderConfig`` +
  ``build_sender`` (the one construction path) and precomputed §3.3
  policy tables.
* :mod:`repro.baselines` — TCP-like window senders and rate senders.
* :mod:`repro.cellular` — the synthetic bufferbloated cellular link used to
  reproduce Figure 1.
* :mod:`repro.metrics`, :mod:`repro.viz` — measurement and reporting.
* :mod:`repro.experiments` — runners that regenerate every figure.
"""

from repro._version import __version__

__all__ = ["__version__"]
