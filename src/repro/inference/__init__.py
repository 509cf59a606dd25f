"""Bayesian inference over uncertain network configurations.

The sender models the network as a nondeterministic automaton and maintains
a probability distribution over its possible configurations (§3.2).  This
package provides:

* :mod:`repro.inference.parameters` — discretized parameter grids.
* :mod:`repro.inference.prior` — prior distributions over configurations,
  including the paper's §4 prior.
* :mod:`repro.inference.observation` — the sender's observation records
  (what was sent, which acknowledgements arrived).
* :mod:`repro.inference.likelihood` — likelihood kernels: exact rejection
  (the paper's scheme) and a Gaussian tolerance kernel.
* :mod:`repro.inference.linkmodel` — a fast packet-level model of the
  Figure-2 topology class (pinger / buffer / link / last-mile loss).
* :mod:`repro.inference.hypothesis` — one candidate configuration: model
  state plus latent cross-traffic gating, with forking and scoring.
* :mod:`repro.inference.belief` — the weighted ensemble of hypotheses and
  its one sequential Bayesian update (fork, score, compact, prune,
  renormalize), over rows held as a list of hypotheses.
* :mod:`repro.inference.vectorized` — the NumPy struct-of-arrays form of
  the rows, whose update steps are batched array operations; select it with
  ``BeliefState.from_prior(..., backend="vectorized")``.
"""

from repro.inference.belief import BeliefState
from repro.inference.hypothesis import Hypothesis
from repro.inference.likelihood import ExactMatchKernel, GaussianKernel, LikelihoodKernel
from repro.inference.linkmodel import LinkModel, LinkModelParams
from repro.inference.observation import AckObservation
from repro.inference.parameters import ParameterGrid, ParameterSpec, uniform_grid
from repro.inference.prior import Prior, figure3_prior, single_link_prior

__all__ = [
    "AckObservation",
    "BeliefState",
    "ExactMatchKernel",
    "GaussianKernel",
    "Hypothesis",
    "LikelihoodKernel",
    "LinkModel",
    "LinkModelParams",
    "ParameterGrid",
    "ParameterSpec",
    "Prior",
    "figure3_prior",
    "single_link_prior",
    "uniform_grid",
]
