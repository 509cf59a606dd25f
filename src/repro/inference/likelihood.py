"""Likelihood kernels for scoring predicted against observed delivery times.

The paper's inference engine uses rejection sampling: a hypothesis is kept
only if it reproduces the observations exactly (§3.2).  That works when the
discretized prior contains the true parameter values and the hypothesis
simulates the network at full fidelity.  Our fast link model discretizes the
latent switching times of the cross-traffic gate, so predicted delivery
times can be off by a bounded amount even for the "right" hypothesis; the
Gaussian kernel turns that mismatch into a smooth likelihood instead of a
hard reject.  Both kernels are provided; experiments choose per scenario.
"""

from __future__ import annotations

from typing import Protocol

from repro.errors import ConfigurationError

#: A :class:`GaussianKernel` error beyond this many sigmas rejects the
#: hypothesis outright, which keeps wildly wrong configurations from
#: lingering with tiny weights.
HARD_CUTOFF_SIGMAS = 6.0


class LikelihoodKernel(Protocol):
    """Maps a predicted-vs-observed timing error to a (log-)likelihood factor."""

    def log_weight(self, error_seconds: float) -> float:
        """Log-likelihood contribution of a timing error (``-inf`` to reject)."""
        ...


def log_weight_batch(kernel: "LikelihoodKernel", errors):
    """Evaluate ``kernel`` over a NumPy array of timing errors.

    Kernels that define ``log_weight_batch`` (both built-in kernels do) are
    evaluated as a single array expression; any other kernel falls back to a
    per-element loop so custom kernels keep working with the vectorized
    inference backend.
    """
    batch = getattr(kernel, "log_weight_batch", None)
    if batch is not None:
        return batch(errors)
    import numpy

    return numpy.array([kernel.log_weight(float(error)) for error in errors], dtype=float)


class ExactMatchKernel:
    """Rejection sampling: accept iff the timing error is within a tolerance.

    Parameters
    ----------
    tolerance:
        Maximum absolute error, in seconds, still considered "exact".  A
        small non-zero default absorbs floating-point noise.
    """

    def __init__(self, tolerance: float = 1e-6) -> None:
        if tolerance < 0:
            raise ConfigurationError(f"tolerance must be non-negative, got {tolerance!r}")
        self.tolerance = tolerance

    def log_weight(self, error_seconds: float) -> float:
        if abs(error_seconds) <= self.tolerance:
            return 0.0
        return float("-inf")

    def log_weight_batch(self, errors):
        """Vectorized :meth:`log_weight` over a NumPy array of errors."""
        import numpy

        return numpy.where(numpy.abs(errors) <= self.tolerance, 0.0, -numpy.inf)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ExactMatchKernel(tolerance={self.tolerance})"


class GaussianKernel:
    """A smooth timing-error kernel: ``exp(-error^2 / (2 sigma^2))``.

    Parameters
    ----------
    sigma:
        Standard deviation, in seconds, of tolerated timing error.  Errors
        beyond ``HARD_CUTOFF_SIGMAS`` of them reject the hypothesis.
    """

    def __init__(self, sigma: float) -> None:
        if sigma <= 0:
            raise ConfigurationError(f"sigma must be positive, got {sigma!r}")
        self.sigma = sigma

    def log_weight(self, error_seconds: float) -> float:
        scaled = error_seconds / self.sigma
        if abs(scaled) > HARD_CUTOFF_SIGMAS:
            return float("-inf")
        return -0.5 * scaled * scaled

    def log_weight_batch(self, errors):
        """Vectorized :meth:`log_weight` over a NumPy array of errors.

        Pure arithmetic, so each element is bit-identical to the scalar
        :meth:`log_weight` result.
        """
        import numpy

        scaled = errors / self.sigma
        out = -0.5 * scaled * scaled
        out = numpy.where(numpy.abs(scaled) > HARD_CUTOFF_SIGMAS, -numpy.inf, out)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GaussianKernel(sigma={self.sigma})"
