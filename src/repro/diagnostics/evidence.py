"""Bayesian evidence scoring for diagnostic root causes.

The triage layer keeps a small set of candidate-cause hypotheses (backend
drift, signature collision, cache staleness) and updates each
one against the evidence the probes collect.  :class:`BayesianScorer`
applies a sequential odds-form update: one piece of supporting evidence
with confidence ``c`` multiplies the hypothesis's odds by ``c / (1 - c)``,
one piece of refuting evidence divides by the same factor, and evidence at
``c = 0.5`` is uninformative.  Posteriors are clamped away from 0 and 1 so
no single observation is ever treated as proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Evidence", "CauseHypothesis", "BayesianScorer"]

#: Posterior (and confidence) clamp bounds: evidence is never proof.
_FLOOR = 0.01
_CEILING = 0.99


@dataclass(frozen=True)
class Evidence:
    """One observation bearing on a cause hypothesis.

    ``confidence`` in ``(0, 1)`` is the strength of the observation:
    how much more likely it is under the hypothesis than under its
    complement (0.5 = uninformative).
    """

    description: str
    source: str
    confidence: float

    def __post_init__(self) -> None:
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(
                f"evidence confidence must be in (0, 1), got {self.confidence!r}"
            )


@dataclass
class CauseHypothesis:
    """A candidate root cause with its accumulated evidence."""

    name: str
    description: str
    prior: float
    evidence_for: list[Evidence] = field(default_factory=list)
    evidence_against: list[Evidence] = field(default_factory=list)
    posterior: float = 0.0

    def support(self, description: str, source: str, confidence: float) -> None:
        """Attach one piece of evidence for this cause."""
        self.evidence_for.append(Evidence(description, source, confidence))

    def refute(self, description: str, source: str, confidence: float) -> None:
        """Attach one piece of evidence against this cause."""
        self.evidence_against.append(Evidence(description, source, confidence))


class BayesianScorer:
    """Sequential odds-form scoring of cause hypotheses."""

    @staticmethod
    def compute_posterior(
        prior: float,
        evidence_for: list[Evidence],
        evidence_against: list[Evidence],
    ) -> float:
        """Posterior probability after applying every piece of evidence.

        Supporting evidence raises the posterior, refuting evidence lowers
        it, and no evidence returns the prior unchanged.  Updates commute
        (odds multiplications), so evidence order does not matter.
        """
        posterior = min(max(prior, _FLOOR), _CEILING)
        for evidence in evidence_for:
            c = min(max(evidence.confidence, _FLOOR), _CEILING)
            posterior = (posterior * c) / (posterior * c + (1.0 - posterior) * (1.0 - c))
        for evidence in evidence_against:
            c = min(max(evidence.confidence, _FLOOR), _CEILING)
            posterior = (posterior * (1.0 - c)) / (
                posterior * (1.0 - c) + (1.0 - posterior) * c
            )
        return min(max(posterior, _FLOOR), _CEILING)

    def score(self, causes: list[CauseHypothesis]) -> list[CauseHypothesis]:
        """Fill every cause's posterior and return them ranked, best first.

        The sort is stable, so causes that end up with equal posteriors
        keep their declaration order (most specific first, by convention).
        """
        for cause in causes:
            cause.posterior = self.compute_posterior(
                cause.prior, cause.evidence_for, cause.evidence_against
            )
        return sorted(causes, key=lambda cause: cause.posterior, reverse=True)
