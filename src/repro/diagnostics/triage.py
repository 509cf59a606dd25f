"""Ranked root-cause triage for equivalence failures.

When a differential test fails, the first question is *which layer moved*:
did an engine genuinely drift from its reference, is the policy table's
coarse decision signature colliding two distinct belief states, or is the
result cache replaying entries that predate an unreleased simulator edit?
:func:`triage` keeps one :class:`CauseHypothesis` per candidate and scores
them against every piece of evidence the probes below can collect:

* a differential quick-fuzz — seeded scalar-vs-vectorized replays through
  :func:`~repro.diagnostics.divergence.diagnose_divergence`,
* a scan of an on-disk :class:`~repro.runner.cache.ResultCache` directory
  for unreadable or wrong-schema entries,
* :func:`scan_signature_collisions` — seeded replays of
  :func:`~repro.diagnostics.divergence.backend_config` that watch for one
  coarse decision signature mapping to different planner decisions.

Timings are not evidence here.  Whether a micro-benchmark timing regressed
is decided by ``benchmarks/compare.py`` alone: a red compare is a timing
regression by definition, not something triage re-judges.

The result is a :class:`TriageReport` with every cause ranked by posterior
probability and the full evidence log, so the report is auditable rather
than oracular.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from repro.diagnostics.divergence import (
    DivergenceReport,
    backend_config,
    diagnose_divergence,
    seeded_events,
)
from repro.diagnostics.evidence import BayesianScorer, CauseHypothesis
from repro.runner.cache import CACHE_SCHEMA_VERSION

__all__ = [
    "CAUSE_BACKEND_DRIFT",
    "CAUSE_CACHE_STALENESS",
    "CAUSE_SIGNATURE_COLLISION",
    "TriageReport",
    "make_causes",
    "scan_signature_collisions",
    "triage",
]

CAUSE_BACKEND_DRIFT = "backend drift (vectorized engine diverges from scalar oracle)"
CAUSE_SIGNATURE_COLLISION = "signature-resolution collision (policy table aliases beliefs)"
CAUSE_CACHE_STALENESS = "cache staleness (replayed results predate a code change)"


def make_causes() -> dict[str, CauseHypothesis]:
    """The three candidate causes, keyed by name, with neutral priors."""
    causes = [
        CauseHypothesis(
            name=CAUSE_BACKEND_DRIFT,
            description=(
                "a vectorized kernel or rollout stage no longer reproduces "
                "the scalar reference"
            ),
            prior=0.2,
        ),
        CauseHypothesis(
            name=CAUSE_SIGNATURE_COLLISION,
            description=(
                "the coarse decision signature maps two belief states that "
                "decide differently onto one policy-table slot"
            ),
            prior=0.15,
        ),
        CauseHypothesis(
            name=CAUSE_CACHE_STALENESS,
            description=(
                "the result cache is replaying points stored before an "
                "unreleased simulator/scenario edit (CACHE_SCHEMA_VERSION "
                "not bumped)"
            ),
            prior=0.15,
        ),
    ]
    return {cause.name: cause for cause in causes}


@dataclass
class TriageReport:
    """Ranked causes plus the raw evidence log that produced the ranking."""

    causes: list[CauseHypothesis]
    notes: list[str] = field(default_factory=list)
    divergence: Optional[DivergenceReport] = None

    def render(self) -> str:
        lines = ["triage report"]
        for note in self.notes:
            lines.append(f"  note: {note}")
        lines.append("  ranked causes:")
        for rank, cause in enumerate(self.causes, start=1):
            lines.append(
                f"    {rank}. {cause.name}  p={cause.posterior:.2f} "
                f"(prior {cause.prior:.2f})"
            )
            for evidence in cause.evidence_for:
                lines.append(f"       + [{evidence.source}] {evidence.description}")
            for evidence in cause.evidence_against:
                lines.append(f"       - [{evidence.source}] {evidence.description}")
        if self.divergence is not None and self.divergence.diverged:
            lines.append("")
            lines.append(self.divergence.render())
        return "\n".join(lines)


# ------------------------------------------------------------------- evidence


def _cache_evidence(
    causes: dict[str, CauseHypothesis],
    notes: list[str],
    cache_dir: Path,
) -> None:
    """Score the staleness hypothesis from the cache's disk state."""
    staleness = causes[CAUSE_CACHE_STALENESS]
    entries = sorted(Path(cache_dir).glob("results/*/*.json"))
    if not entries:
        notes.append(f"cache directory {cache_dir} holds no entries")
        return
    unreadable = 0
    wrong_schema = 0
    for path in entries:
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            unreadable += 1
            continue
        if not isinstance(payload, dict) or payload.get("schema") != CACHE_SCHEMA_VERSION:
            wrong_schema += 1
    if unreadable:
        staleness.support(
            f"{unreadable}/{len(entries)} cache entries unreadable", "cache", 0.7
        )
    if wrong_schema:
        staleness.support(
            f"{wrong_schema}/{len(entries)} cache entries carry a schema other "
            f"than {CACHE_SCHEMA_VERSION}",
            "cache",
            0.8,
        )
    if not unreadable and not wrong_schema:
        staleness.refute(
            f"all {len(entries)} on-disk cache entries parse with the current "
            f"schema ({CACHE_SCHEMA_VERSION})",
            "cache",
            0.6,
        )
        notes.append(
            "cache entries match the current schema — note this cannot rule "
            "out entries stored before an unreleased simulator edit"
        )


def _differential_evidence(
    causes: dict[str, CauseHypothesis],
    notes: list[str],
    fuzz_seeds: Sequence[int],
) -> Optional[DivergenceReport]:
    """Replay scalar-vs-vectorized over seeds; divergence is strong drift."""
    drift = causes[CAUSE_BACKEND_DRIFT]
    scalar = backend_config("scalar", "scalar")
    vectorized = backend_config("vectorized", "vectorized")
    for seed in fuzz_seeds:
        report = diagnose_divergence(scalar, vectorized, seed=seed)
        if report.diverged:
            assert report.divergence is not None
            drift.support(
                f"differential replay diverges at seed {seed}: "
                f"{report.divergence.detail}",
                "differential",
                0.95,
            )
            notes.append(f"differential divergence found at seed {seed}")
            return report
    if fuzz_seeds:
        drift.refute(
            f"{len(fuzz_seeds)} seeded differential replay(s) match at every stage",
            "differential",
            0.7,
        )
    return None


def scan_signature_collisions(config, seeds: Sequence[int]) -> list[dict]:
    """Find coarse decision signatures that alias different decisions.

    Replays :func:`~repro.diagnostics.divergence.seeded_events` scripts,
    recording the planner's decision at every decide point alongside the
    belief's :meth:`~repro.inference.belief.BeliefState.decision_signature`
    at the config's policy resolution.  Two occurrences of the same
    signature choosing different delays is exactly the failure the policy
    table would replay: its memoized decision would be wrong for one of the
    two states.
    """
    resolution = config.policy_resolution_bits
    collisions: list[dict] = []
    seen: dict[tuple, tuple[float, int]] = {}
    for seed in seeds:
        belief = config.build_belief()
        planner = config.build_planner()
        for kind, args in seeded_events(seed):
            if kind == "send":
                belief.record_send(*args)
            elif kind == "update":
                belief.update(*args)
            else:
                signature = belief.decision_signature(planner.top_k, resolution)
                decision = planner.decide(belief, args[0])
                previous = seen.get(signature)
                if previous is not None and previous[0] != decision.delay:
                    collisions.append(
                        {
                            "signature": signature,
                            "delays": (previous[0], decision.delay),
                            "seeds": (previous[1], seed),
                        }
                    )
                else:
                    seen[signature] = (decision.delay, seed)
    return collisions


def _collision_evidence(
    causes: dict[str, CauseHypothesis],
    notes: list[str],
    seeds: Sequence[int],
) -> None:
    collision = causes[CAUSE_SIGNATURE_COLLISION]
    found = scan_signature_collisions(backend_config(), seeds)
    if found:
        sample = found[0]
        collision.support(
            f"{len(found)} signature collision(s) across {len(seeds)} seeds; "
            f"e.g. delays {sample['delays']} share one signature",
            "collision-scan",
            0.85,
        )
        notes.append(f"signature collisions observed: {len(found)}")
    else:
        collision.refute(
            f"no signature collisions across {len(seeds)} seeded replays",
            "collision-scan",
            0.5,
        )


# --------------------------------------------------------------------- triage


def triage(
    cache_dir: Optional[str | Path] = None,
    fuzz_seeds: Sequence[int] = (),
    collision_seeds: Sequence[int] = (),
) -> TriageReport:
    """Collect every available evidence source and rank the three causes.

    All probes are optional — pass only the evidence you have.  With no
    evidence at all the report simply returns the priors.
    """
    causes = make_causes()
    notes: list[str] = []
    if cache_dir is not None:
        _cache_evidence(causes, notes, Path(cache_dir))
    divergence = None
    if fuzz_seeds:
        divergence = _differential_evidence(causes, notes, fuzz_seeds)
    if collision_seeds:
        _collision_evidence(causes, notes, collision_seeds)
    ranked = BayesianScorer().score(list(causes.values()))
    return TriageReport(causes=ranked, notes=notes, divergence=divergence)
