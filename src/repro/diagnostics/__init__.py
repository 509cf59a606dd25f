"""Self-diagnosing equivalence triage for the repro sender.

Three layers, bottom-up:

* :mod:`repro.diagnostics.evidence` — a Bayesian evidence scorer that
  maintains candidate-cause hypotheses and ranks them by posterior.
* :mod:`repro.diagnostics.divergence` — a differential fingerprinter that
  replays two backend configurations through one seeded event script and
  bisects to the first kernel/rollout stage whose checkpoints differ.
* :mod:`repro.diagnostics.triage` — root-cause triage over differential
  fuzz, cache state, and signature-collision scans.

Timings are not this package's business: whether a micro-benchmark timing
regressed is decided by ``benchmarks/compare.py`` and nowhere else.

CLI: ``python -m repro.diagnostics {divergence,triage}``.
"""

from repro.diagnostics.divergence import (
    DECISION_STAGES,
    INJECTABLE_STAGES,
    KERNEL_STAGES,
    Divergence,
    DivergenceReport,
    EventTrace,
    backend_config,
    compare_traces,
    diagnose_divergence,
    inject_stage_perturbation,
    replay_trace,
    seeded_events,
)
from repro.diagnostics.evidence import BayesianScorer, CauseHypothesis, Evidence
from repro.diagnostics.triage import (
    CAUSE_BACKEND_DRIFT,
    CAUSE_CACHE_STALENESS,
    CAUSE_SIGNATURE_COLLISION,
    TriageReport,
    make_causes,
    scan_signature_collisions,
    triage,
)

__all__ = [
    "BayesianScorer",
    "CauseHypothesis",
    "Evidence",
    "Divergence",
    "DivergenceReport",
    "EventTrace",
    "KERNEL_STAGES",
    "DECISION_STAGES",
    "INJECTABLE_STAGES",
    "backend_config",
    "compare_traces",
    "diagnose_divergence",
    "inject_stage_perturbation",
    "replay_trace",
    "seeded_events",
    "CAUSE_BACKEND_DRIFT",
    "CAUSE_CACHE_STALENESS",
    "CAUSE_SIGNATURE_COLLISION",
    "TriageReport",
    "make_causes",
    "scan_signature_collisions",
    "triage",
]
