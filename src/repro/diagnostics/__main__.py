"""Command-line entry point: ``python -m repro.diagnostics``.

Two subcommands::

    # Where do two backend configurations first disagree, and why?
    python -m repro.diagnostics divergence --seed 3
    python -m repro.diagnostics divergence --perturb score   # self-test

    # Rank candidate causes against differential fuzz, the cache, and
    # signature-collision scans.
    python -m repro.diagnostics triage --fuzz 5 --cache-dir .repro-cache

Exit status: ``divergence`` returns 1 when the replays diverge, ``triage``
always returns 0 (it ranks causes; it is not itself a gate).  Timing
regressions are ``benchmarks/compare.py``'s call, not this package's.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.diagnostics.divergence import (
    INJECTABLE_STAGES,
    backend_config,
    diagnose_divergence,
    inject_stage_perturbation,
)
from repro.diagnostics.triage import triage


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.diagnostics",
        description="equivalence triage for the repro sender",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    divergence = sub.add_parser(
        "divergence",
        help="bisect two backend replays to the first diverging kernel stage",
    )
    divergence.add_argument("--seed", type=int, default=0)
    divergence.add_argument("--belief-a", default="scalar")
    divergence.add_argument("--rollout-a", default="scalar")
    divergence.add_argument("--belief-b", default="vectorized")
    divergence.add_argument("--rollout-b", default="vectorized")
    divergence.add_argument("--max-hypotheses", type=int, default=48)
    divergence.add_argument("--top-k", type=int, default=8)
    divergence.add_argument("--tolerance", type=float, default=1e-9)
    divergence.add_argument(
        "--perturb",
        choices=INJECTABLE_STAGES,
        help="deliberately skew one vectorized stage (fingerprinter self-test)",
    )
    divergence.add_argument("--epsilon", type=float, default=1.0)

    triage_parser = sub.add_parser(
        "triage", help="rank candidate root causes against available evidence"
    )
    triage_parser.add_argument("--cache-dir", help="ResultCache root to scan")
    triage_parser.add_argument(
        "--fuzz", type=int, default=0, metavar="N",
        help="differential scalar-vs-vectorized replays over seeds 0..N-1",
    )
    triage_parser.add_argument(
        "--collision-seeds", type=int, default=0, metavar="N",
        help="seeded replays scanned for decision-signature collisions",
    )

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "divergence":
        config_a = backend_config(
            args.belief_a, args.rollout_a, args.max_hypotheses, args.top_k
        )
        config_b = backend_config(
            args.belief_b, args.rollout_b, args.max_hypotheses, args.top_k
        )
        if args.perturb:
            with inject_stage_perturbation(args.perturb, args.epsilon):
                report = diagnose_divergence(
                    config_a, config_b, seed=args.seed, tolerance=args.tolerance
                )
        else:
            report = diagnose_divergence(
                config_a, config_b, seed=args.seed, tolerance=args.tolerance
            )
        print(report.render())
        return 1 if report.diverged else 0

    assert args.command == "triage"
    report = triage(
        cache_dir=args.cache_dir,
        fuzz_seeds=range(args.fuzz),
        collision_seeds=range(args.collision_seeds),
    )
    print(report.render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
