"""Experiment runners that regenerate every figure and prose result of the paper.

Each runner is an ordinary function returning a result dataclass with (a)
the raw series the corresponding figure plots and (b) ``rows()`` — the
summary table to print.  Durations and grid resolutions are parameters so
the tests can run shortened versions while examples use the paper's full
settings.
"""

from repro.experiments.ablation import AblationResult, run_inference_ablation
from repro.experiments.comparison import LossComparisonResult, run_loss_comparison
from repro.experiments.figure1 import Figure1Result, run_figure1
from repro.experiments.figure3 import Figure3AlphaResult, Figure3Result, run_figure3
from repro.experiments.simple import (
    ConvergenceResult,
    DrainResult,
    run_convergence_scenario,
    run_drain_scenario,
)

__all__ = [
    "AblationResult",
    "ConvergenceResult",
    "DrainResult",
    "Figure1Result",
    "Figure3AlphaResult",
    "Figure3Result",
    "LossComparisonResult",
    "run_convergence_scenario",
    "run_drain_scenario",
    "run_figure1",
    "run_figure3",
    "run_inference_ablation",
    "run_loss_comparison",
]
