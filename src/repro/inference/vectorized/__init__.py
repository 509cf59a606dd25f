"""The array engine: NumPy struct-of-arrays inference and rollout.

There are two engines per layer: the scalar oracle
(:class:`~repro.inference.belief.HypothesisRows`, a Python list of
:class:`~repro.inference.hypothesis.Hypothesis` objects, and
``value_hypotheses`` cloning one ``LinkModel`` per rollout lane) and this
package, which stores the whole ensemble as struct-of-arrays buffers and
batches each step across all rows.  What both engines share is written once,
above them: the belief update in
:meth:`~repro.inference.belief.BeliefState.update`, also the only place
that emits its stages, and the decision in the planner's ``decide``.

* :mod:`~repro.inference.vectorized.state` — the buffers themselves
  (parameters, gate state, queue ring buffers, in-flight packet ledgers)
  plus on-demand materialization back to scalar hypotheses,
* :mod:`~repro.inference.vectorized.engine` — batched forward simulation
  (``advance`` / ``send_own``) and gate forking,
* :mod:`~repro.inference.vectorized.scoring` — batched log-space
  likelihood accumulation with scalar-identical semantics,
* :mod:`~repro.inference.vectorized.belief` — ``ArrayRows``, the array
  form of a belief's rows (fork and advance, score, merge digests, row
  selection), and :class:`VectorizedBeliefState`, the belief that holds
  it until one fork-free row is left,
* :mod:`~repro.inference.vectorized.rollout` — the batched planner
  rollout: every (action × hypothesis) lane decided by one packet-column
  kernel, one arrival column per iteration, fed straight from ensemble
  rows.  It only values lanes
  (``select_rows`` / ``value_rows``, and ``follow_rows`` for a decision's
  follow-up); the planner's one ``decide`` turns the values into a
  decision for both engines.

The engine answers to two accepted spellings, ``"vectorized"`` and
``"fused"``, on ``belief_backend``, ``rollout_backend`` and
``sweep_backend``: ``BeliefState.for_backend`` returns the same class for
both and a planner calls the same rollout functions; each imports this
package when first asked for the engine by name, and not before.  The
spelling is still part of a point's *identity*: it feeds
``SenderConfig.fingerprint()``, hence derived seeds and result-cache keys,
so results published under either name stay addressable.
"""

from repro.inference.vectorized.belief import VectorizedBeliefState
from repro.inference.vectorized.rollout import (
    BatchedRolloutOutcome,
    batched_rollout_rows,
)
from repro.inference.vectorized.state import EnsembleState

__all__ = [
    "BatchedRolloutOutcome",
    "EnsembleState",
    "VectorizedBeliefState",
    "batched_rollout_rows",
]
