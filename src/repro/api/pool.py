"""A pool of ISender components sharing one (sender × action × hypothesis) kernel.

:func:`repro.api.sender.build_components` builds one sender's inference
stack; a many-flow scenario calling it N times gets N independent planners
whose decide passes each launch their own (action × hypothesis) rollout.
:class:`BatchedSenderPool` generalizes the lane axis: it builds the same
per-sender parts (bit-identical construction — the pool literally calls
``build_components`` once per prior, in order), and its
:meth:`~BatchedSenderPool.decide_all` advances *every* sender's action
frontier through a single
:func:`~repro.inference.vectorized.rollout.batched_rollout_blocks` pass over
shared (sender × action × hypothesis) lane buffers.

Equivalence contract
--------------------

``decide_all(now)`` returns exactly the decisions the per-sender loop
``[parts.planner.decide(parts.belief, now) for parts in pool]`` would on
the array rollout engine — bit-identical expected utilities, same chosen
actions, same ``rollouts_performed`` accounting — because a planner's
``decide`` *is* the one-sender case of the same
:func:`~repro.inference.vectorized.rollout.decide_pooled` call, and the
pooled frontier's per-block event streams are byte-identical to each
block's standalone rollout (the frontier core is lane-elementwise; see
``batched_rollout_blocks``).

Event-driven scenarios (``many_flow_contention``) wake senders on their own
ACK clocks, at distinct instants — there the pool's value is pooled
construction; ``decide_all`` is the batch-synchronous entry point for
drivers that advance many senders in lockstep (the aggregate benchmark,
batched sweeps, RL-style steppers).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from repro.api.backends import BELIEF_BACKENDS
from repro.api.config import SenderConfig
from repro.api.sender import SenderParts, build_components
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.planner import Decision
    from repro.core.utility import UtilityFunction
    from repro.inference.prior import Prior


class BatchedSenderPool:
    """Per-sender inference parts plus a pooled batch-synchronous decide.

    Parameters
    ----------
    config:
        The :class:`~repro.api.config.SenderConfig` every pooled sender
        shares.  Its ``belief_backend`` must be a row-ensemble engine —
        one whose beliefs expose ``top_rows`` (the array engine, under
        either spelling): the pooled decide reads each belief's ensemble
        rows in place, which a scalar belief cannot offer.
    priors:
        One prior per sender, in sender order.  Construction is performed
        by calling :func:`~repro.api.sender.build_components` once per
        prior — byte-identical to building N independent senders.
    utility:
        Optional utility override forwarded to every sender's planner.
    start_time:
        Forwarded to every belief's initial observation time.
    """

    def __init__(
        self,
        config: SenderConfig,
        priors: Sequence["Prior"],
        *,
        utility: Optional["UtilityFunction"] = None,
        start_time: float = 0.0,
    ) -> None:
        if not hasattr(BELIEF_BACKENDS.resolve(config.belief_backend), "top_rows"):
            raise ConfigurationError(
                "BatchedSenderPool needs a row-ensemble belief backend "
                f"(one exposing top_rows); got {config.belief_backend!r}"
            )
        if not priors:
            raise ConfigurationError("BatchedSenderPool needs at least one prior")
        self.config = config
        self.parts: list[SenderParts] = [
            build_components(
                config, prior, utility=utility, start_time=start_time
            )
            for prior in priors
        ]

    # ---------------------------------------------------------------- access

    @property
    def size(self) -> int:
        return len(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[SenderParts]:
        return iter(self.parts)

    def __getitem__(self, index: int) -> SenderParts:
        return self.parts[index]

    # ------------------------------------------------------------ pooled decide

    def decide_all(self, now: float) -> list["Decision"]:
        """Decide for every sender through one pooled rollout frontier.

        One :func:`~repro.inference.vectorized.rollout.decide_pooled` call:
        each sender contributes its top-k rows fanned out over its own
        action grid, and all (sender × action × hypothesis) lanes advance
        together.  Decisions come back in sender order and are
        bit-identical to per-sender decides at the same ``now`` (see the
        module docstring for why).
        """
        # Imported here, not at module top: it lives in the NumPy engine,
        # and the pool class itself must stay importable without it (the
        # registry's lazy-import discipline).
        from repro.inference.vectorized.rollout import decide_pooled

        return decide_pooled(
            [(parts.planner, parts.belief) for parts in self.parts], now
        )
