"""Batched log-likelihood scoring over an :class:`EnsembleState`.

Replicates :meth:`repro.inference.hypothesis.Hypothesis.score` row-wise,
including its side effects and short-circuits:

* acknowledgements are processed in arrival order; a row that is rejected
  (contradicted charged-loss, predicted drop, unexplainable sequence number,
  kernel hard reject) stops accumulating *and stops mutating its
  bookkeeping*, exactly like the scalar early ``return -inf``;
* a zero survival probability contributes ``-inf`` to the log-likelihood but
  does **not** stop bookkeeping (the scalar path keeps iterating);
* packets the model predicts as delivered but never acknowledged are charged
  to last-mile loss — rejecting zero-loss rows outright — and marked
  resolved/lost on the surviving rows.

Per-acknowledgement kernel evaluation uses the kernels' own
``log_weight_batch`` when available (see :mod:`repro.inference.likelihood`);
loss terms reuse the log constants precomputed on the state so every
contribution is bit-identical to the scalar arithmetic.
"""

from __future__ import annotations

from typing import Iterable, Set

import numpy as np

from repro.inference.likelihood import LikelihoodKernel, log_weight_batch
from repro.inference.observation import AckObservation
from repro.inference.vectorized.state import (
    FLOW_OWN,
    PRED_DELIVERED,
    PRED_DROPPED,
    PRED_NONE,
    EnsembleState,
)


def score_and_bookkeep(
    state: EnsembleState,
    acks: Iterable[AckObservation],
    now: float,
    kernel: LikelihoodKernel,
    acked_seqs: Set[int],
) -> np.ndarray:
    """Per-row log-likelihood of ``acks``; mutates resolved/lost bookkeeping."""
    size = state.size
    log_likelihood = np.zeros(size)
    rejected = np.zeros(size, dtype=bool)

    for ack in acks:
        live = ~rejected
        if not live.any():
            break
        col = state.column_of(ack.seq)
        if col is None:
            # No row has ever seen this sequence number: every live row is
            # contradicted (the scalar projected_delivery returns None).
            rejected |= live
            continue
        # A packet already charged as lost contradicts the row outright.
        rejected |= live & state.lost[:, col]
        live = ~rejected

        pred = state.pred_state[:, col]
        rejected |= live & (pred == PRED_DROPPED)
        live = ~rejected

        delivered = live & (pred == PRED_DELIVERED)
        unresolved = live & (pred == PRED_NONE)
        projected, found = _projected_delivery(state, ack.seq, col, unresolved)
        rejected |= unresolved & ~found
        live = ~rejected

        scoring = (delivered | (unresolved & found)) & live
        error = np.where(delivered, state.pred_time[:, col], projected) - ack.received_at
        contribution = log_weight_batch(kernel, error)
        rejected |= scoring & (contribution == -np.inf)
        scoring &= ~rejected

        log_likelihood[scoring] += contribution[scoring]
        # Survival factor: only when survival < 1; survival == 0 adds -inf
        # without rejecting the row (bookkeeping continues, as in the scalar
        # path).
        lossy = scoring & (state.survival < 1.0)
        log_likelihood[lossy] += state.log_survival[lossy]
        state.resolved[scoring, col] = True

    live = ~rejected
    if state.n_own and live.any():
        _charge_missing_packets(state, now, acked_seqs, live, rejected, log_likelihood)

    log_likelihood[rejected] = -np.inf
    return log_likelihood


def _projected_delivery(
    state: EnsembleState, seq: int, col: int, mask: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Best-guess delivery times for rows still holding ``seq`` in the model.

    Mirrors ``LinkModel.projected_delivery``: the packet is either in
    service (projected at its completion) or queued (service remainder plus
    the bits ahead of it, fillers included, summed in queue order), else
    the projection fails (``found`` False).  An own packet sits in the
    planes, behind the row's ``q_fill`` fillers.
    """
    size = state.size
    projected = np.zeros(size)
    in_service = (
        mask
        & state.svc_active
        & (state.svc_flow == FLOW_OWN)
        & (state.svc_seq == seq)
    )
    projected[in_service] = state.svc_completion[in_service]

    searching = mask & ~in_service
    columns = np.arange(state.q_flow.shape[1])
    occupied = columns[None, :] < (state.q_len - state.q_fill)[:, None]
    matches = occupied & (state.q_flow == FLOW_OWN) & (state.q_seq == seq)
    in_queue = searching & matches.any(axis=1)
    if in_queue.any():
        position = np.argmax(matches, axis=1)
        row_index = np.nonzero(in_queue)[0]
        slot = position[row_index] + state.q_fill[row_index]
        width = int(slot.max()) + 1
        sizes = state.queued_sizes(row_index, width)
        inclusive = np.cumsum(sizes, axis=1)
        picked = np.arange(row_index.size)
        own_size = sizes[picked, slot]
        ahead_in_queue = inclusive[picked, slot] - own_size
        service_remaining = np.maximum(
            0.0,
            (state.svc_completion[row_index] - state.time) * state.link_rate[row_index],
        )
        service_remaining[~state.svc_active[row_index]] = 0.0
        ahead = service_remaining + ahead_in_queue
        projected[row_index] = state.time + (ahead + own_size) / state.link_rate[row_index]

    return projected, in_service | in_queue


def _charge_missing_packets(
    state: EnsembleState,
    now: float,
    acked_seqs: Set[int],
    live: np.ndarray,
    rejected: np.ndarray,
    log_likelihood: np.ndarray,
) -> None:
    """Charge unacknowledged-but-delivered packets to stochastic loss once
    ``now`` reaches their predicted delivery time."""
    n = state.n_own
    acked_columns = np.array(
        [int(seq) in acked_seqs for seq in state.own_seqs[:n].tolist()], dtype=bool
    )
    missing = (
        (state.pred_state[:, :n] == PRED_DELIVERED)
        & ~state.resolved[:, :n]
        & ~acked_columns[None, :]
        & (state.pred_time[:, :n] <= now)
        & live[:, None]
    )
    counts = missing.sum(axis=1)
    any_missing = counts > 0
    zero_loss = live & any_missing & (state.loss_rate <= 0.0)
    rejected |= zero_loss
    charged = live & any_missing & (state.loss_rate > 0.0)
    if charged.any():
        # Repeated addition (rather than count * log_loss) keeps the float
        # accumulation identical to the scalar per-packet loop.
        most = int(counts[charged].max())
        for already in range(most):
            step = charged & (counts > already)
            log_likelihood[step] += state.log_loss[step]
        charged_missing = missing & charged[:, None]
        state.resolved[:, :n] |= charged_missing
        state.lost[:, :n] |= charged_missing
