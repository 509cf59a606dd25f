"""TCP NewReno: Reno with more patient fast recovery (RFC 6582 flavour).

During fast recovery a *partial* ACK (one that advances the cumulative ACK
but not past the recovery point) retransmits the next missing packet
immediately instead of waiting for three more duplicate ACKs or a timeout,
which markedly improves behaviour when several packets from one window are
lost — the common case on the lossy paths this library studies.
"""

from __future__ import annotations

from repro.baselines.reno import RenoSender


class NewRenoSender(RenoSender):
    """Reno with partial-ACK retransmission during fast recovery."""

    def _on_delivery(self, delivery) -> None:  # type: ignore[override]
        previously_in_recovery = self.in_recovery
        previous_cumulative = self.cumulative_ack
        super()._on_delivery(delivery)
        if not previously_in_recovery or not self.in_recovery:
            return
        if self.cumulative_ack > previous_cumulative and self.cumulative_ack < self.recovery_point:
            # Partial ACK: repair the next hole right away.
            missing = self.cumulative_ack + 1
            if missing not in self.received_seqs and missing not in self.outstanding:
                self._transmit(missing, retransmission=True)
