"""``repro.api`` — how a sender is described and built.

One frozen :class:`~repro.api.config.SenderConfig` fully describes a
model-based sender (prior, utility, kernel, hypothesis caps, engine
selection, policy mode) and is the only description there is;
:func:`~repro.api.sender.build_components` turns a config into the belief /
planner / policy it names, and :func:`~repro.api.sender.build_sender` wires
those into a preset network as an :class:`~repro.core.isender.ISender`; and
:class:`~repro.api.policy.PolicyTable` is the paper's §3.3 "policy computed
in advance", precomputed over a discretized belief-signature grid and
serializable keyed by the config's fingerprint.

::

    from repro.api import SenderConfig, build_sender
    from repro.inference import figure3_prior
    from repro.topology import figure2_network

    config = SenderConfig(
        prior=figure3_prior(), alpha=1.0,
        belief_backend="vectorized", rollout_backend="vectorized",
        policy="cache",
    )
    network = figure2_network(seed=1)
    sender = build_sender(config, network)
    network.network.run(until=120.0)

This is the layer above :mod:`repro.core` and :mod:`repro.inference`:
it imports them, and neither imports it.
"""

from repro.api.config import KERNELS, POLICY_MODES, SenderConfig, canonical_digest
from repro.api.policy import (
    PolicyTable,
    decision_from_payload,
    decision_to_payload,
    load_or_precompute_policy_table,
    precompute_policy_table,
    signature_from_json,
    table_quarantine_count,
)
from repro.api.sender import SenderParts, build_components, build_sender
from repro.errors import UnknownBackendError

__all__ = [
    "KERNELS",
    "POLICY_MODES",
    "PolicyTable",
    "SenderConfig",
    "SenderParts",
    "UnknownBackendError",
    "build_components",
    "build_sender",
    "canonical_digest",
    "decision_from_payload",
    "decision_to_payload",
    "load_or_precompute_policy_table",
    "precompute_policy_table",
    "signature_from_json",
    "table_quarantine_count",
]
