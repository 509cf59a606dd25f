"""``repro.api`` — how a sender is described and built.

One frozen :class:`~repro.api.config.SenderConfig` fully describes a
model-based sender (prior, utility, kernel, hypothesis caps, engine
selection, policy mode) and is the only description there is;
:func:`~repro.api.sender.build_components` turns a config into the belief /
planner / policy it names, and :func:`~repro.api.sender.build_sender` wires
those into a preset network as an :class:`~repro.core.isender.ISender`;
:mod:`~repro.api.backends` is the string-keyed registry the inference and
planner engines self-register on; and
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

The heavyweight names are loaded lazily (PEP 562) so that engine modules
can import :mod:`repro.api.backends` without dragging the whole
construction layer — and its imports of :mod:`repro.core` — into their own
import cycle.
"""

from repro.api.backends import BELIEF_BACKENDS, ROLLOUT_BACKENDS, BackendRegistry
from repro.errors import UnknownBackendError

#: Lazily imported public names: attribute -> (module, attribute).
_LAZY_EXPORTS = {
    "SenderConfig": ("repro.api.config", "SenderConfig"),
    "KERNELS": ("repro.api.config", "KERNELS"),
    "POLICY_MODES": ("repro.api.config", "POLICY_MODES"),
    "canonical_digest": ("repro.api.config", "canonical_digest"),
    "build_sender": ("repro.api.sender", "build_sender"),
    "build_components": ("repro.api.sender", "build_components"),
    "SenderParts": ("repro.api.sender", "SenderParts"),
    "PolicyTable": ("repro.api.policy", "PolicyTable"),
    "precompute_policy_table": ("repro.api.policy", "precompute_policy_table"),
    "load_or_precompute_policy_table": (
        "repro.api.policy",
        "load_or_precompute_policy_table",
    ),
    "decision_to_payload": ("repro.api.policy", "decision_to_payload"),
    "decision_from_payload": ("repro.api.policy", "decision_from_payload"),
    "signature_from_json": ("repro.api.policy", "signature_from_json"),
    "table_quarantine_count": ("repro.api.policy", "table_quarantine_count"),
}

__all__ = [
    "BELIEF_BACKENDS",
    "ROLLOUT_BACKENDS",
    "BackendRegistry",
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


def __getattr__(name: str):
    try:
        module_name, attribute = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module_name), attribute)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
