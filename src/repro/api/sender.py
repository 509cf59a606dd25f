"""``build_sender`` — the one construction path for model-based senders.

Every experiment, runner scenario, example, and benchmark that wires an
:class:`~repro.core.isender.ISender` into a network goes through
:func:`build_sender` with a :class:`~repro.api.config.SenderConfig`;
callers that do their own element wiring (many-flow scenarios, the policy
server) take the belief / planner / policy from :func:`build_components`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro._persist import default_cache_dir
from repro.api.config import SenderConfig
from repro.api.policy import PolicyTable, load_or_precompute_policy_table
from repro.core.isender import ISender
from repro.core.planner import ExpectedUtilityPlanner
from repro.core.policy import PolicyCache, SharedPlanner
from repro.core.utility import UtilityFunction
from repro.errors import ConfigurationError
from repro.inference.belief import BeliefState
from repro.inference.prior import Prior


@dataclass
class SenderParts:
    """The components :func:`build_components` assembles, pre-wiring."""

    belief: BeliefState
    #: The config's own planner, or the one the caller supplied.
    planner: Union[ExpectedUtilityPlanner, SharedPlanner]
    #: The decision policy installed on the sender (cache/table), or ``None``.
    policy: Optional[object]


def build_components(
    config: SenderConfig,
    prior: Optional[Prior] = None,
    *,
    utility: Optional[UtilityFunction] = None,
    planner: Optional[Union[ExpectedUtilityPlanner, SharedPlanner]] = None,
    policy_table: Optional[PolicyTable] = None,
    start_time: float = 0.0,
) -> SenderParts:
    """Construct the belief / planner / policy a config describes.

    For callers that do their own element wiring; most code wants
    :func:`build_sender`.  ``utility`` overrides the config's α-weighted
    utility (the §4 drain scenario passes its latency-penalizing variant).
    ``planner`` supplies the planner, the way ``policy_table`` supplies a
    table: omitted, one is built from the config.  A scenario whose senders
    share one config passes each the same
    :class:`~repro.core.policy.SharedPlanner`; the belief and the cache or
    table stay the sender's own.  A supplied planner carries its own
    utility, so passing ``utility`` too raises.
    ``policy_table`` supplies a precomputed table for ``policy="table"``;
    omitted, one is precomputed on the spot from the config's prior.
    """
    if planner is not None and utility is not None:
        raise ConfigurationError(
            "pass planner= or utility=, not both: a supplied planner already "
            "carries its utility"
        )
    belief = config.build_belief(prior, start_time=start_time)
    if planner is None:
        planner = config.build_planner(utility=utility)
    policy = None
    if config.policy == "cache":
        policy = PolicyCache(
            planner, queue_resolution_bits=config.policy_resolution_bits
        )
    elif config.policy == "table":
        if utility is not None:
            # A table's decisions maximize the *config's* utility; serving
            # them next to an overridden fallback utility would mix two
            # objectives silently.  Encode the utility in the config
            # (alpha / discount_timescale / latency_penalty) instead.
            raise ConfigurationError(
                "policy='table' cannot be combined with a utility= override: "
                "precomputed decisions maximize the config's own utility; "
                "express the utility through SenderConfig fields, or use "
                "policy='cache' / 'none'"
            )
        if policy_table is None:
            # Share precomputed tables across runs and runner workers when a
            # cache directory is configured (CLI --cache-dir exports
            # $REPRO_CACHE_DIR); without one this is a plain precompute.
            policy_table = load_or_precompute_policy_table(
                config, prior, cache_dir=default_cache_dir()
            )
        elif policy_table.fingerprint:
            # A stamped table refuses to serve a config it was not computed
            # for — stale entries would silently prescribe actions for the
            # wrong utility/prior.  (Unstamped, hand-built tables skip the
            # check.)
            expected = config.with_prior(prior).fingerprint()
            if policy_table.fingerprint != expected:
                raise ConfigurationError(
                    f"policy table was precomputed for config fingerprint "
                    f"{policy_table.fingerprint!r}, but this sender's config "
                    f"fingerprints as {expected!r}; recompute the table with "
                    "precompute_policy_table(config)"
                )
        policy = policy_table.with_planner(planner)
    return SenderParts(belief=belief, planner=planner, policy=policy)


def build_sender(
    config: SenderConfig,
    network,
    *,
    prior: Optional[Prior] = None,
    utility: Optional[UtilityFunction] = None,
    stop_time: Optional[float] = None,
    start_time: float = 0.0,
    policy_table: Optional[PolicyTable] = None,
    flow: Optional[str] = None,
    name: Optional[str] = None,
) -> ISender:
    """Build the sender ``config`` describes and wire it into ``network``.

    ``network`` is any preset-network handle exposing ``network`` (the
    :class:`~repro.sim.element.Network`), ``entry`` (the element the sender
    feeds), ``sender_receiver``, and ``sender_flow`` — i.e.
    :class:`~repro.topology.presets.Figure2Network` or
    :class:`~repro.topology.presets.SingleLinkNetwork`.

    ``prior`` overrides the config's own prior (scenario code often derives
    the prior per run).
    """
    for attribute in ("network", "entry", "sender_receiver", "sender_flow"):
        if not hasattr(network, attribute):
            raise ConfigurationError(
                f"build_sender needs a preset-network handle exposing "
                f"{attribute!r} (got {type(network).__name__})"
            )
    parts = build_components(
        config,
        prior,
        utility=utility,
        policy_table=policy_table,
        start_time=start_time,
    )
    sender = ISender(
        parts.belief,
        parts.planner,
        network.sender_receiver,
        flow=flow if flow is not None else network.sender_flow,
        packet_bits=config.packet_bits,
        name=name,
        start_time=start_time,
        stop_time=stop_time,
        policy=parts.policy,
    )
    sender.connect(network.entry)
    network.network.add(sender)
    return sender
