"""The one frozen description of a model-based sender.

:class:`SenderConfig` is a single frozen dataclass — prior, utility shape,
likelihood kernel, hypothesis caps, engine selection, and policy mode —
that fully describes a model-based sender.  Experiments, runner scenarios,
the policy server and the examples all describe their senders with one of
these and build them through :func:`repro.api.sender.build_sender` /
:func:`~repro.api.sender.build_components`.

Backend names are checked **eagerly**, at construction, the way ``kernel``
and ``policy`` are, so a typo like ``rollout_backend="vectorised"`` fails
with a :class:`~repro.errors.UnknownBackendError` listing the accepted names
instead of surfacing deep inside planner construction.

:meth:`SenderConfig.fingerprint` is the stable identity used to key
precomputed :class:`~repro.api.policy.PolicyTable` files (§3.3): two
configs with the same fields and the same prior support produce the same
fingerprint on any machine or Python version.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, fields as dataclass_fields, replace
from typing import Optional

from repro._persist import canonical_digest
from repro.core.planner import ExpectedUtilityPlanner
from repro.core.utility import AlphaWeightedUtility
from repro.errors import ConfigurationError
from repro.inference.belief import BeliefState, check_backend
from repro.inference.likelihood import ExactMatchKernel, GaussianKernel, LikelihoodKernel
from repro.inference.prior import Prior
from repro.units import DEFAULT_PACKET_BITS

#: Likelihood kernels a config can name.
KERNELS = ("gaussian", "exact")

#: Decision-policy modes (§3.3): live planning, memoized decisions, or a
#: precomputed policy table.
POLICY_MODES = ("none", "cache", "table")

#: Fingerprint format version, bumped on incompatible changes.
FINGERPRINT_VERSION = 1

#: The numeric fields and their lower bounds, ``(name, lowest, inclusive)``;
#: every one must also be finite (``horizon`` may be ``None``).
_NUMERIC_FIELDS = (
    ("alpha", 0.0, True),
    ("discount_timescale", 0.0, False),
    ("latency_penalty", 0.0, True),
    ("kernel_scale", 0.0, False),
    ("max_hypotheses", 1, True),
    ("top_k", 1, True),
    ("packet_bits", 0.0, False),
    ("horizon", 0.0, False),
    ("horizon_service_multiples", 0.0, False),
    ("policy_resolution_bits", 0.0, False),
)

#: The numeric fields that count rows: a slice bound and a ``range`` length,
#: so each must also be an integer (and not a bool).
_COUNT_FIELDS = ("max_hypotheses", "top_k")


@dataclass(frozen=True)
class SenderConfig:
    """Everything needed to construct a model-based sender.

    Parameters
    ----------
    prior:
        The sender's prior over network configurations.  May be ``None``
        when the prior is supplied at build time (scenario code often
        derives it per run), in which case the fingerprint covers only the
        remaining fields.
    alpha / discount_timescale / latency_penalty:
        The :class:`~repro.core.utility.AlphaWeightedUtility` shape (§3.3);
        the defaults are the Figure-3 calibration.
    kernel / kernel_scale:
        Likelihood kernel: ``"gaussian"`` (scale = σ) or ``"exact"``
        (scale = rejection tolerance).
    max_hypotheses:
        Ensemble cap applied after every belief update.
    top_k:
        Highest-weight hypotheses the planner evaluates per decision.
    packet_bits:
        Uniform packet size of the sender.
    horizon / horizon_service_multiples:
        Planner rollout horizon (fixed seconds, or derived per decision).
    belief_backend / rollout_backend:
        Engine names, checked at construction: ``"scalar"`` (the reference
        oracle) or the one array engine (struct-of-arrays ensemble and
        batched rollout lanes) under either of its two spellings,
        ``"vectorized"`` and ``"fused"``.  The two run the same code, but
        the spelling is part of :meth:`fingerprint` — and so of a point's
        seed and cache key.
    policy:
        ``"none"`` plans live at every wake-up; ``"cache"`` memoizes
        decisions (:class:`~repro.core.policy.PolicyCache`); ``"table"``
        consults a precomputed :class:`~repro.api.policy.PolicyTable`.
    policy_resolution_bits:
        Queue-occupancy resolution of the cache/table belief signature.
    """

    prior: Optional[Prior] = None
    alpha: float = 1.0
    discount_timescale: float = 20.0
    latency_penalty: float = 0.0
    kernel: str = "gaussian"
    kernel_scale: float = 0.4
    max_hypotheses: int = 200
    top_k: int = 16
    packet_bits: float = DEFAULT_PACKET_BITS
    horizon: Optional[float] = None
    horizon_service_multiples: float = 12.0
    belief_backend: str = "scalar"
    rollout_backend: str = "scalar"
    policy: str = "none"
    policy_resolution_bits: float = 3_000.0

    def __post_init__(self) -> None:
        check_backend("belief", self.belief_backend)
        check_backend("rollout", self.rollout_backend)
        if self.kernel not in KERNELS:
            raise ConfigurationError(
                f"unknown kernel {self.kernel!r}; expected one of {KERNELS}"
            )
        if self.policy not in POLICY_MODES:
            raise ConfigurationError(
                f"unknown policy mode {self.policy!r}; expected one of {POLICY_MODES}"
            )
        for name in _COUNT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        # Each check is written so that NaN fails it, and every field must be
        # finite: an infinite horizon never finishes a rollout, an infinite
        # kernel scale is a flat kernel that learns nothing.
        for name, lowest, inclusive in _NUMERIC_FIELDS:
            value = getattr(self, name)
            if value is None and name == "horizon":
                continue
            above = lowest <= value if inclusive else lowest < value
            if not (above and value < math.inf):
                relation = "at least" if inclusive else "greater than"
                raise ConfigurationError(
                    f"{name} must be finite and {relation} {lowest}, got {value!r}"
                )

    # -------------------------------------------------------------- derivation

    def with_prior(self, prior: Optional[Prior]) -> "SenderConfig":
        """This config with ``prior`` substituted (no-op when ``None``)."""
        if prior is None or prior is self.prior:
            return self
        return replace(self, prior=prior)

    # ------------------------------------------------------------ construction

    def build_kernel(self) -> LikelihoodKernel:
        """The likelihood kernel this config names."""
        if self.kernel == "exact":
            return ExactMatchKernel(tolerance=self.kernel_scale)
        return GaussianKernel(sigma=self.kernel_scale)

    def build_utility(self) -> AlphaWeightedUtility:
        """The :class:`~repro.core.utility.AlphaWeightedUtility` this config names."""
        return AlphaWeightedUtility(
            alpha=self.alpha,
            discount_timescale=self.discount_timescale,
            latency_penalty=self.latency_penalty,
        )

    def build_belief(self, prior: Optional[Prior] = None) -> BeliefState:
        """A belief state over ``prior`` (defaulting to the config's own)."""
        prior = prior if prior is not None else self.prior
        if prior is None:
            raise ConfigurationError(
                "this SenderConfig carries no prior; pass one to build_belief "
                "/ build_sender or construct the config with prior=..."
            )
        return BeliefState.from_prior(
            prior,
            kernel=self.build_kernel(),
            max_hypotheses=self.max_hypotheses,
            backend=self.belief_backend,
        )

    def build_planner(self, utility=None, rollout_backend: Optional[str] = None):
        """The expected-utility planner this config describes.

        ``utility`` and ``rollout_backend`` overrides exist for callers
        like the policy-table precompute sweep, which runs the config's
        planning problem through the array lane engine regardless of
        the configured runtime backend.
        """
        return ExpectedUtilityPlanner(
            utility if utility is not None else self.build_utility(),
            packet_bits=self.packet_bits,
            horizon=self.horizon,
            horizon_service_multiples=self.horizon_service_multiples,
            top_k=self.top_k,
            rollout_backend=(
                rollout_backend if rollout_backend is not None else self.rollout_backend
            ),
        )

    # ---------------------------------------------------------------- identity

    def describe(self) -> dict:
        """A canonical, JSON-serializable description of this config.

        The prior is described by its full discrete support — sorted
        parameter assignments with probabilities — so two priors built by
        different code paths fingerprint identically iff they put the same
        mass on the same configurations.
        """
        config_fields = {
            spec.name: getattr(self, spec.name)
            for spec in dataclass_fields(self)
            if spec.name != "prior"
        }
        description: dict = {"version": FINGERPRINT_VERSION, "config": config_fields}
        if self.prior is not None:
            # Sorted support: two priors fingerprint identically iff they
            # put the same mass on the same configurations, regardless of
            # the grids' enumeration order.
            description["prior"] = sorted(
                [sorted(assignment.items()), probability]
                for assignment, probability in self.prior.combinations()
            )
        else:
            description["prior"] = None
        return description

    def fingerprint(self) -> str:
        """A stable hex digest identifying this config (and its prior).

        Keys serialized :class:`~repro.api.policy.PolicyTable` files and
        the runner's persistent result cache: a table precomputed for one
        fingerprint refuses to load against a different config, and a
        cached grid point is replayed only for the exact configuration
        that produced it.

        The digest is computed once per instance, on the first call, and
        the stored string returned afterwards: describing a prior sorts its
        whole support, milliseconds that used to be paid per served request.
        ``replace`` / :meth:`with_prior` build new instances, hence new
        digests, so the memo only goes stale if the
        :class:`~repro.inference.prior.Prior` (or its ``fixed`` mapping) is
        mutated after the config is built — it must not be.  The memo is no
        field: ``==``, ``hash``, ``repr`` and :meth:`describe` never see it.
        """
        return self._fingerprint

    @functools.cached_property
    def _fingerprint(self) -> str:
        return canonical_digest(self.describe())
