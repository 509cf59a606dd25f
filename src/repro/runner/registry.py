"""The scenario registry — named, parameterized, seedable workloads.

A *scenario* is a plain function ``fn(seed=..., **params) -> mapping`` that
builds a network, runs it, and returns a flat dict of numeric summary
metrics.  Registering it under a name makes it addressable from a
:class:`~repro.runner.spec.ScenarioSpec`, which is what the parallel
backend pickles across process boundaries — worker processes re-resolve
the name against the registry instead of receiving a closure.

The built-in scenarios (the paper's figure experiments plus the grid
workloads) live in :mod:`repro.runner.scenarios` and are loaded lazily the
first time a name is resolved, which keeps ``repro.experiments`` ↔
``repro.runner`` imports acyclic.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping

from repro._persist import signature_defaults
from repro.errors import ConfigurationError
from repro.runner.spec import ScenarioSpec

#: Signature of a scenario function.
ScenarioFn = Callable[..., Mapping[str, Any]]

#: Module holding the built-in scenario definitions, imported on first use.
_BUILTIN_MODULE = "repro.runner.scenarios"


@dataclass(frozen=True)
class ScenarioEntry:
    """A registered scenario: the function plus its default parameters."""

    name: str
    fn: ScenarioFn
    description: str = ""
    defaults: dict[str, Any] = field(default_factory=dict)
    #: Parameter names the function accepts, or ``None`` if it takes **kwargs.
    accepted_params: frozenset[str] | None = None
    #: The function's own signature defaults, captured at registration so
    #: the result cache can key points on their fully *effective* params.
    signature_defaults: dict[str, Any] = field(default_factory=dict)
    #: Maps a point's effective params to the
    #: :class:`~repro.api.config.SenderConfig` the scenario will build for
    #: them, or ``None`` when the scenario has no sender configuration.  The
    #: result cache folds the config's ``fingerprint()`` into each point's
    #: key, so cached results invalidate when configuration *semantics*
    #: change even though the params did not.
    config_factory: Callable[[Mapping[str, Any]], Any] | None = None

    def effective_params(self, params: Mapping[str, Any]) -> dict[str, Any]:
        """The params the scenario actually executes with for a point.

        Signature defaults, overlaid by registration defaults, overlaid by
        the point's own params — the resolution
        :meth:`ScenarioRegistry.run_point` plus the function call perform.
        Captured from the signature at registration, so the cache and the
        config factory can never drift from what the function really uses.
        """
        merged = dict(self.signature_defaults)
        merged.update(self.defaults)
        merged.update(params)
        return merged

    def validate_params(self, params: Mapping[str, Any]) -> None:
        """Reject unknown or reserved parameter names with a readable error,
        and a run length (``duration``, one value or a sweep's list) that is
        not positive: a run of zero seconds simulates nothing."""
        duration = params.get("duration")
        for value in duration if isinstance(duration, list) else [duration]:
            if isinstance(value, (int, float)) and value <= 0:
                raise ConfigurationError(f"duration={value!r}: a run's duration must be positive")
        if "seed" in params:
            raise ConfigurationError(
                "'seed' is not a scenario parameter — it is derived from the "
                "spec's base seed (set ScenarioSpec.seed, or --seed/--seeds "
                "on the CLI)"
            )
        if self.accepted_params is None:
            return
        unknown = sorted(set(params) - self.accepted_params)
        if unknown:
            known = ", ".join(sorted(self.accepted_params - {"seed"})) or "<none>"
            raise ConfigurationError(
                f"scenario {self.name!r} does not accept parameter(s) "
                f"{', '.join(map(repr, unknown))}; known parameters: {known}"
            )


def _accepted_params(fn: ScenarioFn) -> frozenset[str] | None:
    """Keyword parameters ``fn`` accepts, or ``None`` when it takes **kwargs."""
    parameters = inspect.signature(fn).parameters.values()
    if any(parameter.kind is inspect.Parameter.VAR_KEYWORD for parameter in parameters):
        return None
    return frozenset(
        parameter.name
        for parameter in parameters
        if parameter.kind
        in (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
    )


def _signature_defaults(fn: ScenarioFn) -> dict[str, Any]:
    """The function's own parameter defaults (``seed`` excluded)."""
    return signature_defaults(fn, exclude=("seed",))


class ScenarioRegistry:
    """Mutable mapping of scenario names to :class:`ScenarioEntry`.

    Parameters
    ----------
    load_builtin:
        Whether unresolved names should trigger an import of the built-in
        scenario module.  The default registry uses ``True``; isolated
        registries in tests typically pass ``False``.
    """

    def __init__(self, load_builtin: bool = False) -> None:
        self._entries: dict[str, ScenarioEntry] = {}
        self._load_builtin = load_builtin
        self._builtin_loaded = False

    # ------------------------------------------------------------ registration

    def register(
        self,
        name: str | None = None,
        *,
        description: str = "",
        config_factory: Callable[[Mapping[str, Any]], Any] | None = None,
        **defaults: Any,
    ) -> Callable[[ScenarioFn], ScenarioFn]:
        """Decorator registering a scenario function.

        ``name`` defaults to the function's own name; ``description``
        defaults to the first line of its docstring.  ``config_factory``
        (params → ``SenderConfig``) lets the result cache key the
        scenario's points on the config fingerprint.  Extra keywords become
        default parameters merged under the spec's params at run time.
        """

        def decorate(fn: ScenarioFn) -> ScenarioFn:
            scenario_name = name or fn.__name__
            if scenario_name in self._entries:
                raise ConfigurationError(f"scenario {scenario_name!r} is already registered")
            doc = description or (inspect.getdoc(fn) or "").split("\n", 1)[0]
            self._entries[scenario_name] = ScenarioEntry(
                name=scenario_name,
                fn=fn,
                description=doc,
                defaults=dict(defaults),
                accepted_params=_accepted_params(fn),
                signature_defaults=_signature_defaults(fn),
                config_factory=config_factory,
            )
            return fn

        return decorate

    # -------------------------------------------------------------- resolution

    def _ensure_builtin(self) -> None:
        if self._load_builtin and not self._builtin_loaded:
            self._builtin_loaded = True
            importlib.import_module(_BUILTIN_MODULE)

    def get(self, name: str) -> ScenarioEntry:
        """Resolve ``name``, loading the built-in scenarios if needed."""
        if name not in self._entries:
            self._ensure_builtin()
        try:
            return self._entries[name]
        except KeyError:
            known = ", ".join(self.names()) or "<none>"
            raise ConfigurationError(
                f"unknown scenario {name!r}; registered scenarios: {known}"
            ) from None

    def names(self) -> list[str]:
        """Sorted names of every registered scenario."""
        self._ensure_builtin()
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        self._ensure_builtin()
        return name in self._entries

    def __iter__(self) -> Iterator[ScenarioEntry]:
        self._ensure_builtin()
        for name in self.names():
            yield self._entries[name]

    # --------------------------------------------------------------- execution

    def run_point(self, spec: ScenarioSpec) -> dict[str, Any]:
        """Execute one spec and return its summary-metric dict.

        The scenario function receives ``seed=spec.derived_seed`` — the
        worker-safe per-point seed — plus the entry defaults overridden by
        the spec's params.
        """
        entry = self.get(spec.scenario)
        entry.validate_params(spec.params)
        kwargs = dict(entry.defaults)
        kwargs.update(spec.params)
        metrics = entry.fn(seed=spec.derived_seed, **kwargs)
        if not isinstance(metrics, Mapping):
            raise ConfigurationError(
                f"scenario {spec.scenario!r} returned {type(metrics).__name__}, "
                "expected a mapping of summary metrics"
            )
        return dict(metrics)


#: The process-wide registry the CLI and parallel workers resolve against.
DEFAULT_REGISTRY = ScenarioRegistry(load_builtin=True)

#: Decorator registering a scenario on the default registry.
scenario = DEFAULT_REGISTRY.register
