"""The string-keyed engine registry behind every ``backend=`` knob.

``BeliefState.from_prior`` and ``ExpectedUtilityPlanner.decide`` resolve
their engine by name here, and nowhere else compares backend strings:

* :data:`BELIEF_BACKENDS` — names → :class:`~repro.inference.belief.BeliefState`
  subclasses (the ensemble storage/execution engines);
* :data:`ROLLOUT_BACKENDS` — names → planner decide engines, each a callable
  ``engine(planner, belief, now) -> Decision`` implementing the (action ×
  hypothesis) fan-out.

There are two engines per registry: ``"scalar"``, the per-object reference
oracle, and one NumPy array engine that answers to two accepted spellings,
``"vectorized"`` and ``"fused"`` (one target registered under both names).
The spelling is still part of a point's identity — it feeds
``SenderConfig.fingerprint()``, hence derived seeds and cache keys — so
both stay valid.  Naming the array belief names its class, not a promise
that every update runs in NumPy: an array belief left with one row that
cannot fork runs the reference kernel on it from then on (see
:mod:`repro.inference.vectorized.belief`), with ``state`` reading ``None``.

Engines *self-register*: ``repro.inference.belief`` registers ``"scalar"``
at import, ``repro.inference.vectorized.belief`` registers the array
belief, and likewise for the rollout engines in ``repro.core.planner`` and
``repro.inference.vectorized.rollout``.  The registry holds only lazy
*import triggers* for the built-in names, so resolving ``"vectorized"``
imports the NumPy engine on first use without this module depending on it.

Unknown names raise :class:`~repro.errors.UnknownBackendError` — eagerly at
:class:`~repro.api.config.SenderConfig` construction time via
:meth:`BackendRegistry.validate`, and again (with the same message) if a
stale name somehow reaches :meth:`BackendRegistry.resolve`.

This module deliberately imports nothing beyond :mod:`repro.errors`, so any
engine module can import it without cycles.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Mapping, Optional

from repro.errors import ConfigurationError, UnknownBackendError


class BackendRegistry:
    """A string-keyed map of engine names to engine objects.

    Parameters
    ----------
    kind:
        Human-readable registry label used in error messages
        (``"belief"``, ``"rollout"``).
    builtin_modules:
        ``name -> module path`` import triggers: resolving a name that has
        not self-registered yet imports the module (whose import is expected
        to perform the registration).  This keeps built-in engines lazy —
        the registry never imports an engine the process does not use —
        while :meth:`validate` can still vet names without importing.
    """

    def __init__(
        self, kind: str, builtin_modules: Optional[Mapping[str, str]] = None
    ) -> None:
        self.kind = kind
        self._entries: dict[str, Any] = {}
        self._builtin_modules = dict(builtin_modules or {})

    # ------------------------------------------------------------ registration

    def register(self, name: str, target: Any = None):
        """Register ``target`` under ``name`` (usable as a decorator).

        Re-registering the same object is a no-op (modules may be imported
        through several trigger paths); registering a *different* object
        under a taken name is an error.
        """
        if target is None:

            def decorate(obj: Any) -> Any:
                self.register(name, obj)
                return obj

            return decorate
        existing = self._entries.get(name)
        if existing is not None and existing is not target:
            raise ConfigurationError(
                f"{self.kind} backend {name!r} is already registered "
                f"(to {existing!r})"
            )
        self._entries[name] = target
        return target

    # -------------------------------------------------------------- resolution

    def names(self) -> list[str]:
        """Every known backend name — registered or built-in — sorted."""
        return sorted(set(self._entries) | set(self._builtin_modules))

    def __contains__(self, name: str) -> bool:
        return name in self._entries or name in self._builtin_modules

    def validate(self, name: str) -> str:
        """Vet ``name`` without importing anything; return it unchanged.

        This is the config-time check: an unknown backend string fails here,
        at :class:`~repro.api.config.SenderConfig` construction, instead of
        deep inside belief or planner construction.
        """
        if name not in self:
            raise UnknownBackendError(
                f"unknown {self.kind} backend {name!r}; "
                f"registered backends: {', '.join(self.names()) or '<none>'}"
            )
        return name

    def resolve(self, name: str) -> Any:
        """Return the engine registered under ``name``, importing it if lazy."""
        if name not in self._entries:
            module = self._builtin_modules.get(name)
            if module is not None:
                try:
                    importlib.import_module(module)
                except ImportError as error:
                    # A backend whose dependencies are missing (e.g. NumPy
                    # for the array engine) surfaces as a repro error, not
                    # a raw ImportError.
                    raise UnknownBackendError(
                        f"{self.kind} backend {name!r} could not be loaded "
                        f"({error}); is its dependency installed?"
                    ) from error
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownBackendError(
                f"unknown {self.kind} backend {name!r}; "
                f"registered backends: {', '.join(self.names()) or '<none>'}"
            ) from None


#: Belief-state engines: name → BeliefState subclass.  ``"scalar"`` is the
#: per-object reference implementation; ``"vectorized"`` and ``"fused"``
#: both name the NumPy struct-of-arrays ensemble.
BELIEF_BACKENDS = BackendRegistry(
    "belief",
    builtin_modules={
        "scalar": "repro.inference.belief",
        "vectorized": "repro.inference.vectorized.belief",
        "fused": "repro.inference.vectorized.belief",
    },
)

#: Planner rollout engines: name → ``engine(planner, belief, now) -> Decision``.
#: ``"scalar"`` event-steps one model clone per lane; ``"vectorized"`` and
#: ``"fused"`` both name the array engine that advances every (action ×
#: hypothesis) lane through one masked event frontier.
ROLLOUT_BACKENDS = BackendRegistry(
    "rollout",
    builtin_modules={
        "scalar": "repro.core.planner",
        "vectorized": "repro.inference.vectorized.rollout",
        "fused": "repro.inference.vectorized.rollout",
    },
)
