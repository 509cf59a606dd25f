"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch library failures without also catching unrelated Python
errors.  Sub-classes exist for the major subsystems (simulation wiring,
simulation execution, inference, experiment configuration) so tests and
applications can assert on the precise failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the ``repro`` library."""


class WiringError(ReproError):
    """An element graph is mis-wired (missing downstream, double attach, ...)."""


class SimulationError(ReproError):
    """The discrete-event engine was used incorrectly or reached a bad state."""


class SchedulingError(SimulationError):
    """An event was scheduled in the past or with an invalid delay."""


class InferenceError(ReproError):
    """The belief state or a hypothesis was used incorrectly."""


class ConfigurationError(ReproError):
    """An experiment, prior, or utility function received invalid parameters."""


class UnknownBackendError(ConfigurationError, InferenceError):
    """A ``belief_backend`` / ``rollout_backend`` is not an accepted name.

    Raised at :class:`~repro.api.config.SenderConfig` construction, and by
    ``BeliefState.for_backend`` and ``ExpectedUtilityPlanner`` for callers
    that skip the config; the message names the knob, the rejected name and
    the accepted ones.  It is both a :class:`ConfigurationError` (what a
    planner raises for its other arguments) and an :class:`InferenceError`
    (what a belief does), so a caller guarding either catches it.
    """


class UtilityError(ConfigurationError):
    """A utility function received invalid parameters.

    A :class:`ConfigurationError`, so the runner CLI reports it as a clean
    ``error:`` with exit status 2, as it does every other bad parameter.
    """


class ServingError(ReproError):
    """Base class for failures in the online policy-serving layer."""


class TableIntegrityError(ServingError):
    """A stored policy-table artifact failed load-time validation.

    Raised by the serving registry when a table file's content digest,
    schema version, or config fingerprint does not match what its name and
    the request promise.  The registry catches it, quarantines the file
    (same convention as :class:`~repro.runner.cache.ResultCache`), and
    treats the lookup as a miss — a corrupt artifact is never served.
    """


class CircuitOpenError(ServingError):
    """The live-planner fallback is short-circuited by an open breaker.

    Raised internally by :class:`~repro.serving.breaker.CircuitBreaker`
    guards when consecutive planner failures have tripped the circuit; the
    serving fallback chain catches it and degrades to the safe-default
    tier instead of queueing more work behind a wedged planner.
    """


class PointFailureError(ReproError):
    """A sweep point's failure ended the sweep.

    Raised by the runner's executor when a grid point keeps failing past
    ``Supervision.max_retries`` and the sweep was asked to fail fast
    (``strict``) rather than quarantine the point and degrade to partial
    results — and, under the plain policy, when a failed point left no
    exception object of its own to re-raise (its worker died, or its
    exception does not pickle).  Carries the failing spec and the final
    failure description.
    """

    def __init__(self, spec: object, attempts: int, reason: str) -> None:
        super().__init__(
            f"point {getattr(spec, 'label', spec)!s} failed {attempts} attempt(s): {reason}"
        )
        self.spec = spec
        self.attempts = attempts
        self.reason = reason
