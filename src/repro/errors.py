"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError` so
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """The discrete-event engine reached an inconsistent state."""


class ConfigError(ReproError):
    """An invalid machine, cost-model or scheme configuration was given."""


class SchedulingError(SimulationError):
    """An event was scheduled in the past or on a stopped engine."""


class DeliveryError(SimulationError):
    """An item or message could not be routed to its destination."""


class QuiescenceError(SimulationError):
    """Quiescence accounting went negative or never completed."""


class FaultInjectionError(ConfigError):
    """A fault plan, window schedule or ``--faults`` spec was invalid.

    Raised when constructing a :class:`repro.faults.FaultPlan` (negative
    probabilities, inverted windows, unknown fault kinds) or when parsing
    a declarative fault spec string.
    """


class FlowControlError(ConfigError):
    """A flow-control configuration or ``--flow`` spec was invalid.

    Raised when constructing a :class:`repro.flow.FlowConfig` (non-positive
    credit caps, inverted overload thresholds) or when parsing a
    declarative flow spec string.
    """


class HarnessError(ReproError):
    """An experiment or sweep was misconfigured or failed to run."""
