"""Exception hierarchy shared across the toolkit.

Every error raised by this package derives from :class:`HdsfError` so the
CLI can map any internal failure to a single exit code.
"""

from __future__ import annotations


class HdsfError(Exception):
    """Base class for all package errors."""


class ConfigurationError(HdsfError):
    """Invalid model or run configuration (dimension mismatch, missing parameter)."""


class MissingParameterError(ConfigurationError, KeyError):
    """A configuration has no parameter of the looked-up name.  Also a
    KeyError, so ``except KeyError`` catches it as it would a dict's."""

    def __str__(self):
        return Exception.__str__(self)


class SimulationFault(HdsfError):
    """A state value became non-finite during simulation."""

    def __init__(self, time: float, signal: str, value: float):
        super().__init__(f"non-finite value {value!r} in signal '{signal}' at t={time:.6g}")
        self.time = time
        self.signal = signal
        self.value = value

    def __reduce__(self):
        # pickle and copy rebuild from the fields, not from the message alone
        return type(self), (self.time, self.signal, self.value)


class TrialFault(HdsfError):
    """A simulation fault with the offending configuration attached."""

    def __init__(self, cause: SimulationFault, config):
        super().__init__(f"{cause} (config: {config})")
        self.cause = cause
        self.config = config

    def __reduce__(self):
        # pickle and copy rebuild from the fields, not from the message alone
        return type(self), (self.cause, self.config)


class ProjectionError(HdsfError):
    """A projection referenced a signal that is not available."""


class CondensationError(HdsfError):
    """The internal block of a partitioned system is singular or ill-conditioned."""


class SolveError(HdsfError):
    """A condensed interface system could not be solved reliably."""


class SpecificationError(HdsfError):
    """A property is malformed or references signals unknown to the system."""


class ReductionError(HdsfError):
    """The property-guided reduction cannot be applied as requested."""


class EvaluationError(HdsfError):
    """A trace cannot be evaluated (an empty trace, or a signal it lacks)."""


class SpaceError(HdsfError):
    """A configuration space is empty, inconsistent, or cyclic."""
