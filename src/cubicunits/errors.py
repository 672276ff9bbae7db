"""Shared exception types.

Kept in one place so callers can catch coarse categories without importing
every module.
"""

__all__ = ["CubicUnitsError", "InvalidParamsError", "InternalInconsistencyError", "DomainError",
           "DependentUnitsError", "OutOfRegimeError", "PrecisionExhaustedError", "OrbitCapError"]


class CubicUnitsError(Exception):
    """Base class for everything raised on purpose by this package."""


class InvalidParamsError(CubicUnitsError, ValueError):
    """Constructor/operation parameters violate a stated precondition."""


class InternalInconsistencyError(CubicUnitsError, RuntimeError):
    """A defensive postcondition failed: indicates a bug, not bad input."""


class DomainError(CubicUnitsError, ValueError):
    """Input outside the mathematical domain of the operation
    (reducible polynomial where irreducible is required, etc.)."""


class DependentUnitsError(CubicUnitsError, ValueError):
    """Two log vectors are numerically dependent where independence is required."""


class OutOfRegimeError(CubicUnitsError, ValueError):
    """Inputs outside the regime where the certification logic is sound."""


class PrecisionExhaustedError(CubicUnitsError, RuntimeError):
    """Escalation hit the precision cap without reaching the requested accuracy."""


class OrbitCapError(CubicUnitsError, OverflowError):
    """Exact orbit iteration exceeded the configured bit-size cap."""
