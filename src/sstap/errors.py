"""Semantic exceptions raised across the package.

Every failure mode that callers are expected to branch on gets its own
class under :class:`SstapError`. Plain ``ValueError`` is reserved for
contract violations (bad argument shapes, malformed inputs) that indicate
a programming error rather than a property of the problem instance.
"""

from __future__ import annotations

__all__ = [
    "SstapError",
    "DomainError",
    "MissingEntry",
    "OrderViolation",
    "TooLarge",
    "Infeasible",
    "NotMonotone",
    "BadEpsilon",
    "IncomparableLevels",
    "BadSpec",
    "ConfigError",
]


class SstapError(Exception):
    """Base class for all domain-level errors."""


class DomainError(SstapError):
    """A threshold function was evaluated outside its declared domain."""


class MissingEntry(SstapError):
    """A tabulated function has no entry for the requested pair."""


class OrderViolation(SstapError):
    """The policy was asked to run on a function that is not order-preserving."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class TooLarge(SstapError):
    """The exhaustive oracle was asked to enumerate an instance beyond its guard."""


class Infeasible(SstapError):
    """No job value in the domain clears the threshold for the given worker."""


class NotMonotone(SstapError):
    """Feasible extremes require a function with declared monotonicity in x."""


class BadEpsilon(SstapError):
    """A mixture center produced by the epsilon shift falls outside the open domain."""


class IncomparableLevels(SstapError):
    """Leveled and flat runs can only be compared for identical f and threshold."""


class BadSpec(SstapError):
    """A distribution specification is unusable in the requested role."""


class ConfigError(SstapError):
    """A run configuration failed validation."""
