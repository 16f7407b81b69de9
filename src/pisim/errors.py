"""Exception types shared across the package."""

from __future__ import annotations


class PathIdentityError(Exception):
    """Base class for all errors raised by pisim."""


class StructureError(PathIdentityError):
    """Operands are structurally incompatible (particle counts, outcome lengths)."""


class EmptyStateError(PathIdentityError):
    """A state construction produced no surviving amplitude."""


class NormalizationError(PathIdentityError):
    """An operation required a normalized state and did not get one."""


class ValidationError(PathIdentityError):
    """A density matrix violates Hermiticity, unit trace, or positivity."""


class ConfigError(PathIdentityError):
    """An interferometer configuration violates its invariants.  ``field`` names the
    offending value (``n``, ``m``, ``phi0``, ``phi.<j>``, ``theta.<l>``, ``transmission.<l>``)."""

    def __init__(self, message: str, *, field: str | None = None):
        super().__init__(message)
        self.field = field


class StageOrderError(PathIdentityError):
    """A transformation was applied to a particle in the wrong stage."""


class VisibilityUndefinedError(PathIdentityError):
    """The interference pattern has no well-defined visibility."""


class ScenarioParseError(PathIdentityError):
    """A scenario document failed to parse. Carries the offending key and line."""

    def __init__(self, message: str, *, key: str | None = None, line: int | None = None):
        parts = []
        if line is not None:
            parts.append(f"line {line}")
        if key is not None:
            parts.append(f"key '{key}'")
        prefix = ", ".join(parts)
        super().__init__(f"{prefix}: {message}" if prefix else message)
        self.key = key
        self.line = line
