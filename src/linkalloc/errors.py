"""Exception types shared across the package, and the private way past a type's checks.

The CLI maps these onto exit codes: scenario/config problems exit with 1,
infeasibility and size guards with 2 (no module raises `SolverError`).
"""


class LinkAllocError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(LinkAllocError, ValueError):
    """Bad argument to a numeric operation (shape, range, NaN, ...)."""


class ValidationError(LinkAllocError):
    """A scenario or config document violates the schema or an invariant."""


class ConfigurationError(ValidationError):
    """A referenced resource (e.g. a PER table for an MCS) is missing."""


class InfeasibleError(LinkAllocError):
    """No feasible solution exists for the given instance."""


class SolverError(LinkAllocError):
    """A solver failed or returned something that violates its own contract."""


class SizeLimitError(LinkAllocError):
    """Problem too large for an enumeration-based routine's guard."""


def _trusted(cls, **given):
    """A frozen dataclass `cls` past its checks and copies, for arrays its caller built,
    checked and made read-only: its fields as `given`."""
    obj = object.__new__(cls)
    obj.__dict__.update(given)
    return obj
