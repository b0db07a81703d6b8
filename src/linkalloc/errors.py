"""Exception types shared across the package, and the private way past a type's checks.

The CLI maps these onto exit codes: scenario/config problems exit with 1,
solver and feasibility problems with 2.
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


_DEFAULTS = {}  # per class: its non-init fields' defaults, read on first use


def _trusted(cls, **given):
    """A frozen dataclass `cls` past its checks and copies, for arrays its caller built,
    checked and made read-only: its init fields as `given`, the others at their defaults."""
    if cls not in _DEFAULTS:
        from dataclasses import MISSING, fields     # here, as the module imports nothing
        defaults = {f.name: f.default for f in fields(cls) if not f.init}
        if MISSING in defaults.values():
            raise TypeError(f"{cls.__name__} has a non-init field with no plain default")
        _DEFAULTS[cls] = defaults
    obj = object.__new__(cls)
    obj.__dict__.update(_DEFAULTS[cls], **given)
    return obj
