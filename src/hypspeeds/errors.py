"""Exception types shared across the package, and its integer-argument test."""

import numbers


def _positive_int(value) -> bool:
    """True for an integer >= 1; false for a fraction, a NaN or a bool."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral) and value >= 1


class HypspeedsError(Exception):
    """Base class for every error raised by this package."""


class DomainError(HypspeedsError, ValueError):
    """A point lies outside the domain of validity of an operation."""


class ConstructionError(HypspeedsError, ValueError):
    """Invalid parameters for a geometric construction."""


class UnsupportedDomainError(HypspeedsError, ValueError):
    """The requested operation is not available for this domain kind."""


class NumericError(HypspeedsError, RuntimeError):
    """An iterative numeric procedure failed to converge or self-check."""


class ParameterError(HypspeedsError, ValueError):
    """A tuning parameter is incompatible with the problem geometry."""


class ConfigError(HypspeedsError, ValueError):
    """Malformed or inconsistent experiment configuration."""
