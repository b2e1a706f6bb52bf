"""Exception types shared across the package."""

from __future__ import annotations


class ConetubeError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(ConetubeError, ValueError):
    """Malformed input: wrong dimension, wrong dtype, wrong length."""


class ConeDomainError(ConetubeError, ValueError):
    """A point that must lie in the open cone does not."""


class ConventionError(ConetubeError, ValueError):
    """A multi-index arrived in the wrong plain/shifted convention."""


class ConvergenceDomainError(ConetubeError, ValueError):
    """Parameters violate the convergence range of a closed form.

    ``violations`` lists every violated inequality by name.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("parameters outside convergence range: "
                         + "; ".join(self.violations))


class BranchCutError(ConetubeError, ArithmeticError):
    """A complex minor landed on the closed negative real axis.

    ``minor_index`` is the 1-based index of the first offending minor.
    """

    def __init__(self, minor_index, value=None):
        self.minor_index = int(minor_index)
        super().__init__(
            f"minor {self.minor_index} lies on the closed negative real axis"
            + (f" (value {value})" if value is not None else ""))


class AccuracyError(ConetubeError, RuntimeError):
    """Quadrature failed to reach the requested tolerance."""


class OracleRejectedError(ConetubeError, RuntimeError):
    """A Monte Carlo estimate was rejected (too many non-finite samples)."""

    def __init__(self, nonfinite_fraction, message=None):
        super().__init__(message or
                         f"estimate rejected: {100 * nonfinite_fraction:.3f}% "
                         "non-finite integrand samples (limit 0.1%)")


class InfeasibleError(ConetubeError, ValueError):
    """A constraint system admits no solution."""


class WitnessConstructionError(ConetubeError, RuntimeError):
    """Interval construction for a Schur witness came up empty.

    Carries the endpoints so the failure is reportable, not just fatal.
    """

    def __init__(self, message, endpoints=None):
        self.endpoints = endpoints
        super().__init__(message)


class ConfigError(ConetubeError, ValueError):
    """Invalid run configuration; names the offending field."""

    def __init__(self, field, message):
        super().__init__(f"config field '{field}': {message}")
