"""Exception hierarchy shared by all modules, and the argument checks
every entry of the package runs where an argument enters it: x in
(0, inf), a finite ln x, and an integer at or above its least value."""

import numpy as np


class GammomentsError(Exception):
    """Base class for all package errors."""


class DomainError(GammomentsError):
    """Argument outside the mathematical domain of the operation: an x
    outside (0, inf) or a non-finite ln x, for example."""


class PoleError(GammomentsError):
    """A gamma factor was evaluated at a nonpositive integer."""


class ConstraintError(GammomentsError):
    """A structural inequality (a > 2|k| for the factor Gamma(an + b) that
    omega rotates, |eps| < 1, an integer r >= 1, ...) is violated."""


class TruncationError(GammomentsError):
    """Contour truncation left a non-negligible tail, or cancellation
    destroyed all significant digits of a contour sum."""


class ConvergenceError(GammomentsError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class SearchError(GammomentsError):
    """A parameter search failed (e.g. the positivity ratio looks unbounded)."""


class UndecidedError(GammomentsError):
    """A convergence classification sits in the dead zone with no stable limit."""


class InconclusiveError(GammomentsError):
    """No window certifying the required convexity could be found."""


class RefusesError(GammomentsError):
    """Criteria were requested for a density that does not solve the sequence."""


class ConsistencyError(GammomentsError):
    """Two criteria produced verdicts that cannot hold simultaneously."""


def _check_x(x):
    """x as a float64 array of its shape; DomainError unless 0 < x < inf."""
    arr = np.asarray(x, dtype=np.float64)
    bad = ~((arr > 0.0) & (arr < np.inf))
    if np.any(bad):
        raise DomainError(
            f"x must satisfy 0 < x < inf, got {float(arr[bad].flat[0])}")
    return arr


def _check_log_x(log_x):
    """ln x as a float64 array of its shape; DomainError unless finite."""
    arr = np.asarray(log_x, dtype=np.float64)
    bad = ~np.isfinite(arr)
    if np.any(bad):
        raise DomainError(
            f"ln x must be finite, got {float(arr[bad].flat[0])}")
    return arr


def _check_int(value, name, minimum):
    """ConstraintError unless value is an integer >= minimum."""
    if not isinstance(value, (int, np.integer)) or value < minimum:
        raise ConstraintError(
            f"{name} must be an integer >= {minimum}, got {value!r}")
