"""Log-gamma and modified Bessel functions used by every closed form.

Real ln K0 and complex log-gamma are delegated to scipy (full double
accuracy over the whole range; `ln_gamma` is `loggamma`'s principal
branch on the whole plane, with no continuation of its own); the real
log-gamma of a moment target needs no scipy and comes from
`math.lgamma` (`moments.log_moment`).
Each function that calls scipy.special imports it itself, so it loads at
the first evaluation, not with the package: a process that never
evaluates one (a single factor's closed form with its moment checks and
criteria, `--help`, a usage error) does not pay for it.  Complex K0 is the
Sommerfeld integral K0(z) = int_0^inf exp(-z cosh t) dt summed by a
vectorised, self-checking trapezoid rule below |z| = 30, and the
asymptotic series above.  No function of the package calls it: the
second family takes its complex-K0 ratio from SciPy's scaled Bessel
functions (`classes._ratio_v_over_k0`), and bessel_k0_complex stays a
public function that the tests and the benchmark hold against mpmath.
"""

import numpy as np

from .errors import ConvergenceError, DomainError, PoleError, _check_x

__all__ = [
    "ln_gamma",
    "log_bessel_k0",
    "bessel_k0_complex",
]

_K0_ASYMPTOTIC_CUTOFF = 30.0  # |z| from which the asymptotic series is used
_K0_LOG_DROP = 46.0  # Re z (cosh t_max - 1): the integrand is e^-46 at t_max
_K0_FIRST = 16  # intervals of the coarsest trapezoid grid
_K0_MAX_INTERVALS = 1 << 20  # per point; finer grids raise ConvergenceError
_K0_RTOL = 1e-13  # successive sums agreeing to this relative to |sum|...
_K0_ROUNDOFF = 16.0 * np.finfo(float).eps  # ...or to this relative to sum|terms|
_K0_BLOCK = 1 << 16  # points x nodes evaluated at once


def _as_complex(z):
    arr = np.asarray(z, dtype=np.complex128)
    if not np.all(np.isfinite(arr)):
        raise DomainError("non-finite argument")
    return arr


def ln_gamma(z):
    """Principal-branch analytic log-gamma: SciPy's `loggamma`.

    A 0-d z gives a scalar (a float for a real z, a complex otherwise),
    as a 0-d x does in `errors._at_x`, and an array z an array of its
    shape.  Nonpositive real integers raise
    PoleError.  Left of the imaginary axis this is SciPy's principal
    branch, which the contour machinery never reaches: every contour
    lies right of the symbol's rightmost pole, where each argument
    a_j(s-1) + b_j has a positive real part.
    """
    import scipy.special as sps

    arr = _as_complex(z)
    bad = (arr.imag == 0.0) & (arr.real <= 0.0) & (arr.real % 1.0 == 0.0)
    if np.any(bad):
        raise PoleError(f"log-gamma pole at z = {arr[bad][0]}")
    out = sps.loggamma(arr)
    if arr.ndim:
        return out
    return complex(out) if np.iscomplexobj(z) else float(out.real)


def log_bessel_k0(x):
    """ln K0(x) without underflow, via the scaled routine k0e."""
    import scipy.special as sps

    arr = _check_x(x)
    out = np.log(sps.k0e(arr)) - arr
    return float(out) if arr.ndim == 0 else out


def bessel_k0_complex(z):
    """K0(z) for Re z > 0 by principal-branch analytic continuation.

    Arrays are evaluated at once; each value is independent of the others
    in the array.  Raises ConvergenceError where the quadrature would need
    more than 2^20 nodes (Re z tiny against Im z).
    """
    arr = _as_complex(z)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr.real <= 0.0):
        raise DomainError("bessel_k0_complex requires Re z > 0")
    out = np.empty_like(arr)
    big = np.abs(arr) >= _K0_ASYMPTOTIC_CUTOFF
    out[big] = _k0_asymptotic(arr[big])
    out[~big] = _k0_sommerfeld(arr[~big])
    return complex(out[0]) if scalar else out


def _k0_asymptotic(z):
    """K0(z) ~ sqrt(pi/2z) e^{-z} sum_k t_k, t_k = -t_{k-1} (2k-1)^2/(8zk).

    Each point stops after the first term below 1e-17 of its running sum.
    """
    total = np.ones_like(z)
    term = np.ones_like(z)
    live = np.ones(z.shape, dtype=bool)
    for k in range(1, 40):
        if not live.any():
            break
        term = term * (-((2 * k - 1) ** 2) / (8.0 * z * k))
        small = np.abs(term) < 1e-17 * np.abs(total)
        total = np.where(live, total + term, total)
        live &= ~small
    return np.sqrt(np.pi / (2.0 * z)) * np.exp(-z) * total


def _k0_sommerfeld(z):
    """K0(z) = e^{-z} int_0^t_max exp(-2z sinh^2(t/2)) dt on nested grids.

    Writing z cosh t as z + 2z sinh^2(t/2) keeps the eps |z| roundoff of
    the phase out of every node.  The integrand is even and analytic, so
    the trapezoid rule converges exponentially: each point starts from 17
    nodes on [0, t_max], each refinement evaluates only the midpoints, and
    a point is done once two successive sums agree to _K0_RTOL of the sum
    or to _K0_ROUNDOFF of sum|terms| (where cancellation sets the floor).
    """
    with np.errstate(over="ignore"):
        t_max = 2.0 * np.arcsinh(np.sqrt(0.5 * _K0_LOG_DROP / z.real))
    if not np.all(np.isfinite(t_max)):
        raise ConvergenceError("complex K0 quadrature window is unbounded at "
                               f"z = {complex(z[~np.isfinite(t_max)][0])}")
    n = _K0_FIRST
    h = t_max / n
    total, mag = _sommerfeld_terms(z, t_max, np.arange(n + 1) / n)
    # half weight on g(0) = 1; g(t_max) < e^-46 needs no correction
    total = h * (total - 0.5)
    mag = h * (mag - 0.5)
    out = total.copy()
    active = np.arange(z.size)
    while active.size:
        if 2 * n > _K0_MAX_INTERVALS:
            raise ConvergenceError(
                f"complex K0 quadrature did not converge within "
                f"{_K0_MAX_INTERVALS} intervals at z = {complex(z[active[0]])}")
        n *= 2
        h = 0.5 * h
        mid, mid_mag = _sommerfeld_terms(z[active], t_max[active],
                                         np.arange(1, n, 2) / n)
        new = 0.5 * total + h * mid
        mag = 0.5 * mag + h * mid_mag
        diff = np.abs(new - total)
        done = (diff <= _K0_RTOL * np.abs(new)) | (diff <= _K0_ROUNDOFF * mag)
        out[active] = new
        keep = ~done
        active, total, mag, h = active[keep], new[keep], mag[keep], h[keep]
    return np.exp(-z) * out


def _sommerfeld_terms(z, t_max, u):
    """Sum over u of g = exp(-2z sinh^2(t_max u/2)) and of |g|, per point.

    Points and nodes are taken in blocks of at most _K0_BLOCK entries; the
    node blocks depend only on u, so no point's sum depends on its
    neighbours in z.
    """
    total = np.zeros(z.size, dtype=np.complex128)
    mag = np.zeros(z.size)
    rows = max(1, _K0_BLOCK // u.size)
    for i in range(0, z.size, rows):
        zi = -z[i:i + rows, None]
        half = 0.5 * t_max[i:i + rows, None]
        for j in range(0, u.size, _K0_BLOCK):
            g = np.exp(2.0 * np.sinh(half * u[j:j + _K0_BLOCK]) ** 2 * zi)
            total[i:i + rows] += g.sum(axis=1)
            mag[i:i + rows] += np.abs(g).sum(axis=1)
    return total, mag
