"""Log-gamma, digamma, Hurwitz zeta and K0 on NumPy: the package's one
special-function source.

Every function the package evaluates beyond the standard library lives
here, so no process of the package imports SciPy (whose import costs a
process about 0.2 s and 23 MB); SciPy and mpmath are test oracles.  The
real log-gamma of a moment target is `math.lgamma`
(`moments.log_moment`).

* `ln_gamma` is the principal branch of log Gamma on the whole plane on
  the plan of Hare's algorithm (J. Algorithms 25, 1997) that SciPy's
  `loggamma` runs: Stirling's series with its 8 coefficients where
  Re z > 7 or |Im z| > 7, and Hare's reflection left of Re z = 0.1.  In
  between, where ln Gamma is as small as 0 and Hare's difference of
  Stirling's value at Re z > 7 and the log of the shift's product loses
  up to 17 eps, whole steps take z to a Taylor series at 2 + 2ki,
  k = 0..3.
* `digamma` takes a real argument to [x0 - 1/2, x0 + 1/2] around the
  positive zero x0 of psi (reflection, then the recurrence) and sums the
  Taylor series there, or the asymptotic series from x = 10; a complex one
  steps up to |z| >= 10 for the asymptotic series, with the same
  reflection and zero series.
* `hurwitz_zeta` (integer s >= 2, real q) is Euler-Maclaurin summation
  as in Cephes for every q, its tail scaled by q^(1-s) so that it does
  not underflow, and `polygamma` reads psi^(m) off it.
* `bessel_k0e` is e^z K0(z) for real and complex z, Re z > 0: the
  ascending series below |z| = 0.1 (DLMF 10.31.2), the Sommerfeld
  integral K0(z) = int_0^inf exp(-z cosh t) dt summed by a vectorised,
  self-checking trapezoid rule (DLMF 10.32.9) up to |z| = 30, and the
  asymptotic series above (DLMF 10.40.2).  `bessel_k0_complex` and
  `log_bessel_k0` are its unscaled and real-log forms.

Every function is elementwise: a value does not depend on the other
points of its array, which the saddle search and the contour engine
rely on.  So each series is evaluated one way whatever the array: one
Horner's rule (`_poly`), with one coefficient row for all points or one
per point; one shift sum (`_shift_sum`), from each point's own last term
down; one zeta path.  Complex products are taken out of place: NumPy's
SIMD loops round an in-place complex multiply of a one-element array
differently from the same elements in a longer one.
"""

import functools
import math

import numpy as np

from .errors import ConvergenceError, DomainError, PoleError, _check_x

__all__ = [
    "ln_gamma",
    "digamma",
    "hurwitz_zeta",
    "polygamma",
    "log_bessel_k0",
    "bessel_k0e",
    "bessel_k0_complex",
]

_EPS = np.finfo(float).eps
_LOG_PI = 1.1447298858494002
_HALF_LOG_2PI = 0.9189385332046728
_EULER = 0.5772156649015329

_LG_SMALL = 7.0  # Stirling where Re z > 7 or |Im z| > 7
# Taylor centres c = 2 + 2ki with (ln Gamma(c), psi(c)) and the number of
# terms: at |z - c| <= 1.12 they fall as (1.12 / |c|)^k, from 0.56^k to
# 0.18^k
_LG_CENTRES = {2.0: ((0.0, 0.42278433509846713), 64),
               2.0 + 2.0j: ((-1.0713598302138791 + 1.236795034103879j,
                             0.9145915153739775 + 0.9208072826422302j), 44),
               2.0 + 4.0j: ((-3.2544929213807796 + 3.6355157202405675j,
                             1.450359817333411 + 1.2105022091860445j), 30),
               2.0 + 6.0j: ((-5.804500736628567 + 6.927700774894994j,
                             1.8211078287814697 + 1.3253008312994012j), 24)}
# B_2k / (2k (2k - 1)), k = 1..8: Stirling's series in 1/z
_LG_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188,
                -691 / 360360, 1 / 156, -3617 / 122400)

# psi's positive zero x0 (as a double) and psi(x0)
_PSI_ROOT = 1.4616321449683622
_PSI_ROOT_VALUE = -9.241265521729427e-17
_PSI_ROOT_TERMS = 40  # Taylor terms at x0; (1/2 / x0)^40 < 1e-18
_PSI_ASYMPTOTIC_FROM = 10.0  # |z| from which psi takes the series
# B_2k / 2k, k = 1..10: psi(z) ~ ln z - 1/2z - sum_k B_2k / (2k z^2k)
_PSI_ASYMPTOTIC = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132,
                   -691 / 32760, 1 / 12, -3617 / 8160, 43867 / 14364,
                   -174611 / 6600)

# (2k)! / B_2k, k = 1..12: the Euler-Maclaurin tail of the Hurwitz zeta
_ZETA_EM = (12.0, -720.0, 30240.0, -1209600.0, 47900160.0,
            -1892437580.3183792, 74724249600.0, -2950130727918.164,
            116467828143500.67, -4597978722407473.0, 1.8152105401943546e+17,
            -7.166165256175667e+18)

_K0_SERIES_CUTOFF = 0.1  # |z| below which the ascending series is used
_K0_SERIES_TERMS = 8  # (|z|^2 / 4)^8 / (8!)^2 < 1e-30 below the cutoff
_K0_ASYMPTOTIC_CUTOFF = 30.0  # |z| from which the asymptotic series is used
_K0_LOG_DROP = 46.0  # Re z (cosh t_max - 1): the integrand is e^-46 at t_max
_K0_FIRST = 16  # intervals of the coarsest trapezoid grid
_K0_MAX_INTERVALS = 1 << 20  # per point; finer grids raise ConvergenceError
_K0_RTOL = 1e-13  # successive sums agreeing to this relative to |sum|...
_K0_ROUNDOFF = 16.0 * _EPS  # ...or to this relative to sum|terms|
_K0_BLOCK = 1 << 12  # points x nodes evaluated at once...
_K0_NODES = 1 << 16  # ...in node blocks of at most this many
_K0_CHUNK = 1024  # points per quadrature call


def _as_complex(z):
    arr = np.asarray(z, dtype=np.complex128)
    if not np.all(np.isfinite(arr)):
        raise DomainError("non-finite argument")
    return arr


def _poly(coeffs, w):
    """sum_k coeffs[..., k] w^k, elementwise, by Horner's rule: coeffs is
    one row for every point or one row per point.  The products are out of
    place, so a point's value does not depend on the array's size."""
    coeffs = np.asarray(coeffs)
    out = coeffs[..., -1]
    for k in range(coeffs.shape[-1] - 2, -1, -1):
        out = out * w + coeffs[..., k]
    return out


def _shift_sum(f, n):
    """sum_{k < n} f(k) per element, for a float array n of counts >= 0,
    added one k at a time from the largest k down; f maps a k to an array
    over the points."""
    out = 0.0
    for k in range(int(n.max(initial=0.0)) - 1, -1, -1):
        out = out + np.where(k < n, f(k), 0.0)
    return out


def _sinpi(x):
    """sin(pi x) for real x, exact at the integers and half-integers."""
    r = np.fmod(np.abs(x), 2.0)
    s = np.sin(np.pi * np.where(r < 0.5, r, np.where(r > 1.5, r - 2.0,
                                                     1.0 - r)))
    return np.copysign(1.0, x) * s


def _cospi(x):
    """cos(pi x) for real x, exact at the integers and half-integers."""
    r = np.fmod(np.abs(x), 2.0)
    out = np.where(r < 1.0, -np.sin(np.pi * (r - 0.5)),
                   np.sin(np.pi * (r - 1.5)))
    return np.where(r == 0.5, 0.0, out)


def _sin_cos_pi(z):
    """(sin pi z, cos pi z) for complex z with |Im z| < 700 / pi."""
    x, piy = z.real, np.pi * z.imag
    sx, cx = _sinpi(x), _cospi(x)
    ch, sh = np.cosh(piy), np.sinh(piy)
    return _complex(sx * ch, cx * sh), _complex(cx * ch, -(sx * sh))


def _complex(re, im):
    """re + i im keeping the sign of a zero im (1j * -0.0 is +0.0j), on
    which the branch of a log on the negative axis depends."""
    out = np.empty(np.shape(re), dtype=np.complex128)
    out.real, out.imag = re, im
    return out


# -- ln Gamma ---------------------------------------------------------------

def ln_gamma(z):
    """Principal-branch analytic log-gamma.

    A 0-d z gives a scalar (a float for a real z, a complex otherwise),
    as a 0-d x does in `errors._at_x`, and an array z an array of its
    shape.  Nonpositive real integers raise PoleError.  The branch is
    mpmath's and SciPy's: continuous off the negative real axis, with
    ln Gamma(z + 1) = ln Gamma(z) + ln z.  Past the double range
    (|z| ln |z| > 1.8e308) the real part is inf.
    """
    arr = _as_complex(z)
    bad = (arr.imag == 0.0) & (arr.real <= 0.0) & (arr.real % 1.0 == 0.0)
    if np.any(bad):
        raise PoleError(f"log-gamma pole at z = {arr[bad][0]}")
    flat = arr.ravel()
    with np.errstate(over="ignore", invalid="ignore"):  # past the doubles
        out = _ln_gamma(flat).reshape(arr.shape)
    if arr.ndim:
        return out
    return complex(out) if np.iscomplexobj(z) else float(out.real)


def _ln_gamma(z):
    """ln Gamma on a flat complex array free of poles."""
    stirling = (z.real > _LG_SMALL) | (np.abs(z.imag) > _LG_SMALL)
    if stirling.all():
        return _lg_stirling(z)
    out = np.empty_like(z)
    left = ~stirling & (z.real < 0.1)
    strip = ~stirling & ~left
    out[stirling] = _lg_stirling(z[stirling])
    out[strip] = _lg_taylor(z[strip])
    if np.any(left):
        # Hare's reflection: ln Gamma(z) = ln pi - ln sin(pi z)
        # - ln Gamma(1 - z) + 2 pi i floor(Re z / 2 + 1/4) sign(Im z);
        # Re(1 - z) > 0.9, so the recursion stops after one step
        zl = z[left]
        turns = np.copysign(2.0 * np.pi, zl.imag) * np.floor(0.5 * zl.real
                                                              + 0.25)
        out[left] = (_LOG_PI + 1j * turns - np.log(_sin_cos_pi(zl)[0])
                     - _ln_gamma(1.0 - zl))
    return out


def _lg_stirling(z):
    """Stirling's series with 8 terms, for Re z > 7 or |Im z| > 7.

    (z - 1/2) ln z - z is written (z - 1/2)(ln z - 1) - 1/2: near |z| = 7
    the product is half the size, and so is its rounding.
    """
    rz = 1.0 / z
    return ((z - 0.5) * (np.log(z) - 1.0) + (_HALF_LOG_2PI - 0.5)
            + rz * _poly(_LG_STIRLING, rz * rz))


@functools.cache
def _lg_taylor_table():
    """Taylor coefficients of ln Gamma at each centre, one row each:
    ln Gamma(c), psi(c), then (-1)^k zeta(k, c) / k for k = 2, 3, ...;
    shorter rows are padded with zeros."""
    width = max(terms for _, terms in _LG_CENTRES.values()) + 1
    table = np.zeros((len(_LG_CENTRES), width), dtype=np.complex128)
    for row, (centre, ((value, slope), terms)) in zip(table,
                                                      _LG_CENTRES.items()):
        k = np.arange(2.0, terms + 1.0)
        row[:2] = value, slope
        row[2:terms + 1] = (-1.0) ** k * _zeta_sum(
            k, np.full(k.shape, centre)) / k
    return table


def _lg_taylor(z):
    """ln Gamma for 0.1 <= Re z <= 7, |Im z| <= 7 by the Taylor series at
    the nearest centre 2 + 2ki (a lower-half z by conjugation), without
    the cancellation of Hare's recurrence: there ln Gamma is as small as
    0 while Stirling's value at Re z > 7 and the log of the shift's
    product are near 7, which cost up to 17 eps.

    z moves by m whole steps to z' with Re z' in [1.5, 2.5), within 1.12
    of its centre; ln Gamma(z) = ln Gamma(z') + sum_{j<m} ln(z' + j), or
    - sum_{j<-m} ln(z + j) for m < 0: all with Re > 0, all small beside
    the result.
    """
    lower = np.signbit(z.imag)
    z = np.where(lower, np.conj(z), z)
    m = np.floor(z.real - 1.5)
    zs = z - m
    base = np.where(m > 0, zs, z)
    row = np.minimum(np.rint(0.5 * z.imag), len(_LG_CENTRES) - 1).astype(int)
    out = (np.sign(m) * _shift_sum(lambda j: np.log(base + j), np.abs(m))
           + _poly(_lg_taylor_table()[row],
                   zs - np.array(list(_LG_CENTRES))[row]))
    return np.where(lower, np.conj(out), out)


# -- digamma, Hurwitz zeta, polygamma -------------------------------------

def digamma(z):
    """psi(z) = Gamma'(z) / Gamma(z), real for a real z, complex otherwise.

    A 0-d z gives a scalar.  Non-finite arguments raise DomainError; psi is
    nan at the poles z = 0, -1, -2, ....
    """
    if np.iscomplexobj(z):
        arr = _as_complex(z)
        kernel = _digamma_complex
    else:
        arr = np.asarray(z, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise DomainError("non-finite argument")
        kernel = _digamma_real
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = kernel(arr.ravel()).reshape(arr.shape)
    if arr.ndim:
        return out
    return complex(out) if np.iscomplexobj(out) else float(out)


def _digamma_real(x):
    """psi on a flat float array, by reduction to the zero's window."""
    pole = (x <= 0.0) & (x == np.floor(x))
    res = np.zeros_like(x)
    neg = x < 0.0
    if neg.any():
        # psi(x) = psi(1 - x) - pi cot(pi x), with the integer part of x
        # taken off first (tan has no zero on the reduced interval)
        xn = x[neg]
        res[neg] = -np.pi / np.tan(np.pi * (xn - np.trunc(xn)))
        x = np.where(neg, 1.0 - x, x)
    lo = _PSI_ROOT - 0.5
    small = x < lo
    if small.any():
        res = np.where(small, res - 1.0 / x, res)
        x = np.where(small, x + 1.0, x)
    big = x >= _PSI_ASYMPTOTIC_FROM
    # psi(x) = psi(x - m) + sum_{j=1..m} 1/(x - j): x - m lands in
    # [x0 - 1/2, x0 + 1/2), and every term is positive
    m = np.where(big, 0.0, np.floor(x - lo))
    res = res + _shift_sum(lambda k: 1.0 / (x - 1.0 - k), m)
    body = np.empty_like(x)
    body[big] = _psi_asymptotic(x[big])
    body[~big] = _psi_root_series(x[~big] - m[~big])
    out = res + body
    return np.where(pole, np.nan, out) if pole.any() else out


def _digamma_complex(z):
    """psi on a flat complex array: reflection, recurrence, series."""
    pole = (z.imag == 0.0) & (z.real <= 0.0) & (z.real == np.floor(z.real))
    z = np.where(pole, 1.0, z)
    res = np.zeros_like(z)
    left = (z.real < 0.0) & (np.abs(z.imag) < _PSI_ASYMPTOTIC_FROM)
    if left.any():
        sin, cos = _sin_cos_pi(z[left])
        res[left] = -np.pi * cos / sin
        z = np.where(left, 1.0 - z, z)
    small = np.abs(z) < 0.5
    if small.any():
        res = np.where(small, res - 1.0 / z, res)
        z = np.where(small, z + 1.0, z)
    root = np.abs(z - _PSI_ROOT) < 0.5
    # psi(z) = psi(z + n) - sum_{k<n} 1/(z + k), |z + n| > 7 (Re z >= 0)
    n = np.where(root, 0.0, np.maximum(
        np.trunc(_PSI_ASYMPTOTIC_FROM - np.abs(z)) + 1.0, 0.0))
    body = np.empty_like(z)
    body[root] = _psi_root_series(z[root])
    body[~root] = _psi_asymptotic(z[~root] + n[~root])
    body = body - _shift_sum(lambda k: 1.0 / (z + k), n)
    out = res + body
    return np.where(pole, np.nan, out) if pole.any() else out


def _psi_asymptotic(z):
    """ln z - 1/2z - sum_{k=1..10} B_2k / (2k z^2k), for |z| >= 10."""
    rzz = 1.0 / (z * z)
    return np.log(z) - 0.5 / z - rzz * _poly(_PSI_ASYMPTOTIC, rzz)


@functools.cache
def _psi_root_coefficients():
    """Taylor coefficients of psi at x0: psi(x0), then psi^(n)(x0) / n! =
    (-1)^(n+1) zeta(n + 1, x0) for n = 1.._PSI_ROOT_TERMS."""
    n = np.arange(1, _PSI_ROOT_TERMS + 1)
    return ((_PSI_ROOT_VALUE,)
            + tuple((-1.0) ** (n + 1) * hurwitz_zeta(n + 1, _PSI_ROOT)))


def _psi_root_series(z):
    """psi(z) for |z - x0| <= 1/2 by its Taylor series at the zero x0."""
    return _poly(_psi_root_coefficients(), z - _PSI_ROOT)


def hurwitz_zeta(s, q):
    """zeta(s, q) = sum_{k>=0} (q + k)^-s for integer s >= 2 and real q.

    Arrays broadcast; a 0-d result is a float.  q may be negative; zeta
    is inf at q = 0, -1, -2, ....  The terms k < n are summed directly,
    n >= 9 and q + n > 9 as in Cephes' zeta, and the rest by
    Euler-Maclaurin with 12 Bernoulli terms.
    """
    s, q = np.broadcast_arrays(np.asarray(s, dtype=np.float64),
                               np.asarray(q, dtype=np.float64))
    if np.any(s < 2.0) or np.any(s != np.floor(s)):
        raise DomainError("hurwitz_zeta needs an integer s >= 2")
    if not np.all(np.isfinite(q)):
        raise DomainError("non-finite argument")
    shape, s, q = s.shape, s.ravel(), q.ravel()
    out = np.full(s.shape, np.inf)
    near = (q > 0.0) | (q != np.floor(q))
    with np.errstate(over="ignore", under="ignore"):
        out[near] = _zeta_sum(s[near], q[near])
    return out.reshape(shape) if shape else float(out[0])


def _zeta_sum(s, q):
    """Direct terms up to q + n > 9, then the Euler-Maclaurin tail at
    w = q + n: w^(1-s) (1/(s-1) + (1/2 + sum_j B_2j/(2j)! (s)_(2j-1)
    w^(2-2j)) / w), elementwise over integer s and q (complex q with
    Re q > 0 too).  Its factor w^(1-s) is zeta's own size, so the tail
    does not underflow where zeta is a double."""
    # (s)_(2j-1) / A_j, j = 1..12: the tail's coefficients in w^-2
    rising = np.cumprod(s[:, None] + np.arange(2 * len(_ZETA_EM) - 1), axis=1)
    n = np.maximum(np.floor(9.0 - np.real(q)) + 1.0, 9.0)
    w = q + n
    series = _poly(rising[:, ::2] / np.array(_ZETA_EM), 1.0 / (w * w))
    tail = w ** (1.0 - s) * (1.0 / (s - 1.0) + (0.5 + series / w) / w)
    return _shift_sum(lambda k: (q + k) ** -s, n) + tail


def polygamma(m, x):
    """psi^(m)(x) for integer m >= 0 and real x; arrays broadcast.

    m = 0 is `digamma`; m >= 1 is (-1)^(m+1) m! zeta(m + 1, x).
    """
    m, x = np.broadcast_arrays(np.asarray(m, dtype=np.float64),
                               np.asarray(x, dtype=np.float64))
    if np.any(m < 0.0) or np.any(m != np.floor(m)):
        raise DomainError("polygamma needs an integer order m >= 0")
    out = np.empty(m.shape)
    zero = m == 0.0
    if zero.any():
        out[zero] = digamma(x[zero])
    if not zero.all():
        mm = m[~zero]
        factorials = np.array([float(math.factorial(k))
                               for k in range(int(mm.max()) + 1)])
        out[~zero] = ((-1.0) ** (mm + 1.0) * factorials[mm.astype(int)]
                      * hurwitz_zeta(mm + 1.0, x[~zero]))
    return out if out.ndim else float(out)


# -- K0 -----------------------------------------------------------------------

def log_bessel_k0(x):
    """ln K0(x) for real x > 0, without underflow: ln(e^x K0(x)) - x."""
    arr = _check_x(x)
    out = np.log(_k0(arr.ravel(), scaled=True)).reshape(arr.shape) - arr
    return float(out) if arr.ndim == 0 else out


def bessel_k0e(z):
    """e^z K0(z) for real z > 0 or complex z with Re z > 0.

    Real in, real out.  Arrays are evaluated at once; each value is
    independent of the others in the array.  Raises ConvergenceError
    where the quadrature would need more than 2^20 nodes (Re z tiny
    against Im z).
    """
    return _k0_entry(z, scaled=True)


def bessel_k0_complex(z):
    """K0(z) for Re z > 0 by principal-branch analytic continuation.

    Arrays are evaluated at once; each value is independent of the others
    in the array.  Raises ConvergenceError where the quadrature would need
    more than 2^20 nodes (Re z tiny against Im z).
    """
    arr = _as_complex(z)
    return _k0_entry(arr, scaled=False)


def _k0_entry(z, scaled):
    real = not np.iscomplexobj(z)
    arr = np.asarray(z, dtype=np.float64 if real else np.complex128)
    if not np.all(np.isfinite(arr)):
        raise DomainError("non-finite argument")
    if np.any(arr.real <= 0.0):
        raise DomainError("K0 requires Re z > 0")
    out = _k0(np.atleast_1d(arr).ravel(), scaled).reshape(arr.shape)
    if arr.ndim:
        return out
    return float(out) if real else complex(out)


def _k0(z, scaled):
    """K0 (e^z K0 when scaled) on a flat array with Re z > 0."""
    out = np.empty_like(z)
    size = np.abs(z)
    big = size >= _K0_ASYMPTOTIC_CUTOFF
    small = size < _K0_SERIES_CUTOFF
    mid = ~big & ~small
    if big.any():
        out[big] = _k0_asymptotic(z[big], scaled)
    if small.any():
        out[small] = _k0_series(z[small], scaled)
    # in chunks, which bounds the quadrature's working memory
    mid = np.flatnonzero(mid)
    for i in range(0, mid.size, _K0_CHUNK):
        part = mid[i:i + _K0_CHUNK]
        out[part] = _k0_sommerfeld(z[part], scaled)
    return out


def _k0_series(z, scaled):
    """K0(z) = -(ln(z/2) + gamma) I0(z) + sum_k H_k (z^2/4)^k / (k!)^2."""
    t = 0.25 * z * z
    term = np.ones_like(z)
    i0 = np.ones_like(z)
    rest = np.zeros_like(z)
    harmonic = 0.0
    for k in range(1, _K0_SERIES_TERMS + 1):
        term = term * t / (k * k)
        harmonic += 1.0 / k
        i0 = i0 + term
        rest = rest + harmonic * term
    out = rest - (np.log(0.5 * z) + _EULER) * i0
    return out * np.exp(z) if scaled else out


def _k0_asymptotic(z, scaled):
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
    front = np.sqrt(np.pi / (2.0 * z))
    if not scaled:
        front = front * np.exp(-z)
    return front * total


def _k0_sommerfeld(z, scaled):
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
    return out if scaled else np.exp(-z) * out


def _sommerfeld_terms(z, t_max, u):
    """Sum over u of g = exp(-2z sinh^2(t_max u/2)) and of |g|, per point.

    Points are taken in blocks of at most _K0_BLOCK entries and nodes in
    blocks of _K0_NODES; the node blocks depend only on u, so no point's
    sum depends on its neighbours in z.  A complex exponent is formed
    part by part, as the product of the real 2 sinh^2 with -z.
    """
    real = not np.iscomplexobj(z)
    total = np.zeros(z.size, dtype=z.dtype)
    mag = total if real else np.zeros(z.size)
    rows = max(1, _K0_BLOCK // u.size)
    for i in range(0, z.size, rows):
        zi = -z[i:i + rows, None]
        half = 0.5 * t_max[i:i + rows, None]
        for j in range(0, u.size, _K0_NODES):
            s = np.sinh(half * u[j:j + _K0_NODES])
            np.square(s, out=s)
            s *= 2.0
            if real:
                s *= zi
                total[i:i + rows] += np.exp(s, out=s).sum(axis=1)
                continue
            g = np.empty(s.shape, dtype=np.complex128)
            np.multiply(s, zi.real, out=g.real)
            np.multiply(s, zi.imag, out=g.imag)
            np.exp(g, out=g)
            total[i:i + rows] += g.sum(axis=1)
            mag[i:i + rows] += np.abs(g, out=s).sum(axis=1)
    return total, mag
