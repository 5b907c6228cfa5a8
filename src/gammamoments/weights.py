"""Principal weight functions for the four model families.

The first two families have closed forms (stretched exponential, Bessel K0),
which `principal_solution` reads off any factor list of their shape; the
third and fourth are defined operationally as inverse Mellin transforms
of their gamma-product symbols.  For those, and for any other gamma
product, ln W is interpolated once per sequence by Chebyshev polynomials
on panels in ln x, built from a single call of the contour engine at every
panel's Chebyshev points (knots sharing a saddle band share one set of
symbol evaluations).  A panel is accepted once its trailing coefficients
are below 1e-11, so the interpolant certifies its own accuracy (about
1e-12 in ln W) at quadrature-friendly speed; w3/w4 evaluate the engine's
one-knot case directly, for cross-checks.

Every density is evaluated in ln x: `WeightFunction.log_density` takes
ln x and returns ln W, and the closed forms are written in ln x, so a
caller working in ln x (the moment window, the criteria) never forms x,
which leaves the double range long before ln W does.  `evaluate(x)` is the
one entry in linear x.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.polynomial import chebyshev

from .errors import ConvergenceError, DomainError, TruncationError
from .mellin import contour_density, contour_log_densities, mellin_convolve
from .moments import MomentSequence, _check_r, tm1, tm2, tm3, tm4
from .special import log_bessel_k0

__all__ = [
    "WeightFunction",
    "w1",
    "w2",
    "w3",
    "w4",
    "w4_via_convolution",
    "weight_w1",
    "weight_tm1",
    "weight_tm2",
    "weight_tm3",
    "weight_tm4",
    "principal_solution",
]


@dataclass(frozen=True)
class WeightFunction:
    """A positive density on (0, inf) with known endpoint behaviour.

    growth = (g, p) means -ln W(x) ~ g x^p as x -> inf; alpha0 is the power
    at the origin (log factors aside).  tail_certified marks densities whose
    tail law comes from a closed form rather than from quadrature.
    log_density maps ln x to ln W and raises DomainError at a non-finite
    ln x; evaluate(x) checks 0 < x < inf and returns W(x).
    """

    name: str
    seq: MomentSequence
    alpha0: float
    growth: tuple  # (g, p)
    log_density: object = field(repr=False)  # callable: array ln x -> ln W
    tail_certified: bool = False

    def evaluate(self, x):
        log_x = np.log(_check_x(x))
        with np.errstate(under="ignore"):
            return np.exp(self.log_density(log_x))

    def __call__(self, x):
        return self.evaluate(x)


def _check_x(x):
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise DomainError("density argument must satisfy 0 < x < inf")
    return arr


def _check_log_x(log_x):
    arr = np.asarray(log_x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise DomainError("density argument must satisfy -inf < ln x < inf")
    return arr


# -- family 1: moments (qn)!, density e^{-x^{1/q}} / (q x^{(q-1)/q}) --------

def _log_w1(q, log_x):
    """ln w1(q, x) at ln x."""
    log_x = _check_log_x(log_x)
    if q < 1:
        raise DomainError(f"w1 requires q >= 1, got {q}")
    return -np.log(q) - ((q - 1.0) / q) * log_x - np.exp(log_x / q)


def log_w1(q, x):
    return _log_w1(q, np.log(_check_x(x)))


def w1(q, x):
    """Principal density with moments (qn)!; q = 2r gives the first family."""
    with np.errstate(under="ignore"):
        return np.exp(log_w1(q, x))


# -- family 2: moments [(rn)!]^2, density 2 K0(2 x^{1/2r}) / (r x^{(r-1)/r}) -

def _log_w2(r, log_x):
    """ln W2(r, x) at ln x."""
    log_x = _check_log_x(log_x)
    _check_r(r)
    return (np.log(2.0) - np.log(float(r)) - ((r - 1.0) / r) * log_x
            + log_bessel_k0(2.0 * np.exp(log_x / (2.0 * r))))


def log_w2(r, x):
    return _log_w2(r, np.log(_check_x(x)))


def w2(r, x):
    with np.errstate(under="ignore"):
        return np.exp(log_w2(r, x))


# -- families 3 and 4: Mellin-Barnes evaluated ------------------------------

def w3(r, x, rtol=1e-10):
    """Principal density with moments [(rn)!]^3; direct contour evaluation."""
    _check_r(r)
    _check_x(x)
    return contour_density(tm3(r), float(x), rtol)


def w4(r, x, rtol=1e-10):
    """Principal density with moments (2rn)! [(rn)!]^2; direct contour."""
    _check_r(r)
    _check_x(x)
    return contour_density(tm4(r), float(x), rtol)


def w4_via_convolution(r, x, rtol=1e-9):
    """Same density through the convolution of the first two families."""
    a = weight_tm1(r)
    b = weight_tm2(r)
    return mellin_convolve(a.evaluate, b.evaluate, float(x), rtol=rtol)


# -- WeightFunction factories ----------------------------------------------

def weight_w1(q) -> WeightFunction:
    """Generic (qn)! solver; continuous q >= 1 covers half-integer indices."""
    if q < 1:
        raise DomainError(f"weight_w1 requires q >= 1, got {q}")
    from .moments import gamma_product
    seq = gamma_product([(q, 1.0)], label=f"gamma:{q:g}n+1")
    return WeightFunction(
        name=f"w1[q={q:g}]", seq=seq, alpha0=-(q - 1.0) / q,
        growth=(1.0, 1.0 / q),
        log_density=lambda log_x, q=q: _log_w1(q, log_x),
        tail_certified=True)


def weight_tm1(r) -> WeightFunction:
    _check_r(r)
    return WeightFunction(
        name=f"W1({r})", seq=tm1(r), alpha0=-(2.0 * r - 1.0) / (2.0 * r),
        growth=(1.0, 1.0 / (2.0 * r)),
        log_density=lambda log_x, r=r: _log_w1(2 * r, log_x),
        tail_certified=True)


def weight_tm2(r) -> WeightFunction:
    _check_r(r)
    return WeightFunction(
        name=f"W2({r})", seq=tm2(r), alpha0=-(r - 1.0) / r,
        growth=(2.0, 1.0 / (2.0 * r)),
        log_density=lambda log_x, r=r: _log_w2(r, log_x),
        tail_certified=True)


_X_MIN = 1e-20  # below, ln W continues along the edge slope
_LOG_DEPTH = 320.0  # ln W covered down to exp(-320) in the tail
_PANEL_WIDTH = 8.0  # initial panel width in ln x
_DEGREE = 32  # each panel interpolates at _DEGREE + 1 Chebyshev points
_TAIL_TOL = 1e-11  # accepted size of a panel's trailing coefficients
_MAX_SPLITS = 6  # halvings of an initial panel before the build gives up


@dataclass(frozen=True, eq=False)
class _PanelInterpolant:
    """Piecewise Chebyshev polynomial in u = ln x on [edges[0], edges[-1]].

    coef[i] holds the Chebyshev coefficients of panel [edges[i],
    edges[i + 1]]; error is the largest trailing-coefficient sum of an
    accepted panel, the interpolant's estimate of its own error.
    """

    edges: np.ndarray
    coef: np.ndarray
    error: float

    @property
    def nodes(self):
        """ln x at the Chebyshev points of every panel."""
        return _panel_points(self.edges[:-1], self.edges[1:]).ravel()

    def __call__(self, u):
        i = np.clip(np.searchsorted(self.edges, u, side="right") - 1,
                    0, self.coef.shape[0] - 1)
        left, right = self.edges[i], self.edges[i + 1]
        t = (2.0 * u - left - right) / (right - left)
        return chebyshev.chebval(t, self.coef[i].T, tensor=False)

    def edge_slope(self):
        """d ln W / d ln x at the left end of the window."""
        width = self.edges[1] - self.edges[0]
        slope = chebyshev.chebval(-1.0, chebyshev.chebder(self.coef[0]))
        return float(slope) * 2.0 / width


def _panel_points(left, right):
    """(panels, _DEGREE + 1) array of each panel's Chebyshev points."""
    t = chebyshev.chebpts1(_DEGREE + 1)
    return 0.5 * (left + right)[:, None] + 0.5 * (right - left)[:, None] * t


def _chebyshev_coefficients(values):
    """Rows of values at chebpts1(_DEGREE + 1) -> rows of coefficients."""
    n = _DEGREE + 1
    to_coef = chebyshev.chebvander(chebyshev.chebpts1(n), _DEGREE) * (2.0 / n)
    to_coef[:, 0] *= 0.5
    return values @ to_coef


@functools.lru_cache(maxsize=16)
def _density_spline(seq: MomentSequence):
    """Piecewise Chebyshev interpolant of ln W vs ln x for a contour density.

    The window runs from x = 1e-20 to where ln W reaches -_LOG_DEPTH.  All
    panels are evaluated by one engine call; a panel whose last three
    coefficients sum above _TAIL_TOL is halved, and the halves of every
    such panel are evaluated by one further call.
    """
    g, p = seq.tail_coefficient, seq.tail_power
    lo = np.log(_X_MIN)
    hi = np.log((_LOG_DEPTH / g) ** (1.0 / p))
    cuts = np.linspace(lo, hi, int(np.ceil((hi - lo) / _PANEL_WIDTH)) + 1)
    left, right = cuts[:-1], cuts[1:]
    accepted = []  # (left edge, coef, tail) of the accepted panels
    for _ in range(_MAX_SPLITS + 1):
        lx = _panel_points(left, right)
        lw, sign = contour_log_densities(seq, lx.ravel())
        if np.any(sign <= 0):
            v = float(np.min(lx.ravel()[sign <= 0]))
            raise TruncationError(
                f"principal density of {seq.descriptor()} evaluated negative "
                f"at ln x = {v:.3f}; contour resolution insufficient")
        coef = _chebyshev_coefficients(lw.reshape(lx.shape))
        tail = np.sum(np.abs(coef[:, -3:]), axis=1)
        ok = tail <= _TAIL_TOL
        accepted.append((left[ok], coef[ok], tail[ok]))
        if np.all(ok):
            break
        mid = 0.5 * (left[~ok] + right[~ok])
        left = np.concatenate([left[~ok], mid])
        right = np.concatenate([mid, right[~ok]])
    else:
        raise ConvergenceError(
            f"{seq.descriptor()}: Chebyshev panels at most "
            f"{_PANEL_WIDTH / 2 ** _MAX_SPLITS:g} wide in ln x still leave "
            f"trailing coefficients above {_TAIL_TOL:g}")
    left, coef, tail = (np.concatenate(part) for part in zip(*accepted))
    order = np.argsort(left)
    return _PanelInterpolant(np.append(left[order], hi), coef[order],
                             float(np.max(tail)))


def _spline_log_evaluate(seq, log_x):
    """ln W at ln x from the interpolant of seq's density."""
    interp = _density_spline(seq)
    arr = _check_log_x(log_x)
    scalar = arr.ndim == 0
    lx = np.atleast_1d(arr)
    lo, hi = interp.edges[0], interp.edges[-1]
    if np.any(lx > hi):
        raise TruncationError(
            f"{seq.descriptor()}: density tail beyond the certified window "
            f"(ln x = {float(np.max(lx)):.2f} > {hi:.2f})")
    out = interp(np.maximum(lx, lo))
    below = lx < lo
    if np.any(below):
        # clamp to the edge slope; only exercised at x < 1e-20
        out[below] += interp.edge_slope() * (lx[below] - lo)
    return float(out[0]) if scalar else out


def weight_tm3(r) -> WeightFunction:
    _check_r(r)
    seq = tm3(r)
    return WeightFunction(
        name=f"W3({r})", seq=seq, alpha0=-(r - 1.0) / r,
        growth=(seq.tail_coefficient, seq.tail_power),
        log_density=lambda log_x, seq=seq: _spline_log_evaluate(seq, log_x),
        tail_certified=False)


def weight_tm4(r) -> WeightFunction:
    _check_r(r)
    seq = tm4(r)
    return WeightFunction(
        name=f"W4({r})", seq=seq, alpha0=-(2.0 * r - 1.0) / (2.0 * r),
        growth=(seq.tail_coefficient, seq.tail_power),
        log_density=lambda log_x, seq=seq: _spline_log_evaluate(seq, log_x),
        tail_certified=False)


def principal_solution(seq: MomentSequence) -> WeightFunction:
    """Principal density for a sequence: closed form if known, else contour.

    The closed form is read off the factor list, so a gamma descriptor
    gets the density of the named kind with the same factors: one factor
    (q, 1) with q >= 1 is w1(q, .), two equal factors (r, 1) with integer
    r are W2(r).
    """
    (a, b), count = seq.factors[0], len(seq.factors)
    if b == 1 and count == 1 and a >= 1:
        w = weight_tm1(int(a) // 2) if a % 2 == 0 else weight_w1(a)
        return replace(w, seq=seq)
    if (b == 1 and count == 2 and seq.factors[1] == (a, b)
            and float(a).is_integer()):
        return replace(weight_tm2(int(a)), seq=seq)
    if seq.kind == "tm3":
        return weight_tm3(seq.r)
    if seq.kind == "tm4":
        return weight_tm4(seq.r)
    return WeightFunction(
        name=f"W[{seq.descriptor()}]", seq=seq, alpha0=seq.alpha0,
        growth=(seq.tail_coefficient, seq.tail_power),
        log_density=lambda log_x, seq=seq: _spline_log_evaluate(seq, log_x),
        tail_certified=False)
