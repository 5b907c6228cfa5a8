"""Principal weight functions for the four model families.

The first two families have closed forms (stretched exponential, Bessel K0);
the third and fourth are defined operationally as inverse Mellin transforms
of their gamma-product symbols.  For those, and for any other gamma
product, a log-log cubic spline of the density is built once per sequence
from a single call of the contour engine on all its knots (knots sharing a
saddle band share one set of symbol evaluations), giving ~1e-9 pointwise
accuracy at quadrature-friendly speed; w3/w4 evaluate the engine's
one-knot case directly, for cross-checks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, TruncationError
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
    """

    name: str
    seq: MomentSequence
    alpha0: float
    growth: tuple  # (g, p)
    log_evaluate: object = field(repr=False)  # callable: array x -> array ln W
    tail_certified: bool = False

    def evaluate(self, x):
        with np.errstate(under="ignore"):
            return np.exp(self.log_evaluate(x))

    def __call__(self, x):
        return self.evaluate(x)


def _check_x(x):
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr <= 0.0) or not np.all(np.isfinite(arr)):
        raise DomainError("density argument must satisfy 0 < x < inf")
    return arr


# -- family 1: moments (qn)!, density e^{-x^{1/q}} / (q x^{(q-1)/q}) --------

def log_w1(q, x):
    x = _check_x(x)
    if q < 1:
        raise DomainError(f"w1 requires q >= 1, got {q}")
    return -np.log(q) - ((q - 1.0) / q) * np.log(x) - x ** (1.0 / q)


def w1(q, x):
    """Principal density with moments (qn)!; q = 2r gives the first family."""
    with np.errstate(under="ignore"):
        return np.exp(log_w1(q, x))


# -- family 2: moments [(rn)!]^2, density 2 K0(2 x^{1/2r}) / (r x^{(r-1)/r}) -

def log_w2(r, x):
    x = _check_x(x)
    _check_r(r)
    return (np.log(2.0) - np.log(float(r)) - ((r - 1.0) / r) * np.log(x)
            + log_bessel_k0(2.0 * x ** (1.0 / (2.0 * r))))


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
        log_evaluate=lambda x, q=q: log_w1(q, x),
        tail_certified=True)


def weight_tm1(r) -> WeightFunction:
    _check_r(r)
    return WeightFunction(
        name=f"W1({r})", seq=tm1(r), alpha0=-(2.0 * r - 1.0) / (2.0 * r),
        growth=(1.0, 1.0 / (2.0 * r)),
        log_evaluate=lambda x, r=r: log_w1(2 * r, x),
        tail_certified=True)


def weight_tm2(r) -> WeightFunction:
    _check_r(r)
    return WeightFunction(
        name=f"W2({r})", seq=tm2(r), alpha0=-(r - 1.0) / r,
        growth=(2.0, 1.0 / (2.0 * r)),
        log_evaluate=lambda x, r=r: log_w2(r, x),
        tail_certified=True)


_SPLINE_POINTS = 1400
_SPLINE_X_MIN = 1e-20
_SPLINE_LOG_DEPTH = 320.0  # ln W covered down to exp(-320) in the tail


@functools.lru_cache(maxsize=16)
def _density_spline(seq: MomentSequence):
    """CubicSpline of ln W vs ln x for a contour-evaluated density."""
    g, p = seq.tail_coefficient, seq.tail_power
    x_max = (_SPLINE_LOG_DEPTH / g) ** (1.0 / p)
    lx = np.linspace(np.log(_SPLINE_X_MIN), np.log(x_max), _SPLINE_POINTS)
    lw, sign = contour_log_densities(seq, lx)
    if np.any(sign <= 0):
        v = lx[int(np.argmax(sign <= 0))]
        raise TruncationError(
            f"principal density of {seq.descriptor()} evaluated negative "
            f"at ln x = {v:.3f}; contour resolution insufficient")
    from scipy.interpolate import CubicSpline

    return CubicSpline(lx, lw), lx[0], lx[-1]


def _spline_log_evaluate(seq, x):
    spline, lo, hi = _density_spline(seq)
    arr = _check_x(x)
    scalar = arr.ndim == 0
    lx = np.atleast_1d(np.log(arr))
    out = np.empty_like(lx)
    inside = (lx >= lo) & (lx <= hi)
    out[inside] = spline(lx[inside])
    below = lx < lo
    if np.any(below):
        # clamp to the edge slope; only exercised at x < 1e-20
        slope = float(spline(lo, 1))
        out[below] = float(spline(lo)) + slope * (lx[below] - lo)
    if np.any(lx > hi):
        raise TruncationError(
            f"{seq.descriptor()}: density tail beyond the certified window "
            f"(ln x = {float(np.max(lx)):.2f} > {hi:.2f})")
    return float(out[0]) if scalar else out


def weight_tm3(r) -> WeightFunction:
    _check_r(r)
    seq = tm3(r)
    return WeightFunction(
        name=f"W3({r})", seq=seq, alpha0=-(r - 1.0) / r,
        growth=(seq.tail_coefficient, seq.tail_power),
        log_evaluate=lambda x, seq=seq: _spline_log_evaluate(seq, x),
        tail_certified=False)


def weight_tm4(r) -> WeightFunction:
    _check_r(r)
    seq = tm4(r)
    return WeightFunction(
        name=f"W4({r})", seq=seq, alpha0=-(2.0 * r - 1.0) / (2.0 * r),
        growth=(seq.tail_coefficient, seq.tail_power),
        log_evaluate=lambda x, seq=seq: _spline_log_evaluate(seq, x),
        tail_certified=False)


def principal_solution(seq: MomentSequence) -> WeightFunction:
    """Principal density for a sequence: closed form if known, else contour."""
    if seq.kind == "tm1":
        return weight_tm1(seq.r)
    if seq.kind == "tm2":
        return weight_tm2(seq.r)
    if seq.kind == "tm3":
        return weight_tm3(seq.r)
    if seq.kind == "tm4":
        return weight_tm4(seq.r)
    return WeightFunction(
        name=f"W[{seq.descriptor()}]", seq=seq, alpha0=seq.alpha0,
        growth=(seq.tail_coefficient, seq.tail_power),
        log_evaluate=lambda x, seq=seq: _spline_log_evaluate(seq, x),
        tail_certified=False)
