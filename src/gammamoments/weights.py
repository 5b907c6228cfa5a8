"""Principal weight functions for the four model families.

The first two families have closed forms (stretched exponential, Bessel K0),
which `principal_solution` picks by `MomentSequence.family` (the
stretched exponential serves every single factor Gamma(an + b)); the
third and fourth are defined operationally as inverse Mellin transforms
of their gamma-product symbols.  For those, and for any other gamma
product, ln W is interpolated once per sequence by Chebyshev polynomials
on panels in ln x, built from a single call of the contour engine at every
panel's Chebyshev points (knots sharing a saddle band share one set of
symbol evaluations).  A panel is accepted once its trailing coefficients
are below 1e-11, or below ln W's own rounding, 64 eps max|ln W|, on a
panel whose |ln W| passes about 704 (where W leaves the double range),
so the interpolant certifies its own accuracy (about 1e-12 in ln W where
W is representable) at quadrature-friendly speed; w3/w4 evaluate the
engine directly at a scalar or an array x, for cross-checks.  The engine
defines these densities, and the interpolant only caches it: its window
runs from x = 1e-20 (_X_MIN) to where the tail law's leading term g x^p
reaches 320 (ln W itself is not -320 there, but -323 on tm3:r=1, -168
on gamma:3n+20,n+15 and -8,441 on tm3:r=580), and every ln x outside it
goes to the engine.  The window starts as panels max(8, A) wide, A =
sum a_j, since ln W varies on a scale of A in ln x; the window is 46.05 +
A ln(320/g) wide with g >= 1, so it holds at most 12 of them.  The
engine routes every knot, in the window or not, by one rule: the
residue series at the symbol's poles (`mellin._residue_sums`) answers
each knot it certifies (for tm3:r=1 and tm4:r=1 every knot up to x =
0.1), and band quadrature the rest.

`principal_solution(seq)` is the one constructor, for every sequence: it
picks the log-density (w1, W2 or the interpolant) from seq.family, and a
closed form certifies the tail exactly for the first two families;
alpha0 and growth are read from seq, whose endpoint laws are exact.

Every density is evaluated in ln x: `WeightFunction.log_density` takes
ln x and returns ln W, and the closed forms are written in ln x, so a
caller working in ln x (the moment window, the criteria) never forms x,
which leaves the double range long before ln W does.  `evaluate(x)` is the
one entry in linear x: it, w1, w2, w3 and w4 hand ln x to their log-form
through `errors._at_x`, which checks x and gives a float for a scalar x
and x's shape otherwise.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConvergenceError, DomainError, _at_x, _check_int,
                     _check_log_x)
from .mellin import contour_log_densities
from .moments import MomentSequence, tm3, tm4
from .special import log_bessel_k0

__all__ = [
    "WeightFunction",
    "w1",
    "w2",
    "w3",
    "w4",
    "principal_solution",
]


@dataclass(frozen=True)
class WeightFunction:
    """A positive density on (0, inf) with known endpoint behaviour.

    growth = (g, p) means -ln W(x) ~ g x^p as x -> inf; alpha0 is the power
    at the origin (log factors aside); both are seq's.  tail_certified
    marks densities whose tail law comes from a closed form rather than
    from quadrature.
    log_density maps ln x to ln W and raises DomainError at a non-finite
    ln x; evaluate(x) checks 0 < x < inf and returns W(x).
    """

    seq: MomentSequence
    log_density: object = field(repr=False)  # callable: array ln x -> ln W
    tail_certified: bool = False

    @property
    def alpha0(self) -> float:
        return self.seq.alpha0

    @property
    def growth(self) -> tuple:  # (g, p)
        return (self.seq.tail_coefficient, self.seq.tail_power)

    def evaluate(self, x):
        return _at_x(lambda log_x: (1.0, self.log_density(log_x)), x)


# -- family 1: moments (qn)!, density e^{-x^{1/q}} / (q x^{(q-1)/q}) --------

def _log_w1(q, log_x, b=1.0):
    """ln of x^{(b-q)/q} e^{-x^{1/q}} / q at ln x, the density with moments
    Gamma(qn + b) for any q, b > 0 (u = x^{1/q} turns it into Gamma's
    integral); b = 1 is w1(q, x).  Past the double range of x^{1/q}
    (q < 1) ln W is -inf, without a warning."""
    log_x = _check_log_x(log_x)
    with np.errstate(over="ignore"):
        return -np.log(q) + ((b - q) / q) * log_x - np.exp(log_x / q)


def w1(q, x):
    """Principal density with moments (qn)!; q = 2r gives the first family."""
    if q < 1:
        raise DomainError(f"w1 requires q >= 1, got {q}")
    return _at_x(lambda log_x: (1.0, _log_w1(q, log_x)), x)


# -- family 2: moments [(rn)!]^2, density 2 K0(2 x^{1/2r}) / (r x^{(r-1)/r}) -

def _log_w2(r, log_x):
    """ln W2(r, x) at ln x; its callers check r."""
    return (_log_w2_front(r, log_x)
            + log_bessel_k0(2.0 * np.exp(log_x / (2.0 * r))))


def _log_w2_front(r, log_x):
    """ln(2 / (r x^{(r-1)/r})), W2's factor before K0, at a checked ln x."""
    log_x = _check_log_x(log_x)
    return np.log(2.0) - np.log(float(r)) - ((r - 1.0) / r) * log_x


def w2(r, x):
    _check_int(r, "r", 1)
    return _at_x(lambda log_x: (1.0, _log_w2(r, log_x)), x)


# -- families 3 and 4: Mellin-Barnes evaluated ------------------------------

def _contour_density(seq, x):
    """W(x) straight from the engine; a scalar x gives a float."""
    return _at_x(lambda log_x: contour_log_densities(seq, log_x)[::-1], x)


def w3(r, x):
    """Principal density with moments [(rn)!]^3; direct contour evaluation."""
    return _contour_density(tm3(r), x)


def w4(r, x):
    """Principal density with moments (2rn)! [(rn)!]^2; direct contour."""
    return _contour_density(tm4(r), x)


_X_MIN = 1e-20  # left edge of the interpolant's window
_LOG_DEPTH = 320.0  # the tail law's g x^p at the window's top
_PANEL_WIDTH = 8.0  # least initial panel width in ln x
_DEGREE = 32  # each panel interpolates at _DEGREE + 1 Chebyshev points
_TAIL_TOL = 1e-11  # accepted size of a panel's trailing coefficients
_MAX_SPLITS = 6  # halvings of an initial panel before the build gives up


@dataclass(frozen=True, eq=False)
class _PanelInterpolant:
    """Piecewise Chebyshev polynomial in u = ln x on [edges[0], edges[-1]].

    coef[i] holds the Chebyshev coefficients of panel [edges[i],
    edges[i + 1]]; error is the largest trailing-coefficient sum of an
    accepted panel, the interpolant's estimate of its own absolute error
    in ln W: at most 1e-11 unless a panel reaches |ln W| > about 704,
    where it is ln W's rounding, 64 eps max|ln W| on that panel.
    """

    edges: np.ndarray
    coef: np.ndarray
    error: float

    @property
    def nodes(self):
        """ln x at the Chebyshev points of every panel."""
        return _panel_points(self.edges[:-1], self.edges[1:]).ravel()

    def __call__(self, u):
        from numpy.polynomial import chebyshev

        i = np.clip(np.searchsorted(self.edges, u, side="right") - 1,
                    0, self.coef.shape[0] - 1)
        left, right = self.edges[i], self.edges[i + 1]
        t = (2.0 * u - left - right) / (right - left)
        return chebyshev.chebval(t, self.coef[i].T, tensor=False)


def _panel_points(left, right):
    """(panels, _DEGREE + 1) array of each panel's Chebyshev points."""
    from numpy.polynomial import chebyshev

    t = chebyshev.chebpts1(_DEGREE + 1)
    return 0.5 * (left + right)[:, None] + 0.5 * (right - left)[:, None] * t


def _chebyshev_coefficients(values):
    """Rows of values at chebpts1(_DEGREE + 1) -> rows of coefficients,
    by einsum rather than a BLAS product (see mellin._phase_sum)."""
    from numpy.polynomial import chebyshev

    n = _DEGREE + 1
    to_coef = chebyshev.chebvander(chebyshev.chebpts1(n), _DEGREE) * (2.0 / n)
    to_coef[:, 0] *= 0.5
    return np.einsum("ij,jk->ik", values, to_coef)


@functools.lru_cache(maxsize=16)
def _density_spline(seq: MomentSequence):
    """Piecewise Chebyshev interpolant of ln W vs ln x for a contour density.

    The window runs from x = 1e-20 to where the tail law's leading term
    g x^p reaches _LOG_DEPTH; `_spline_log_evaluate` sends ln x outside it
    to the engine.  It starts as panels max(_PANEL_WIDTH, A) wide, the
    scale of ln W in ln x, since -ln W ~ A sigma with sigma = (x/h)^(1/A)
    (a Chebyshev panel resolves e^(ln x / A) at a rate set by its width
    over A: Trefethen, ATAP ch. 8).  The window, 46.05 + A ln(320/g)
    wide with g >= 1, holds at most 12 of them (11.6 for A <= 8, fewer
    than 46.05/A + 5.77 above), and all are evaluated by one engine
    call.  A panel whose last three coefficients sum above
    max(_TAIL_TOL, 64 eps max|ln W|) on it is halved, and the halves of
    every such panel are evaluated by one further call; the second term,
    ln W's own rounding (Trefethen, ATAP ch. 8), passes _TAIL_TOL only
    where |ln W| > about 704.
    """
    g, p = seq.tail_coefficient, seq.tail_power
    lo = np.log(_X_MIN)
    hi = np.log(_LOG_DEPTH / g) / p
    count = np.ceil((hi - lo) / max(_PANEL_WIDTH, seq.sum_a))
    cuts = np.linspace(lo, hi, int(count) + 1)
    left, right = cuts[:-1], cuts[1:]
    accepted = []  # (left edge, coef, tail) of the accepted panels
    for splits in range(_MAX_SPLITS + 1):
        lx = _panel_points(left, right)
        lw, _ = contour_log_densities(seq, lx.ravel())
        lw = lw.reshape(lx.shape)
        coef = _chebyshev_coefficients(lw)
        tail = np.sum(np.abs(coef[:, -3:]), axis=1)
        floor = 64 * np.finfo(float).eps * np.max(np.abs(lw), axis=1)
        ok = tail <= np.maximum(_TAIL_TOL, floor)
        accepted.append((left[ok], coef[ok], tail[ok]))
        if np.all(ok):
            break
        if splits == _MAX_SPLITS:
            raise ConvergenceError(
                f"{seq.descriptor()}: Chebyshev panels "
                f"{np.min((right - left)[~ok]):g} wide in ln x still leave "
                f"trailing coefficients above {_TAIL_TOL:g}")
        mid = 0.5 * (left[~ok] + right[~ok])
        left = np.concatenate([left[~ok], mid])
        right = np.concatenate([mid, right[~ok]])
    left, coef, tail = (np.concatenate(part) for part in zip(*accepted))
    order = np.argsort(left)
    return _PanelInterpolant(np.append(left[order], hi), coef[order],
                             float(np.max(tail)))


def _spline_log_evaluate(seq, log_x):
    """ln W at ln x: the interpolant inside its window, the engine outside."""
    interp = _density_spline(seq)
    arr = _check_log_x(log_x)
    lx = np.atleast_1d(arr)
    inside = (lx >= interp.edges[0]) & (lx <= interp.edges[-1])
    out = np.empty(lx.shape)
    out[inside] = interp(lx[inside])
    if not np.all(inside):
        out[~inside] = contour_log_densities(seq, lx[~inside])[0]
    return float(out[0]) if arr.ndim == 0 else out


# -- the constructor -------------------------------------------------------

def principal_solution(seq: MomentSequence) -> WeightFunction:
    """Principal density for a sequence, picked by seq.family: for the
    first family's factor (a, b), x^{(b-a)/a} e^{-x^{1/a}} / a (w1(q, .)
    at (q, 1)); W2(r) for the second; else the contour interpolant."""
    family, r = seq.family or (None, None)
    if family == "tm1":
        (a, b), = seq.factors
        log_density = lambda log_x: _log_w1(a, log_x, b)
    elif family == "tm2":
        log_density = lambda log_x: _log_w2(r, log_x)
    else:
        log_density = lambda log_x: _spline_log_evaluate(seq, log_x)
    return WeightFunction(seq=seq, log_density=log_density,
                          tail_certified=family in ("tm1", "tm2"))
