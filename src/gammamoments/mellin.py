"""Vertical-contour inverse Mellin transforms, and Mellin convolution as
an oracle.

Everything on the contour is done in log domain: the symbol returns
log-values, the quadrature renormalizes by the peak magnitude, so gamma
products with huge arguments never overflow.  For tail evaluation the
abscissa is shifted to the real saddle point of the integrand, which keeps
the oscillatory sum cancellation-free at any x; `_saddles` alone keeps
every contour 1e-8 clear of the symbol's rightmost pole.

Densities are evaluated by one engine, `contour_log_densities`, on an
array of ln x values.  The symbol does not depend on x, and on a fixed
vertical line c + it the x-dependence is the factor x^-c e^{-it ln x}, so
one set of symbol values serves many knots: neighbouring knots are grouped
into bands that share the saddle abscissa of the band's middle knot (each
member loses at most about one digit to off-saddle cancellation).  A
band's grid depends on its contour alone (the sequence, the centre, the
window and the curvature there), never on its knots: at the saddle the
symbol's phase rate equals ln x and cancels the knot's (stationary
phase), so the grid resolves the net phase across the window, with a
margin of 2 per unit of A against aliasing, and the peak's width (see
`_phase_resolved_points`).  A band's nodes are uniform, t_j = t0 + j d,
so its phase sum factors into
baby and giant steps: e^{-i t_j ln x} costs about 2 sqrt(n) exponentials
per knot, and the rest is an einsum contraction, which runs NumPy's own
loops rather than BLAS: no density or perturbation call starts OpenBLAS,
whose first product costs a process about 0.5 MB of peak RSS (only the
convolution oracle keeps BLAS products).  The trapezoid grids are
nested (2^k + 1 nodes), so a refinement evaluates the symbol only at the
new midpoints, and every band knot, density or perturbation, is accepted
once two of them agree to one tolerance, _RTOL (1e-10 of its summed
part), or, in the far tail, to the rounding its nodes carry: each
node's phase Im phi is rounded to about eps |phi|, so the stop test
takes max(_RTOL, 64 eps max|phi|) over the band's coarsest grid.
`contour_log_density` is the one-knot case.  This engine
is the package's only contour route: `inverse_mellin_log` on an
`adapted_contour` is a fixed, unbanded trapezoid sum kept as the
reference the tests compare the engine against.

The same engine serves perturbations whose transform is a density symbol
phi(s) times e^{i psi s}: it returns the complex sums
(1/2 pi) int exp(phi(s) + i psi s - s L) dt, centred on the complex
saddle of each band (see `classes._log_rotated`).

One rule routes every knot: the residue series answers each knot it
certifies, and the bands sum the rest.  Left of the contour the integral
is the sum of the residues of rho(s-1) e^{-s(L - i psi)} at the poles
s = 1 - (b_j + l)/a_j; a pole of order m gives z^{-p} times a polynomial
of degree m - 1 in ln z, z = e^{L - i psi}, with coefficients from the
Laurent and Taylor series of the gamma factors (`special`'s polygamma
and Hurwitz zeta), once per sequence.  The series is certified once its first
omitted pole is below 1e-17 of the sum and the sum keeps 0.1 of its
terms' bound; toward x = 1 its terms cancel (from ln x = -2 or so for
tm3:r=1 and tm4:r=1), and two poles closer than 1e-6 end it.  It
answers every finite ln x left of that: where a power of ln z would
leave the doubles (below ln x = -3.3e150 for tm3 and tm4), each
pole's polynomial is taken relative to its own top power.

A Mellin convolution of two principal densities needs no integral: its
transform rho_a(s-1) rho_b(s-1) is the symbol of the product sequence,
so the CLI's `convolve` evaluates that sequence's density with the
engine.  `mellin_convolve_many` integrates f(x/t) g(t) dt/t directly;
its one caller is `classes.omega2_via_convolution`, the reference the
benchmark checks omega2 against.  The tests check the engine against
mpmath's Meijer G (tests/oracles.py), which shares none of its method.

Every entry checks its x (or ln x) once, on entry: an x outside
(0, inf) or a non-finite ln x raises DomainError.  The engine and the
convolution flatten x and return arrays of its shape; the convolution,
an entry in linear x, gives a float for a scalar x.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (ConstraintError, ConvergenceError, DomainError,
                     TruncationError, _check_log_x, _check_x)
from .moments import (MomentSequence, _factor_columns, _grouped_factors,
                      _ln_gamma_real, mellin_symbol)
from .special import digamma, hurwitz_zeta, polygamma

__all__ = [
    "ContourSpec",
    "inverse_mellin_log",
    "adapted_contour",
    "contour_log_density",
    "contour_log_densities",
    "mellin_convolve_many",
]

_LOG_DROP = 48.0  # integrand magnitude covered below its peak
_CANCEL_FLOOR = 1e-12  # |sum| / sum|terms| below this means no digits left
_BAND_LOSS = np.log(10.0)  # off-saddle cancellation a band member may pay
_BLOCK = 1 << 12  # complex entries per matrix of a phase-sum chunk of knots
_RTOL = 1e-10  # relative change between nested grids that settles a density
_MAX_POINTS = 1 << 17  # cap on a band's coarsest grid, floor of its finest
_POLE_SPAN = 8.0  # the series' poles lie within this (over min(1, a)) of the rightmost
_MAX_POLE_INDEX = 255  # last pole index l of a factor the series may use
_POLE_GAP = 1e-6  # distinct poles closer than this end the series' pole list
_SERIES_TOL = 1e-17  # first omitted pole's term bound, relative to the sum
_SERIES_MARGIN = 0.1  # least |sum| / sum of the terms' bounds
_POWER_EXP = 1000  # binary exponent of the series' top |w|^j past which it scales
_CONVOLVE_RTOL = 1e-9  # relative change that settles a convolution
_CONVOLVE_DEPTH = 14  # nested grids a convolution may take


@dataclass(frozen=True)
class ContourSpec:
    c: float
    t_max: float
    n_points: int

    def __post_init__(self):
        if self.t_max <= 0:
            raise ConstraintError("t_max must be positive")
        if self.n_points < 64:
            raise ConstraintError("n_points must be at least 64")


def _check_sums(total, mag, tail, n_points, real=True):
    """Raise unless every renormalized contour sum in `total` can be
    trusted, and return its summed part.

    mag = sum |terms| and tail = the part of it from |t| > 0.9 t_max are
    one band's floats, shared by all its sums.  With `real`, the sums
    must also be real up to roundoff (a symmetric integrand), and the
    summed part is their real part; otherwise it is the complex sum.
    """
    total = np.atleast_1d(total)
    if mag > 0 and tail > 1e-10 * mag:
        raise TruncationError(
            f"contour tail contributes {tail / mag:.2e} of the integral; "
            "increase t_max")
    if np.any(np.abs(total) < _CANCEL_FLOOR * mag):
        raise TruncationError(
            "contour sum cancels below the noise floor; shift the abscissa "
            "toward the saddle point")
    if not real:
        return total
    roundoff = 10.0 * np.finfo(float).eps * mag * np.sqrt(n_points)
    im = np.abs(total.imag)
    skewed = (im > 1e-9 * np.abs(total)) & (im > roundoff)
    if np.any(skewed):
        i = int(np.argmax(skewed))
        raise ConvergenceError(
            f"contour sum asymmetry: Im/|sum| = {im[i] / abs(total[i]):.2e}")
    return total.real


def inverse_mellin_log(symbol, x, spec: ContourSpec):
    """(log |value|, sign) of (1/2 pi) int exp(symbol(c+it) - (c+it) ln x) dt.

    One trapezoid sum on the grid of `spec`; symbol maps a complex array s
    to log-values of the transform.
    """
    _check_x(x)
    t = np.linspace(-spec.t_max, spec.t_max, spec.n_points)
    w = np.full(spec.n_points, t[1] - t[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    s = spec.c + 1j * t
    lw = symbol(s) - s * np.log(x)
    m = float(np.max(lw.real))
    terms = np.exp(lw - m) * w
    total = np.sum(terms)
    mag = float(np.sum(np.abs(terms)))
    tail = float(np.sum(np.abs(terms[np.abs(t) > 0.9 * spec.t_max])))
    _check_sums(total, mag, tail, spec.n_points)
    value = total.real / (2.0 * np.pi)
    return m + np.log(abs(value)), float(np.sign(value))


def _phase_resolved_points(seq, s0, t_max):
    """Points resolving the net phase on s0 + i[-t_max, t_max] (s0 real or
    complex), a count that reads no knot.

    s0 is a saddle: Re phi'(s0) = ln x, so the symbol's phase rate and the
    knot's e^{-i t ln x} cancel there (stationary phase), and the
    integrand's phase rate at s0 + i tau is Re[phi'(s0 + i tau) - phi'(s0)],
    about A ln|1 + i tau / s0| <= A ln(1 + tau / |s0|) since psi(z) ~ ln z.
    The count keeps a margin of 2 per unit of A on that rate (12 A t_max
    nodes), for psi's departure from ln near the poles and against
    aliasing: a trapezoid sum of step h folds the integrand's content at
    frequency 2 pi / h onto the answer, and the nested stop test starts
    on a sixteenth of this grid.  The margin also gives the far tail
    enough nodes to average the rounding of Im phi (eps |phi| a node)
    below _RTOL: without it tm2:r=1 fails to converge at ln x = 32.8 and
    33.5.  Further out, where that rounding exceeds _RTOL, the stop test
    rises to it (`_band_sums`).
    """
    phase_rate = seq.sum_a * (np.log1p(t_max / max(abs(s0), 1.0)) + 2.0)
    return _power_of_two(max(512.0, 6.0 * t_max * phase_rate))


def _power_of_two(n):
    """The least power of two >= int(n), for a float n (inf as the largest)."""
    return 1 << (int(min(n, sys.float_info.max)) - 1).bit_length()


def _saddles(seq, log_x):
    """Real saddles of exp(symbol(s) - s ln x) for every ln x: roots of
    sum_j a_j psi(a_j(s-1)+b_j) = ln x, each clamped to 1e-8 right of the
    rightmost pole p: every contour's one clearance from it, which knots
    far left of the origin take.

    The left side is increasing and concave in y = ln(s - p): about
    R - m/(s - p) near the pole (m factors hold it) and A ln(s - 1) +
    sum_j a_j ln a_j far from it.  Newton's method in y starts from the
    nearer of those two roots and is kept inside a bracket that each
    step narrows; a root past s - p = 1e12 is refused."""
    pole = seq.rightmost_pole
    if not pole + 1e-9 > pole:
        raise ConvergenceError(f"no double lies 1e-9 right of pole {pole:g}")
    a, b, mult = _factor_columns(seq)
    holds = a * (pole - 1.0) + b <= 1e-12 * a  # factors with a pole at p
    m = float(mult[holds].sum())
    scale = a[:, None]
    shift = np.where(holds, 0.0, a * (pole - 1.0) + b)[:, None]
    weight = (mult * a)[:, None]

    def level(y, lx):
        """The left side minus ln x at s = p + e^y; one digamma call
        takes every factor at once."""
        return (weight * digamma(scale * np.exp(y) + shift)).sum(axis=0) - lx

    def slope(y):
        """Its derivative in y."""
        return ((weight * scale * polygamma(1, scale * np.exp(y) + shift))
                .sum(axis=0) * np.exp(y))

    # psi(eps) = -1/eps - gamma + O(eps), and psi(1) = -gamma
    rest = float((weight[~holds, 0] * digamma(shift[~holds, 0])).sum()
                 + digamma(1.0) * weight[holds, 0].sum())
    with np.errstate(divide="ignore", over="ignore"):
        far = np.exp((log_x - float((weight * np.log(scale)).sum()))
                     / seq.sum_a) + 1.0 - pole
        near = np.where(rest > log_x, m / (rest - log_x), np.inf)
    lo = np.full(log_x.shape, math.log(1e-9))
    hi = np.full(log_x.shape, math.log(1e12))
    y = np.clip(np.log(np.minimum(near, far)), lo, hi)
    ends = level(np.concatenate((lo, hi)), np.concatenate((log_x, log_x)))
    short = ends[y.size:] < 0
    if np.any(short):
        raise ConvergenceError("saddle search failed to bracket ln x = "
                               f"{float(np.max(log_x[short])):.6g}")
    y[ends[:y.size] >= 0] = math.log(1e-9)  # left of 1e-9: clamped below
    # each saddle stops on its own, and digamma and polygamma evaluate
    # each point on its own, so a saddle has the same bits whichever
    # other knots share the call
    active = np.flatnonzero(ends[:y.size] < 0)
    for _ in range(100):
        if not active.size:
            return np.maximum(pole + np.exp(y), pole + 1e-8)
        ya, la, ha = y[active], lo[active], hi[active]
        f = level(ya, log_x[active])
        below = f < 0
        la, ha = np.where(below, ya, la), np.where(below, ha, ya)
        step = f / slope(ya)
        newton = (ya - step >= la) & (ya - step <= ha)
        new = np.where(newton, ya - step, 0.5 * (la + ha))
        y[active], lo[active], hi[active] = new, la, ha
        # the Newton step bounds the error of a converged iterate
        done = (newton & (np.abs(step) <= 1e-12)) | (ha - la <= 1e-11)
        active = active[~done]
    raise ConvergenceError("saddle search did not converge")


def _complex_saddles(seq, target, s):
    """Newton from s for sum_j a_j psi(a_j(s-1)+b_j) = target, per element.

    The derivative is a central difference of the digamma; one digamma
    call takes every factor at s and s +- h.  Steps are halved to stay
    right of the rightmost pole.
    """
    pole = seq.rightmost_pole
    a, b, mult = (v[:, None, None] for v in _factor_columns(seq))

    s = np.array(s, dtype=np.complex128)
    active = np.arange(s.size)
    for _ in range(100):
        z = s[active]
        h = 1e-5 * (z.real - pole)
        at, up, down = (mult * (a * digamma(
            a * (np.stack((z, z + h, z - h)) - 1.0) + b))).sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):  # tested below
            step = (at - target[active]) * (2.0 * h) / (up - down)
        if not np.all(np.isfinite(step)):
            break
        while True:
            left = z.real - step.real <= pole
            if not np.any(left):
                break
            step[left] *= 0.5
        s[active] = z - step
        active = active[np.abs(step) > 1e-12 * np.abs(z)]
        if not active.size:
            return s
    raise ConvergenceError("complex saddle search did not converge")


def adapted_contour(seq: MomentSequence, x: float) -> ContourSpec:
    """Saddle-shifted contour: cancellation-free even deep in the tail."""
    _check_x(x)
    c = float(_saddles(seq, np.log([x]))[0])
    return _saddle_contour(seq, c)


def _line_symbol(seq, psi, s):
    """phi(s) + i psi s, the log-integrand without its e^{-s L} factor."""
    phi = mellin_symbol(seq, s)
    return phi + 1j * psi * s if psi else phi


def _saddle_contour(seq, c, psi=0.0, t0=0.0):
    """Contour at the saddle c + i t0 of phi(s) + i psi s - s ln x; its
    grid depends on the contour alone, not on ln x.

    The t-window is centred on t0; its half-width t_max passes the drop
    test on both sides.  The node count is the larger of two: the net
    phase across the window (_phase_resolved_points; the knot's phase
    cancels the symbol's at the saddle) and the peak's width, about
    1/sqrt(phi''), which near a pole is narrow.  A band knot off the
    centre adds the phase rate ln x_k - ln x_c, which the band-loss bound
    keeps near sqrt(2 _BAND_LOSS phi''), well inside the peak's count.
    """
    a, b, mult = _factor_columns(seq)
    curvature = float((mult * a * a * polygamma(1, a * (c - 1.0) + b)).sum())
    t_gauss = np.sqrt(2.0 * _LOG_DROP / max(curvature, 1e-300))
    t_linear = _LOG_DROP / (0.5 * np.pi * seq.sum_a)
    t_max = t_gauss + t_linear

    centre = complex(c, t0)
    peak = _line_symbol(seq, psi, centre)
    sides = np.array([1.0, -1.0])

    def drop(t):
        return float(np.max((_line_symbol(seq, psi, c + 1j * (t0 + sides * t))
                             - peak).real))

    while drop(t_max) > -(_LOG_DROP - 4.0):
        t_max *= 1.5
    n = _phase_resolved_points(seq, centre, t_max)
    # near a pole the peak is narrow (width ~ 1/sqrt(phi'')); resolve it
    n = max(n, _power_of_two(12.0 * t_max * np.sqrt(curvature)))
    return ContourSpec(c, t_max, n)


def contour_log_density(seq: MomentSequence, x: float):
    """(log W(x), sign) for the principal density, by self-converging contour."""
    _check_x(x)
    log_w, sign = contour_log_densities(seq, np.log([x]))
    return float(log_w[0]), float(sign[0])


def contour_log_densities(seq: MomentSequence, log_x):
    """(log W, sign) arrays of the principal density at every x = e^{log_x}.

    A knot that the residue series certifies takes the series.  Every
    other knot is accepted once two successive nested grids agree to
    _RTOL of W, or to the rounding of its band's symbol where that is
    larger; the finest grid has max(_MAX_POINTS, 4 n) intervals, n
    being the band's phase-resolved point count.  A band whose coarsest
    grid (n / 16 intervals) would exceed _MAX_POINTS raises
    ConvergenceError before its symbol is evaluated.  A density
    that sums to a non-positive value at some knot raises TruncationError,
    so the returned sign is always +1.  Where ln W rounds past -1.8e308
    (far left of the origin, when the leading pole p0 < 0 makes
    ln W ~ -p0 ln x), it is -inf: W = 0.0, as W underflows to 0.0 in
    linear x.
    """
    log_w, sign = _log_values(*_contour_sums(seq, log_x, 0.0))
    if np.any(sign <= 0):
        v = float(np.min(np.atleast_1d(log_x)[sign <= 0]))
        raise TruncationError(
            f"principal density of {seq.descriptor()} evaluated negative "
            f"at ln x = {v:.3f}; contour resolution insufficient")
    return log_w, sign


def _contour_sums(seq, log_x, psi):
    """Contour sums at every L in log_x: the residue series at every knot
    it certifies, band-shared sums at the rest.

    Returns (scale, total) with
    e^scale * total / 2 pi = (1/2 pi) int exp(phi(s) + i psi s - s L) dt
    along a vertical line s = c + it, phi = mellin_symbol(seq).  psi = 0
    is the principal density (bisection saddle, real sums); otherwise the
    sums are complex and each band is centred on a complex saddle.  A band
    knot is accepted once its summed part moves by at most max(_RTOL,
    64 eps max|phi|) of itself between nested grids.  Both arrays have
    the shape of log_x, at least one-dimensional.
    """
    lx = np.atleast_1d(_check_log_x(log_x))
    shape, lx = lx.shape, lx.ravel()
    scale, total, ok = _residue_sums(seq, lx, psi)
    if not np.all(ok):
        scale[~ok], total[~ok] = _banded_sums(seq, lx[~ok], psi)
    return scale.reshape(shape), total.reshape(shape)


def _banded_sums(seq, lx, psi):
    """_contour_sums by saddle bands, for a flat array of knots lx."""
    c_star = _saddles(seq, lx)
    s_star = (_complex_saddles(seq, lx - 1j * psi, c_star) if psi
              else c_star + 0j)
    # real log-integrand at each knot's saddle, without its -Re(s) L part
    f_star = _line_symbol(seq, psi, s_star).real
    scale = np.empty_like(lx)
    total = np.empty(lx.shape, dtype=np.complex128)
    order = np.argsort(lx, kind="stable")
    for band in _bands(lx[order], s_star.real[order], f_star[order]):
        idx = order[band]
        centre = s_star[order[(band.start + band.stop - 1) // 2]]
        scale[idx], total[idx] = _band_sums(seq, psi, centre, lx[idx])
    return scale, total


def _bands(lx, c_star, phi_star):
    """Slices of consecutive (sorted) knots that can share one abscissa.

    phi_star is the real log-integrand at each knot's saddle s*_k
    (c*_k = Re s*_k), less its -c*_k ln x_k part.  Along a vertical line
    the modulus of e^{-s ln x} does not depend on t, so a band at the
    middle knot's saddle costs knot k the off-saddle loss
    [phi(c) - c ln x_k] - [phi(c*_k) - c*_k ln x_k] >= 0 (nats) of its
    sum's digits, and phi(c) is known.  That loss is convex in ln x_k (an
    affine function less a Legendre transform) and zero at the middle
    knot, so a band's largest loss is at one of its two ends, and every
    candidate stop is tested at once.
    """
    own_peak = phi_star - c_star * lx
    start = 0
    while start < lx.size:
        ends = np.arange(start + 1, lx.size)  # last member of each candidate
        mid = (start + ends) // 2
        base = phi_star[mid] - c_star[mid] * lx[start] - own_peak[start]
        tip = phi_star[mid] - c_star[mid] * lx[ends] - own_peak[ends]
        fits = np.append(np.maximum(base, tip) <= _BAND_LOSS, False)
        stop = start + 1 + int(np.argmin(fits))  # the first band that fails
        yield slice(start, stop)
        start = stop


def _band_sums(seq, psi, centre, lx):
    """Self-converging nested trapezoid sums for the knots lx around centre.

    The nodes are centre + i tau, tau on [-t_max, t_max]; the phase
    e^{-i Im(centre) lx} common to a knot's terms is applied at the end.
    """
    c, t0 = centre.real, centre.imag
    spec = _saddle_contour(seq, c, psi, t0)
    n = max(64, spec.n_points // 16)  # intervals of the coarsest grid
    if n > _MAX_POINTS:
        raise ConvergenceError(
            f"contour at ln x = {float(lx[np.argmax(np.abs(lx))]):.6g} needs "
            f"a coarsest grid of {n:.6g} intervals, "
            f"more than max_points={_MAX_POINTS}")
    cap = max(_MAX_POINTS, 4 * spec.n_points)
    h = 2.0 * spec.t_max / n
    tau = -spec.t_max + h * np.arange(n + 1)
    phi = _line_symbol(seq, psi, centre + 1j * tau)
    # each node's phase Im phi is rounded to about eps |phi|, so in the
    # far tail two grids cannot agree closer than that; the stop test
    # takes the larger of _RTOL and that rounding
    rtol = max(_RTOL, 64.0 * np.finfo(float).eps * float(np.max(np.abs(phi))))
    m = float(np.max(phi.real))
    v = np.exp(phi - m)
    v[0] *= 0.5
    v[-1] *= 0.5
    # |x^{-(c+it)}| = x^-c for every t, so mag and tail serve the whole band
    edge = np.abs(tau) > 0.9 * spec.t_max
    mag = h * float(np.sum(np.abs(v)))
    tail = h * float(np.sum(np.abs(v[edge])))
    real = not psi
    scale = m - c * lx
    total = h * _phase_sum(-spec.t_max, h, v, lx)
    out = _check_sums(total, mag, tail, n + 1, real)
    active = np.arange(lx.size)
    while active.size:
        if 2 * n > cap:
            raise ConvergenceError(
                f"contour sum did not converge below {rtol:.3g} at ln x = "
                f"{float(lx[active[0]]):.6g}")
        # the refined grid keeps every node and adds the midpoints
        n *= 2
        h *= 0.5
        start = -spec.t_max + h
        tau = start + 2.0 * h * np.arange(n // 2)
        v = np.exp(_line_symbol(seq, psi, centre + 1j * tau) - m)
        edge = np.abs(tau) > 0.9 * spec.t_max
        mag = 0.5 * mag + h * float(np.sum(np.abs(v)))
        tail = 0.5 * tail + h * float(np.sum(np.abs(v[edge])))
        total = 0.5 * total + h * _phase_sum(start, 2.0 * h, v, lx[active])
        part = _check_sums(total, mag, tail, n + 1, real)
        # a knot is done once its summed part moved by at most rtol of itself
        done = np.abs(part - out[active]) <= rtol * np.abs(part)
        out[active] = part
        active, total = active[~done], total[~done]
    return scale, out * np.exp(-1j * t0 * lx)


def _phase_sum(t0, d, v, lx):
    """sum_j v_j e^{-i (t0 + j d) lx_k} for every k, by baby and giant steps.

    With b = ceil(sqrt(n)) and j = p b + q, the phase factors into a giant
    step e^{-i (t0 + p b d) lx} and a baby step e^{-i q d lx}: a knot costs
    about 2 sqrt(n) exponentials, and the sum over q is an einsum
    contraction.  einsum at its default optimize=False runs NumPy's own
    loops, where a matrix product (or optimize=True, through tensordot)
    would call BLAS and make the process pay OpenBLAS's start-up memory.
    The giant-step nodes t0 + d (p b) are computed as the caller's nodes
    t0 + d j are.  Knots are taken in chunks whose matrices hold at most
    _BLOCK entries each.
    """
    n = v.size
    b = math.isqrt(n - 1) + 1
    rows = -(-n // b)
    grid = np.zeros(rows * b, dtype=np.complex128)
    grid[:n] = v
    grid = grid.reshape(rows, b).T  # grid[q, p] = v[p b + q]
    giant = -(t0 + d * (b * np.arange(rows)))
    baby = -(d * np.arange(b))
    out = np.empty(lx.size, dtype=np.complex128)
    step = max(1, _BLOCK // b)
    for k in range(0, lx.size, step):
        chunk = lx[k:k + step]
        # one expression, so at most two matrices are alive at once
        out[k:k + step] = np.einsum(
            "kp,kp->k", np.einsum("kq,qp->kp", _unit_phases(chunk, baby), grid),
            _unit_phases(chunk, giant))
    return out


def _unit_phases(lx, freqs):
    """e^{i lx_k freqs_j} as a (k, j) matrix.

    cos and sin are written into the halves of one complex matrix: a
    complex outer product would allocate a second, same-sized temporary.
    """
    theta = np.multiply.outer(lx, freqs)
    phases = np.empty(theta.shape, dtype=np.complex128)
    np.cos(theta, out=phases.real)
    np.sin(theta, out=phases.imag)
    return phases


def _log_values(scale, total):
    value = total.real / (2.0 * np.pi)
    return scale + np.log(np.abs(value)), np.sign(value)


# ---------------------------------------------------------------------------
# The residue series, which answers for every knot it certifies


@functools.lru_cache(maxsize=16)
def _residue_poles(seq):
    """The poles of rho(s-1) that the residue series may use, rightmost first.

    Returns (p, log_k, sign_k, coef): pole p[i] of order m contributes
    sign_k[i] e^{log_k[i]} z^{-p[i]} sum_j coef[i, j] w^j / j! to the sum,
    with w = -ln z, z = e^{L - i psi}; coef[i, j] is the coefficient of
    eps^{m-1-j} in eps^m rho(p[i] - 1 + eps), and each row is zero past j = m - 1.
    Each factor Gamma(a(s-1) + b) has poles at s = 1 - (b + l)/a; the
    list covers those within _POLE_SPAN / min(1, min a) of the rightmost (at most
    _MAX_POLE_INDEX + 1 per factor), poles at the same double merge, and
    it ends at the first of two poles closer than _POLE_GAP: the series
    uses the poles before the last one and tests the last as omitted.
    """
    groups = list(_grouped_factors(seq))
    # a factor's poles are 1/a apart, so a small a widens the span
    floor = seq.rightmost_pole - _POLE_SPAN / min(1.0, min(a for a, _ in seq.factors))
    counts = [min(int(a * (1.0 - floor) - b) + 1, _MAX_POLE_INDEX + 1)
              for (a, b), _ in groups]
    for ((a, b), _), count in zip(groups, counts):
        if count == _MAX_POLE_INDEX + 1:  # the list is complete above it
            floor = max(floor, 1.0 - (b + _MAX_POLE_INDEX) / a)
    singular = {}  # pole -> {group: l}
    for g, ((a, b), _) in enumerate(groups):
        for l in range(counts[g]):
            p = 1.0 - (b + l) / a
            if p >= floor:
                singular.setdefault(p, {})[g] = l
    poles = sorted(singular, reverse=True)
    gaps = np.diff(poles) > -_POLE_GAP
    if np.any(gaps):
        poles = poles[:int(np.argmax(gaps)) + 1]
    orders = [sum(groups[g][1] for g in singular[p]) for p in poles]
    top = max(orders)
    # special values for every pole at once: Riemann zeta(k), k >= 2, and
    # psi^(j)(u) at each factor that is regular there, in loop order
    zeta = np.concatenate(([0.0, 0.0], hurwitz_zeta(np.arange(2, max(top, 2)),
                                                      1.0)))
    regular = [(j, a * (p - 1.0) + b)
               for p, order in zip(poles, orders)
               for g, ((a, b), _) in enumerate(groups) if g not in singular[p]
               for j in range(order - 1)]
    psis = iter(polygamma(*np.array(regular).T) if regular else ())
    euler = -digamma(1.0)
    log_k, sign_k, rows = [], [], []
    for p, order in zip(poles, orders):
        d = np.zeros(order)  # d[k]: coefficient of eps^k in ln(eps^m rho)
        lk, sk = 0.0, 1.0
        ks = np.arange(1, order)
        for g, ((a, b), mult) in enumerate(groups):
            powers = a ** np.arange(order)
            c = np.zeros(order)
            if g in singular[p]:
                # eps Gamma(-l + a eps) = (-1)^l / (l! a) exp(sum_k c_k (a eps)^k)
                # with c_1 = psi(l + 1) = H_l - gamma and, for k >= 2,
                # c_k = ((-1)^k zeta(k) + H_l^(k)) / k, H_l^(k) = sum_{j<=l} j^-k
                l = singular[p][g]
                lk -= mult * (math.lgamma(l + 1) + math.log(a))
                sk *= (-1.0) ** (l * mult)
                harmonic = (np.arange(1.0, l + 1.0) ** -ks[:, None]).sum(axis=1)
                c[1:] = ((-1.0) ** ks * zeta[ks] + harmonic) / ks
                c[1:2] -= euler
            else:
                # u is on a pole of Gamma only at a test pole that rounding
                u = a * (p - 1.0) + b  # split from one: |Gamma(u)| = inf
                log_gamma = float(_ln_gamma_real(np.array(u)))
                if u > 0.0 and log_gamma == math.inf:
                    raise DomainError(
                        f"ln Gamma({u:.6g}) of the factor Gamma({a:g}n + "
                        f"{b:g}) is past the double range")
                lk += mult * log_gamma
                # Gamma(u) < 0 on (-2j - 1, -2j) and > 0 elsewhere off its poles
                sk *= (1.0 if u > 0.0 else (-1.0) ** math.ceil(-u)) ** mult
                c[1:] = ([next(psis) for _ in ks]
                         / np.array([math.factorial(k) for k in ks]))
            d += mult * c * powers
        e = np.zeros(order)  # e[n]: coefficient of eps^n in exp(d)
        e[0] = 1.0
        for n in range(1, order):
            e[n] = sum(k * d[k] * e[n - k] for k in range(1, n + 1)) / n
        log_k.append(lk)
        sign_k.append(sk)
        rows.append(e[::-1])
    width = max(row.size for row in rows)
    coef = np.array([np.pad(row, (0, width - row.size)) for row in rows])
    return np.array(poles), np.array(log_k), np.array(sign_k), coef


def _residue_sums(seq, lx, psi):
    """(scale, total, ok) of the contour sums at L = lx by their residue series.

    Left of the contour the Mellin-Barnes integral is the sum of the
    residues of rho(s-1) e^{-s(L - i psi)} at the poles of _residue_poles,
    each z^{-p} times a polynomial in ln z.  Poles are added until the
    bound sum_j |coef_j w^j / j!| on the first omitted one's term is
    below _SERIES_TOL of the sum.  ok is False for a knot whose test never
    stops, whose |sum| or bound is not finite, or whose sum keeps less than
    _SERIES_MARGIN of its terms' bound; such knots take the band sums.
    scale and total are in _contour_sums's form; every operation is
    elementwise, so a knot's value does not depend on the other knots.
    """
    p, log_k, sign_k, coef = _residue_poles(seq)
    top = [int(np.flatnonzero(row)[-1]) for row in coef]  # each pole's m - 1
    w = 1j * psi - lx
    total = np.zeros(lx.shape, dtype=np.complex128)
    bound = np.zeros(lx.shape)
    ok = np.zeros(lx.shape, dtype=bool)
    active = np.arange(lx.size)
    with np.errstate(under="ignore", over="ignore", invalid="ignore"):
        # where a power of w could overflow, w = u 2^e with |u| < 1, and
        # pole i's powers are taken relative to 2^{e top[i]}, a factor its
        # rel and the scale carry in nats; elsewhere e = 0 changes no value,
        # and a call with no such knot takes e as the scalar 0
        e = np.frexp(np.abs(w))[1]
        e[e * (coef.shape[1] - 1) <= _POWER_EXP] = 0
        e = e if e.any() else 0
        nats = np.broadcast_to(e * math.log(2.0), lx.shape)
        u = w * np.ldexp(1.0, -e)
        powers = {t: [u ** j / math.factorial(j) * np.ldexp(1.0, (j - t) * e)
                      for j in range(t + 1)] for t in set(top)}
        for i in range(p.size):
            # |term| relative to the leading pole's K z^{-p}, and its bound
            rel = np.exp(log_k[i] - log_k[0] - (p[i] - p[0]) * lx[active]
                         + (top[i] - top[0]) * nats[active])
            size = rel * sum(abs(c) * np.abs(v[active])
                             for c, v in zip(coef[i], powers[top[i]]) if c)
            if i:
                done = size <= _SERIES_TOL * np.abs(total[active])
                ok[active[done]] = True
                active, rel, size = active[~done], rel[~done], size[~done]
                if not active.size:
                    break
            phase = sign_k[i] * (np.exp(1j * psi * p[i]) if psi else 1.0)
            total[active] += phase * rel * sum(
                c * v[active] for c, v in zip(coef[i], powers[top[i]]) if c)
            bound[active] += size
        modulus = np.abs(total)  # inf also where Re and Im are finite
        ok &= (np.isfinite(2.0 * np.pi * modulus) & np.isfinite(bound)
               & (modulus >= _SERIES_MARGIN * bound))
        return (log_k[0] - p[0] * lx + top[0] * nats, 2.0 * np.pi * total,
                ok)


# ---------------------------------------------------------------------------
# Mellin convolution, called only by the oracle routes


def _support_window(log_h, lo=-120.0, hi=120.0, n=1201, pad=3.0):
    """Window in u where the log-integrand is within _LOG_DROP of its max."""
    u = np.linspace(lo, hi, n)
    lh = log_h(u)
    if not np.any(np.isfinite(lh)):
        raise ConvergenceError("convolution integrand vanished everywhere")
    m = np.nanmax(lh)
    if m == np.inf:
        raise ConvergenceError("convolution integrand is unbounded")
    alive = np.nonzero(lh > m - _LOG_DROP)[0]
    return u[alive[0]] - pad, u[alive[-1]] + pad, m


def mellin_convolve_many(f, g, xs, log_f=None, log_g=None):
    """int_0^inf f(x/t) g(t) dt/t at every x in xs, by trapezoid doubling
    after t = e^u.

    f and g must accept numpy arrays.  A scalar x gives a float, an array
    x its shape.  When log_f/log_g are given, the support scan runs in log
    domain (needed when the factors underflow).
    Each value is accepted once two successive nested grids agree to
    _CONVOLVE_RTOL (plus a roundoff floor), within _CONVOLVE_DEPTH grids.
    """
    xs = _check_x(xs)
    shape, xs = xs.shape, xs.ravel()
    out = np.empty_like(xs)
    order = np.argsort(xs)
    sorted_xs = xs[order]
    # chunks share one u-window, so keep each one narrow in ln x
    lx = np.log(sorted_xs)
    start = 0
    while start < xs.size:
        stop = start + 1
        while (stop < xs.size and stop - start < 256
               and lx[stop] - lx[start] <= 4.0):
            stop += 1
        idx = order[start:stop]
        out[idx] = _convolve_chunk(f, g, sorted_xs[start:stop], log_f, log_g)
        start = stop
    return float(out[0]) if not shape else out.reshape(shape)


def _convolve_chunk(f, g, xs, log_f, log_g):
    lf = log_f if log_f is not None else _log_abs_wrap(f)
    lg = log_g if log_g is not None else _log_abs_wrap(g)

    probes = np.exp(np.linspace(np.log(xs.min()), np.log(xs.max()), 7))

    def log_h(u):
        # upper envelope over the chunk; fixes a common u-window
        t = np.exp(u)
        vals = np.full(u.shape, -np.inf)
        for x in probes:
            with np.errstate(over="ignore", under="ignore", divide="ignore",
                             invalid="ignore"):
                vals = np.maximum(vals, lf(x / t) + lg(t))
        return vals

    u_lo, u_hi, _ = _support_window(log_h)
    n = 257
    prev = None
    prev_abs = None
    for _ in range(_CONVOLVE_DEPTH):
        if xs.size * n > 50_000_000:
            raise ConvergenceError(
                "mellin convolution grid exceeded the memory budget before "
                f"reaching rtol={_CONVOLVE_RTOL}")
        u = np.linspace(u_lo, u_hi, n)
        t = np.exp(u)
        with np.errstate(under="ignore"):
            h = f(xs[:, None] / t[None, :]) * g(t)[None, :]
        w = np.full(n, u[1] - u[0])
        w[0] *= 0.5
        w[-1] *= 0.5
        vals = h @ w
        abs_vals = np.abs(h) @ w
        if prev is not None:
            err = np.abs(vals - prev)
            # near zero crossings |vals| << abs_vals; roundoff on the
            # cancelling sum caps the achievable absolute accuracy there
            floor = 1e-12 * np.maximum(abs_vals, prev_abs)
            if np.all(err <= _CONVOLVE_RTOL * np.abs(vals) + floor):
                return vals
        prev, prev_abs = vals, abs_vals
        n = 2 * (n - 1) + 1
    raise ConvergenceError(
        f"mellin convolution failed to reach rtol={_CONVOLVE_RTOL} after "
        f"{_CONVOLVE_DEPTH} levels")


def _log_abs_wrap(func):
    def log_abs(v):
        with np.errstate(divide="ignore", over="ignore", under="ignore"):
            return np.log(np.abs(func(v)))
    return log_abs
