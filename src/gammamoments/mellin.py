"""Vertical-contour inverse Mellin transforms, and Mellin convolution as
an oracle.

Everything on the contour is done in log domain: the symbol returns
log-values, the quadrature renormalizes by the peak magnitude, so gamma
products with huge arguments never overflow.  For tail evaluation the
abscissa is shifted to the real saddle point of the integrand, which keeps
the oscillatory sum cancellation-free at any x.

Densities are evaluated by one engine, `contour_log_densities`, on an
array of ln x values.  The symbol does not depend on x, and on a fixed
vertical line c + it the x-dependence is the factor x^-c e^{-it ln x}, so
one set of symbol values serves many knots: neighbouring knots are grouped
into bands that share the saddle abscissa of the band's middle knot (each
member loses at most about one digit to off-saddle cancellation).  A
band's nodes are uniform, t_j = t0 + j d, so its phase sum factors into
baby and giant steps: e^{-i t_j ln x} costs about 2 sqrt(n) exponentials
per knot, and the rest is one matrix product.  The trapezoid grids are
nested (2^k + 1 nodes), so a refinement evaluates the symbol only at the
new midpoints.  `contour_log_density` is the one-knot case.  This engine
is the package's only contour route: `inverse_mellin_log` on an
`adapted_contour` is a fixed, unbanded trapezoid sum kept as the
reference the tests compare the engine against.

The same engine serves perturbations whose transform is a density symbol
phi(s) times e^{i psi s}: it returns the complex sums
(1/2 pi) int exp(phi(s) + i psi s - s L) dt, centred on the complex
saddle of each band (see `classes._log_omega3`).

A Mellin convolution of two principal densities needs no integral: its
transform rho_a(s-1) rho_b(s-1) is the symbol of the product sequence,
so the CLI's `convolve` evaluates that sequence's density with the
engine.  `mellin_convolve_many` integrates f(x/t) g(t) dt/t directly;
its one caller is `classes.omega2_via_convolution`, the reference the
benchmark checks omega2 against.  The tests check the engine against
mpmath's Meijer G (tests/oracles.py), which shares none of its method.

Every entry checks its x (or ln x) once, on entry: an x outside
(0, inf) or a non-finite ln x raises DomainError.  The engine and the
convolution flatten x and return arrays of its shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConstraintError, ConvergenceError, TruncationError,
                     _check_log_x, _check_x)
from .moments import MomentSequence, _grouped_factors, mellin_symbol

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
_BLOCK = 1 << 17  # complex entries per matrix of a phase-sum chunk of knots
_RTOL = 1e-10  # change in ln W between nested grids that settles a density
_MAX_POINTS = 1 << 17  # cap on a band's coarsest grid, floor of its finest
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
    """Raise unless every renormalized contour sum in `total` can be trusted.

    mag = sum |terms| and tail = the part of it from |t| > 0.9 t_max, each
    a scalar shared by all sums or one value per sum.  With `real`, the
    sums must also be real up to roundoff (a symmetric integrand).
    """
    total = np.atleast_1d(total)
    mag = np.broadcast_to(mag, total.shape)
    tail = np.broadcast_to(tail, total.shape)
    truncated = (mag > 0) & (tail > 1e-10 * mag)
    if np.any(truncated):
        i = int(np.argmax(truncated))
        raise TruncationError(
            f"contour tail contributes {tail[i] / mag[i]:.2e} of the integral; "
            "increase t_max")
    if np.any(np.abs(total) < _CANCEL_FLOOR * mag):
        raise TruncationError(
            "contour sum cancels below the noise floor; shift the abscissa "
            "toward the saddle point")
    if not real:
        return
    roundoff = 10.0 * np.finfo(float).eps * mag * np.sqrt(n_points)
    im = np.abs(total.imag)
    skewed = (im > 1e-9 * np.abs(total)) & (im > roundoff)
    if np.any(skewed):
        i = int(np.argmax(skewed))
        raise ConvergenceError(
            f"contour sum asymmetry: Im/|sum| = {im[i] / abs(total[i]):.2e}")


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


def _phase_resolved_points(seq, s0, t_max, log_x):
    """Points resolving the phase on s0 + i[-t_max, t_max] (s0 real or complex)."""
    phase_rate = sum(a * (np.log1p(abs(a) * (abs(s0) + t_max)) + 2.0)
                     for a, _ in seq.factors) + abs(log_x)
    n = int(max(512, 6.0 * t_max * phase_rate))
    return 1 << int(np.ceil(np.log2(n)))


def _saddles(seq, log_x):
    """Real saddles of exp(symbol(s) - s ln x) for every ln x, by bisection
    on sum_j a_j psi(a_j(s-1)+b_j) = ln x (the left side is increasing)."""
    import scipy.special as sps

    pole = seq.rightmost_pole
    groups = _grouped_factors(seq)

    def deriv(c):
        return sum(mult * (a * sps.digamma(a * (c - 1.0) + b))
                   for (a, b), mult in groups) - log_x

    lo = np.full(log_x.shape, pole + 1e-9)
    hi = np.full(log_x.shape, pole + 1.0)
    while True:
        short = deriv(hi) < 0
        if not np.any(short):
            break
        hi[short] = pole + 2.0 * (hi[short] - pole)
        if np.any(hi > 1e12):
            raise ConvergenceError(
                "saddle search failed to bracket ln x = "
                f"{float(np.max(log_x[short])):.6g}")
    at_pole = deriv(lo) > 0
    while True:
        # each bracket stops on its own, so a saddle does not depend on
        # which other knots share the call
        wide = hi - lo > 1e-10 + 1e-12 * np.abs(hi)
        if not np.any(wide):
            return np.where(at_pole, lo, 0.5 * (lo + hi))
        mid = 0.5 * (lo + hi)
        below = deriv(mid) < 0
        lo = np.where(wide & below, mid, lo)
        hi = np.where(wide & ~below, mid, hi)


def _digamma(z):
    """Complex digamma via psi(z) = psi(z + 8) - sum_{j<8} 1/(z + j).

    SciPy's complex digamma takes ~8 us a point for |z| < 3 (0.3 us from
    |z| = 8 on), and saddles near the pole have such arguments.
    """
    import scipy.special as sps

    return sps.digamma(z + 8.0) - sum(1.0 / (z + j) for j in range(8))


def _complex_saddles(seq, target, s):
    """Newton from s for sum_j a_j psi(a_j(s-1)+b_j) = target, per element.

    SciPy has no complex trigamma, so the derivative is a central
    difference of the digamma.  Steps are halved to stay right of the
    rightmost pole.
    """
    pole = seq.rightmost_pole
    groups = _grouped_factors(seq)

    def deriv(z):
        return sum(mult * (a * _digamma(a * (z - 1.0) + b))
                   for (a, b), mult in groups)

    s = np.array(s, dtype=np.complex128)
    active = np.arange(s.size)
    for _ in range(100):
        z = s[active]
        h = 1e-5 * (z.real - pole)
        step = (deriv(z) - target[active]) * (2.0 * h) / (deriv(z + h) - deriv(z - h))
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
    c = max(float(_saddles(seq, np.log([x]))[0]), seq.rightmost_pole + 1e-8)
    return _saddle_contour(seq, c, np.log(x))


def _line_symbol(seq, psi, s):
    """phi(s) + i psi s, the log-integrand without its e^{-s L} factor."""
    phi = mellin_symbol(seq, s)
    return phi + 1j * psi * s if psi else phi


def _saddle_contour(seq, c, log_x, psi=0.0, t0=0.0):
    """Contour at abscissa c, resolving the phase of x = e^{log_x}.

    The t-window is centred on t0; its half-width t_max passes the drop
    test on both sides (one side suffices for a real, symmetric symbol).
    """
    import scipy.special as sps

    curvature = sum(mult * (a * a * sps.polygamma(1, a * (c - 1.0) + b))
                    for (a, b), mult in _grouped_factors(seq))
    t_gauss = np.sqrt(2.0 * _LOG_DROP / max(curvature, 1e-300))
    t_linear = _LOG_DROP / (0.5 * np.pi * seq.sum_a)
    t_max = t_gauss + t_linear

    centre = complex(c, t0)
    peak = _line_symbol(seq, psi, centre)
    sides = np.array([1.0, -1.0] if psi else [1.0])

    def drop(t):
        return float(np.max((_line_symbol(seq, psi, c + 1j * (t0 + sides * t))
                             - peak).real))

    while drop(t_max) > -(_LOG_DROP - 4.0):
        t_max *= 1.5
    n = _phase_resolved_points(seq, centre, t_max, log_x)
    # near a pole the peak is narrow (width ~ 1/sqrt(phi'')); resolve it
    n_peak = int(12.0 * t_max * np.sqrt(curvature))
    if n_peak > n:
        n = 1 << int(np.ceil(np.log2(n_peak)))
    return ContourSpec(c, t_max, n)


def contour_log_density(seq: MomentSequence, x: float):
    """(log W(x), sign) for the principal density, by self-converging contour."""
    _check_x(x)
    log_w, sign = contour_log_densities(seq, np.log([x]))
    return float(log_w[0]), float(sign[0])


def contour_log_densities(seq: MomentSequence, log_x):
    """(log W, sign) arrays of the principal density at every x = e^{log_x}.

    Each knot is accepted once two successive nested grids agree to _RTOL
    in log W with the same sign; the finest grid has max(_MAX_POINTS,
    4 n) intervals, n being the band's phase-resolved point count.  A
    band whose coarsest grid (n / 16 intervals) would exceed _MAX_POINTS
    raises ConvergenceError before its symbol is evaluated.  A density
    that sums to a non-positive value at some knot raises TruncationError,
    so the returned sign is always +1.
    """
    log_w, sign = _log_values(*_contour_sums(seq, log_x, 0.0, _RTOL))
    if np.any(sign <= 0):
        v = float(np.min(np.atleast_1d(log_x)[sign <= 0]))
        raise TruncationError(
            f"principal density of {seq.descriptor()} evaluated negative "
            f"at ln x = {v:.3f}; contour resolution insufficient")
    return log_w, sign


def _contour_sums(seq, log_x, psi, rtol):
    """Band-shared contour sums at every L in log_x.

    Returns (scale, total) with
    e^scale * total / 2 pi = (1/2 pi) int exp(phi(s) + i psi s - s L) dt
    along a vertical line s = c + it, phi = mellin_symbol(seq).  psi = 0
    is the principal density (bisection saddle, real sums, accepted on
    |delta log W| < rtol with the same sign); otherwise the sums are
    complex, each band is centred on a complex saddle, and a knot is
    accepted on |delta total| <= rtol |total|.  Both arrays have the shape
    of log_x, at least one-dimensional.
    """
    lx = np.atleast_1d(_check_log_x(log_x))
    shape, lx = lx.shape, lx.ravel()
    c_star = np.maximum(_saddles(seq, lx), seq.rightmost_pole + 1e-8)
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
        scale[idx], total[idx] = _band_sums(seq, psi, centre, lx[idx], rtol)
    return scale.reshape(shape), total.reshape(shape)


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


def _band_sums(seq, psi, centre, lx, rtol):
    """Self-converging nested trapezoid sums for the knots lx around centre.

    The nodes are centre + i tau, tau on [-t_max, t_max]; the phase
    e^{-i Im(centre) lx} common to a knot's terms is applied at the end.
    """
    c, t0 = centre.real, centre.imag
    spec = _saddle_contour(seq, c, float(np.max(np.abs(lx))), psi, t0)
    n = max(64, spec.n_points // 16)  # intervals of the coarsest grid
    if n > _MAX_POINTS:
        raise ConvergenceError(
            f"contour at ln x = {float(lx[np.argmax(np.abs(lx))]):.6g} needs "
            f"a coarsest grid of {n} intervals, "
            f"more than max_points={_MAX_POINTS}")
    cap = max(_MAX_POINTS, 4 * spec.n_points)
    h = 2.0 * spec.t_max / n
    tau = -spec.t_max + h * np.arange(n + 1)
    phi = _line_symbol(seq, psi, centre + 1j * tau)
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
    _check_sums(total, mag, tail, n + 1, real)
    out = total.copy()
    active = np.arange(lx.size)
    while active.size:
        if 2 * n > cap:
            raise ConvergenceError(
                f"contour sum did not converge below {rtol} at ln x = "
                f"{float(lx[active[0]]):.6g}"
                + (f" (psi={psi})" if psi else ""))
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
        _check_sums(total, mag, tail, n + 1, real)
        done = _settled(scale[active], out[active], total, rtol, real)
        out[active] = total
        active, total = active[~done], total[~done]
    if t0:
        out *= np.exp(-1j * t0 * lx)
    return scale, out


def _settled(scale, old, new, rtol, real):
    """Knots whose sum moved by less than rtol between two nested grids."""
    if not real:
        return np.abs(new - old) <= rtol * np.abs(new)
    log_old, sign_old = _log_values(scale, old)
    log_new, sign_new = _log_values(scale, new)
    return (sign_new == sign_old) & (np.abs(log_new - log_old) < rtol)


def _phase_sum(t0, d, v, lx):
    """sum_j v_j e^{-i (t0 + j d) lx_k} for every k, by baby and giant steps.

    With b = ceil(sqrt(n)) and j = p b + q, the phase factors into a giant
    step e^{-i (t0 + p b d) lx} and a baby step e^{-i q d lx}: a knot costs
    about 2 sqrt(n) exponentials, and the sum over q is one matrix product.
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
        out[k:k + step] = np.einsum("kp,kp->k", _unit_phases(chunk, baby) @ grid,
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

    f and g must accept numpy arrays.  When log_f/log_g are given, the
    support scan runs in log domain (needed when the factors underflow).
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
    return out.reshape(shape)


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
