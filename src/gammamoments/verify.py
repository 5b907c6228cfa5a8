"""Quadrature harness checking moments against their gamma-product targets.

Both checks take the same integral, int_0^inf x^n f(x) dx / rho(n), with
f = W for check_moment (target 1) and f = omega for check_vanishing
(target 0).  The substitution u = x^p (p the tail power) maps each
stretched-exponential density to an ~e^{-g u} integrand; one window, the
_WINDOW_DROP-nat range of the envelopes u^A e^{-g u} in v = ln u, and one
summation serve both.  The integrand is evaluated in units of rho(n) from
(sign f, ln |f|) at ln x = v / p, which densities and perturbations both
return, so neither x, x^{n+1} nor rho(n) is formed on its own.  Each
trapezoid grid, nested from _FIRST_GRID = 257 nodes until two successive
grids agree, is summed panel-by-panel between sign changes with
compensated arithmetic.  No grid settles alone, so a check's first
evaluation covers the first two grids (513 nodes) in one call; each
refinement evaluates only its new midpoints.  One node cap, _NODE_CAP,
bounds both checks' evaluations (grids up to 131,073 nodes), and no
caller sets it.  An interpolated density's window may reach below
x = 1e-20 (n = 0), past its interpolant; there, as everywhere, the
contour engine answers each knot that its residue series certifies by
the series, for densities and for omega3 alike, and the rest by band
quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, _check_int
from .moments import MomentSequence, log_moment

__all__ = ["MomentCheckResult", "check_moment", "check_vanishing"]

_NODE_CAP = 200_000  # evaluations per moment; exceeding it is an error
_FIRST_GRID = 257  # nodes of the first nested grid in both checks
_WINDOW_DROP = 60.0  # integrand log-range kept around the peak
_PASS_TOL = 1e-10  # passed: rel_error <= 100x the worst measured, 1e-12


@dataclass(frozen=True)
class MomentCheckResult:
    """Outcome of one moment integral vs its target rho(n)."""

    n: int
    log_integral: float
    log_target: float
    rel_error: float
    nodes_used: int

    @property
    def passed(self) -> bool:
        return self.rel_error <= _PASS_TOL


def _window(n, g, p, alpha0, beta):
    """[v_lo, v_hi] in v = ln x^p for the envelopes u^A e^{-g u}, u = e^v.

    The density goes as x^alpha0 at the origin and as x^beta e^{-g x^p} in
    the tail.  A = (n + 1 + alpha0)/p - 1 >= 0 (by alpha0 > -1) sets the
    left edge and A with max(alpha0, beta) in place of alpha0 the right one;
    each edge lies at least _WINDOW_DROP nats below its envelope's peak.
    """
    big_a = (n + 1.0 + max(alpha0, beta)) / p - 1.0
    u_pk = max((big_a + 1.0) / g, 1.0)
    u_hi = u_pk + 1.0
    peak = (big_a + 1.0) * math.log(u_pk) - g * u_pk
    while (big_a + 1.0) * math.log(u_hi) - g * u_hi > peak - _WINDOW_DROP:
        u_hi += max(1.0, 0.05 * u_hi)
    big_a = (n + 1.0 + alpha0) / p - 1.0
    u_pk = max((big_a + 1.0) / g, 1.0)
    # with d = v - ln u_pk the envelope falls (A+1) d - g u_pk (e^d - 1)
    # <= (A+1) d + g u_pk below its peak, so this edge is _WINDOW_DROP down
    # (without the g u_pk term it is only ~10 nats down once A is ~100).
    v_lo = math.log(u_pk) - (_WINDOW_DROP + g * u_pk) / (big_a + 1.0)
    return v_lo, math.log(u_hi)


def _nested_grids(func, v_lo, v_hi, n_nodes):
    """Yield (v, func(v), evaluations) on nested grids of 2^k + 1 nodes.

    No grid settles alone, so the first call evaluates func on the first
    two grids at once (2 n_nodes - 1 nodes) and yields both; a refinement
    evaluates func only at the new midpoints.  A call that would take the
    count of evaluations past _NODE_CAP is not made.
    """
    n_nodes = 2 * (n_nodes - 1) + 1
    used, fresh = 0, n_nodes
    while used + fresh <= _NODE_CAP:
        v = np.linspace(v_lo, v_hi, n_nodes)
        if used:
            coarse, vals = vals, np.empty(n_nodes)
            vals[0::2] = coarse
            vals[1::2] = func(v[1::2])
        else:
            vals = func(v)
            yield v[0::2], vals[0::2], n_nodes
        used += fresh
        yield v, vals, used
        n_nodes = 2 * (n_nodes - 1) + 1
        fresh = n_nodes // 2


def _moment_integral(sign_log_f, n, p, v_lo, v_hi, log_target):
    """(int_0^inf x^n f(x) dx / rho(n), evaluations) on nested grids.

    sign_log_f(ln x) returns (sign f, ln |f|).  In v = ln x^p the integrand
    sign(f) exp(((n+1)/p) v - ln p + ln|f| - ln rho(n)) is analytic on the
    whole line, so trapezoid doubling is spectral.  Each grid's sum is
    taken panel-by-panel between sign changes and combined with math.fsum;
    two successive grids agreeing within 1e-10 of the absolute sum (or
    1e-9) end the refinement.  A non-finite integrand returns an infinite
    total at once.
    """
    def integrand(v):
        sign, log_f = sign_log_f(v / p)
        with np.errstate(under="ignore", over="ignore"):
            return sign * np.exp(((n + 1.0) / p) * v - math.log(p)
                                 + log_f - log_target)

    prev = None
    for v, h, nodes_used in _nested_grids(integrand, v_lo, v_hi, _FIRST_GRID):
        dv = v[1] - v[0]
        segments = 0.5 * (h[:-1] + h[1:]) * dv
        abs_scale = float(np.sum(np.abs(segments)))
        if not math.isfinite(abs_scale):  # finite, it bounds every panel
            return math.inf, nodes_used
        # panel boundaries at sign changes of the integrand; flips + 1 is
        # increasing and >= 1, so starts is sorted and unique as built
        flips = np.nonzero(np.diff(np.signbit(h)))[0]
        starts = np.concatenate(([0], flips + 1))
        starts = starts[starts < segments.size]
        panels = np.add.reduceat(segments, starts)
        total = math.fsum(panels.tolist())
        if prev is not None and abs(total - prev) <= max(1e-10 * abs_scale,
                                                          1e-9):
            return total, nodes_used
        prev = total
    raise ConvergenceError(
        f"moment integral n={n} did not stabilize within {_NODE_CAP} nodes")


def _checked_integral(f, sign_log_f, seq, n):
    """(int x^n f dx / rho(n), ln rho(n), evaluations) for f = W or omega.

    f supplies the tail law (f.growth) and the endpoint powers (f.seq);
    sign_log_f maps ln x to (sign f, ln |f|).
    """
    _check_int(n, "moment order n", 0)
    g, p = f.growth
    log_target = log_moment(seq, n)
    v_lo, v_hi = _window(n, g, p, f.seq.alpha0, f.seq.tail_exponent)
    total, nodes_used = _moment_integral(sign_log_f, n, p, v_lo, v_hi,
                                         log_target)
    return total, log_target, nodes_used


def check_moment(w: "WeightFunction", seq: MomentSequence,
                 n) -> MomentCheckResult:
    """Verify int_0^inf x^n W(x) dx = rho(n), measured relative to rho(n).

    rel_error is |I/rho(n) - 1|, and inf when the integrand overflows in
    units of rho(n).  log_integral is ln I only while I/rho(n) stays in
    double range (past it, -inf or inf), so it is meaningful when w solves
    seq.
    nodes_used counts the evaluations of ln W and _NODE_CAP bounds them.  An
    interpolated density answers past its interpolant's window by the
    contour engine, so the window may run past ln W = -320 (large n) and
    below x = 1e-20 (n = 0).
    """
    total, log_target, nodes_used = _checked_integral(
        w, lambda log_x: (1.0, w.log_density(log_x)), seq, n)
    log_integral = (math.log(total) + log_target if total > 0.0
                    else -math.inf)
    return MomentCheckResult(int(n), log_integral, log_target,
                             abs(total - 1.0), nodes_used)


def check_vanishing(omega: "Perturbation", seq: MomentSequence,
                    n) -> MomentCheckResult:
    """Verify int_0^inf x^n omega(x) dx = 0, measured relative to rho(n).

    rel_error is |I|/rho(n), and log_integral is ln |I|.  nodes_used
    counts the evaluations of omega.log_density and _NODE_CAP bounds them.
    A non-finite integrand raises ConvergenceError.
    """
    total, log_target, nodes_used = _checked_integral(
        omega, omega.log_density, seq, n)
    if math.isinf(total):
        raise ConvergenceError(
            f"vanishing-moment integrand n={n} is not finite")
    log_integral = (math.log(abs(total)) + log_target
                    if total != 0.0 else -math.inf)
    return MomentCheckResult(int(n), log_integral, log_target, abs(total),
                             nodes_used)
