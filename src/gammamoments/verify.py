"""Quadrature harness checking moments against their gamma-product targets.

All comparisons happen in log domain: the integral is accumulated with its
peak magnitude factored out and compared to ln rho(n), never by subtracting
astronomically large numbers.  The substitution u = x^p (p the tail power)
maps each stretched-exponential density to an ~e^{-g u} integrand, and
oscillatory vanishing-moment integrals are summed panel-by-panel between
sign changes with compensated arithmetic, their integrand evaluated in
units of rho(n).  Both checks refine trapezoid grids nested from
_FIRST_GRID = 257 nodes until two successive grids agree; the default
node cap allows grids up to 131,073 nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classes import Perturbation
from .errors import ConstraintError, ConvergenceError, TruncationError
from .moments import MomentSequence, log_moment
from .weights import WeightFunction

__all__ = ["MomentCheckResult", "check_moment", "check_vanishing"]

_NODE_CAP = 200_000  # evaluations per moment; exceeding it is an error
_FIRST_GRID = 257  # nodes of the first nested grid in both checks
_WINDOW_DROP = 60.0  # integrand log-range kept around the peak


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
        return self.rel_error <= 1e-6


def _check_n(n):
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise ConstraintError(f"moment order must be a nonnegative integer, got {n!r}")


def _scan_window(log_f, v_pk, v_floor=-800.0, v_ceil=None, step=0.5):
    """[v_lo, v_hi] where log_f stays within _WINDOW_DROP of its peak."""
    probe = v_pk + np.linspace(-4.0, 4.0, 33)
    if v_ceil is not None:
        probe = probe[probe <= v_ceil]
    vals = log_f(probe)
    i = int(np.argmax(vals))
    v_pk, peak = float(probe[i]), float(vals[i])
    v_hi = v_pk
    while log_f(np.array([v_hi]))[0] > peak - _WINDOW_DROP:
        v_hi += step
        if v_ceil is not None and v_hi >= v_ceil:
            raise TruncationError(
                "integration window exceeds the certified density range; "
                "the integrand has not decayed enough at the window edge")
        if v_hi > v_pk + 4000.0:
            raise ConvergenceError("integrand fails to decay on the right")
    v_lo = v_pk
    while log_f(np.array([v_lo]))[0] > peak - _WINDOW_DROP:
        v_lo -= 2.0 * step
        if v_lo < v_floor:
            raise ConvergenceError("integrand fails to decay on the left")
    v_hi += step
    if v_ceil is not None:
        v_hi = min(v_hi, v_ceil)
    return v_lo, v_hi


def _nested_grids(func, v_lo, v_hi, n_nodes, node_cap, used=0):
    """Yield (v, func(v), evaluations) on nested grids of 2^k + 1 nodes.

    A refinement evaluates func only at the new midpoints.  The count
    starts at `used`, and a grid that would pass node_cap is not started.
    """
    fresh = n_nodes
    vals = None
    while used + fresh <= node_cap:
        v = np.linspace(v_lo, v_hi, n_nodes)
        if vals is None:
            vals = func(v)
        else:
            coarse, vals = vals, np.empty(n_nodes)
            vals[0::2] = coarse
            vals[1::2] = func(v[1::2])
        used += fresh
        yield v, vals, used
        n_nodes = 2 * (n_nodes - 1) + 1
        fresh = n_nodes // 2


def check_moment(w: WeightFunction, seq: MomentSequence, n,
                 rtol: float = 1e-9, node_cap: int = _NODE_CAP) -> MomentCheckResult:
    """Verify int_0^inf x^n W(x) dx = rho(n) in log domain.

    Integrates in v = ln(x^p) with p the tail power of W, where the
    integrand decays like e^{-g e^v} on the right and like a pure
    exponential on the left -- trapezoid doubling is then spectrally
    accurate.  nodes_used counts every integrand evaluation, the window
    scan included, and node_cap bounds them.
    """
    _check_n(n)
    g, p = w.growth
    log_target = log_moment(seq, n)

    evaluations = 0

    def log_integrand(v):
        nonlocal evaluations
        evaluations += v.size
        # x = e^{v/p};  x^n W(x) dx  ->  exp(((n+1)/p) v + ln W - ln p) dv
        return ((n + 1.0) / p) * v + w.log_evaluate(np.exp(v / p)) - math.log(p)

    v_ceil = None
    if not w.tail_certified:
        from .weights import _LOG_DEPTH
        v_ceil = math.log(_LOG_DEPTH / g) - 1e-9
    v_pk = math.log(max((n + 1.0) / (p * g), 1e-3))
    v_lo, v_hi = _scan_window(log_integrand, v_pk, v_ceil=v_ceil)

    prev = None
    for v, lv, nodes_used in _nested_grids(log_integrand, v_lo, v_hi,
                                           _FIRST_GRID, node_cap, evaluations):
        m = float(np.max(lv))
        with np.errstate(under="ignore"):
            total = float(np.trapezoid(np.exp(lv - m), v))
        log_integral = m + math.log(total)
        if prev is not None and abs(log_integral - prev) < rtol:
            rel = abs(math.expm1(log_integral - log_target))
            return MomentCheckResult(int(n), log_integral, log_target, rel,
                                     nodes_used)
        prev = log_integral
    raise ConvergenceError(
        f"moment integral n={n} did not stabilize within {node_cap} nodes")


def check_vanishing(omega: Perturbation, seq: MomentSequence, n,
                    node_cap: int = _NODE_CAP) -> MomentCheckResult:
    """Verify int_0^inf x^n omega(x) dx = 0, measured relative to rho(n).

    The substitution u = x^p regularizes the tail, and the integrand is
    evaluated in units of rho(n) from ln |omega|, so neither x^{n+1} nor
    rho(n) is ever formed on its own.  Trapezoid grids are nested from
    _FIRST_GRID nodes; the oscillatory sum is taken panel-by-panel between
    sign changes and combined with math.fsum.  nodes_used counts the
    evaluations of omega and node_cap bounds them (the default allows
    grids up to 131,073 nodes).  A non-finite integrand raises
    ConvergenceError.
    """
    _check_n(n)
    g, p = omega.growth
    log_target = log_moment(seq, n)
    alpha0 = omega.seq.alpha0

    # in v = ln u the integrand ~ e^{(A+1)v} near -inf and ~ e^{-g e^v} at
    # +inf: analytic on the whole line, so trapezoid doubling is spectral.
    # A is the envelope exponent of u^A e^{-g u}; A >= 0 by alpha0 > -1.
    big_a = (n + 1.0 + alpha0) / p - 1.0
    u_pk = max((big_a + 1.0) / g, 1.0)
    u_hi = u_pk + 1.0
    peak = (big_a + 1.0) * math.log(u_pk) - g * u_pk
    while (big_a + 1.0) * math.log(u_hi) - g * u_hi > peak - _WINDOW_DROP:
        u_hi += max(1.0, 0.05 * u_hi)
    v_hi = math.log(u_hi)
    # with d = v - ln u_pk the envelope falls (A+1) d - g u_pk (e^d - 1)
    # <= (A+1) d + g u_pk below its peak, so this edge is _WINDOW_DROP down
    # (without the g u_pk term it is only ~10 nats down once A is ~100).
    # Below p ln(tiny) x = e^{v/p} underflows to 0, and the envelope there
    # is under e^{(A+1) v} <= tiny^{n+1+alpha0}.
    v_lo = max(math.log(u_pk) - (_WINDOW_DROP + g * u_pk) / (big_a + 1.0),
               p * math.log(np.finfo(float).tiny))

    def integrand(v):
        # x = u^{1/p}, u = e^v;  x^n omega(x) dx / rho(n)
        #   -> sign(omega) exp(((n+1)/p) v - ln p + ln|omega| - ln rho(n)) dv
        w = omega.evaluate(np.exp(v / p))
        with np.errstate(divide="ignore", under="ignore"):
            return np.sign(w) * np.exp(((n + 1.0) / p) * v - math.log(p)
                                       + np.log(np.abs(w)) - log_target)

    prev = None
    for v, h, nodes_used in _nested_grids(integrand, v_lo, v_hi, _FIRST_GRID,
                                          node_cap):
        dv = v[1] - v[0]
        segments = 0.5 * (h[:-1] + h[1:]) * dv
        abs_scale = float(np.sum(np.abs(segments)))
        if not math.isfinite(abs_scale):  # finite, it bounds every panel
            raise ConvergenceError(
                f"vanishing-moment integrand n={n} is not finite")
        # panel boundaries at sign changes of the integrand
        flips = np.nonzero(np.diff(np.signbit(h)))[0]
        starts = np.unique(np.concatenate(([0], flips + 1)))
        starts = starts[starts < segments.size]
        panels = np.add.reduceat(segments, starts)
        total = math.fsum(panels.tolist())
        if prev is not None and abs(total - prev) <= max(1e-10 * abs_scale,
                                                          1e-9):
            log_integral = (math.log(abs(total)) + log_target
                            if total != 0.0 else -math.inf)
            return MomentCheckResult(int(n), log_integral, log_target,
                                     abs(total), nodes_used)
        prev = total
    raise ConvergenceError(
        f"vanishing-moment integral n={n} did not stabilize within "
        f"{node_cap} nodes")
