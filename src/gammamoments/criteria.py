"""Uniqueness criteria for Stieltjes moment problems.

Three classical tests are combined into one report:

  C1 (Carleman):    sum rho(n)^{-1/2n} = inf  =>  unique
  C2 (Krein):       int -ln W(x^2)/(1+x^2) dx < inf  =>  non-unique
  C3 (converse):    psi(y) = -ln W(e^y) convex beyond some y', together
                    with a convergent Carleman sum  =>  non-unique

For rho(n) = prod_j Gamma(a_j n + b_j) one exact rule decides all three:
-ln W(x) ~ A (x/h)^{1/A} with A = sum_j a_j (Braaksma 1964), so the
Carleman sum diverges and the Krein integral is infinite exactly when
A <= 2, and -ln W(e^y) is eventually convex for every A, so C3 fires
exactly when the Carleman sum converges.  The predicate is the sign of
`MomentSequence.critical_gap`, taken from the exact A.  The numerics only
cross-check it: the decay exponent fitted to the Carleman terms
n = 1.._CARLEMAN_N_MAX (one fixed range that no caller sets), and the
Krein growth exponent and the convexity of -ln W(e^y) for C3, both read
off one tail sample (`_tail_sample`); a disagreement with A becomes a
note in the report.  Densities are
evaluated in ln x (`WeightFunction.log_density`), so no criterion forms
x, x^2 or e^y, and the closed forms decide every r even where x leaves
the double range.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConvergenceError, RefusesError
from .moments import MomentSequence, log_moment
from .weights import _LOG_DEPTH, WeightFunction

__all__ = [
    "CarlemanResult",
    "KreinResult",
    "ConverseCarlemanResult",
    "CriterionReport",
    "carleman",
    "krein",
    "converse_carleman",
    "full_report",
]

_SLOPE_DEAD_ZONE = 0.05  # around the critical decay exponent -1
_KREIN_FIT_TOL = 0.05  # |fitted growth exponent - 2/A| noted above this
_KREIN_FIT_WIDTH = 4.0  # width in ln x of the tail sample
_KREIN_FIT_RANGE = math.log(1e4)  # ln of -ln W's growth across a certified fit
_KREIN_U_MIN = -40.0  # ln x below which the Krein integrand is < 1e-15
_KREIN_U_MAX = math.log(1e4)  # ln x where the body ends at most
_KREIN_PANEL = 2.0  # Gauss-Legendre panel width in ln x
_KREIN_ORDERS = (16, 32, 64)  # points per panel, tried in turn
_KREIN_RTOL = 1e-13  # agreement of two successive orders
_CARLEMAN_N_MAX = 200  # terms of the Carleman sum
_N_VERIFY = 6  # full_report checks moments n = 0.._N_VERIFY first
_VERIFY_TOL = 1e-4  # relative error above which full_report refuses w


@dataclass(frozen=True)
class CarlemanResult:
    verdict: str  # "Divergent" | "Convergent"
    terms: tuple  # of (n, a_n)
    fitted_decay_exponent: float
    n_a_n_limit: float = math.nan  # lim n*a_n when the slope sits at -1


@dataclass(frozen=True)
class KreinResult:
    verdict: str  # "Finite" | "Infinite"
    integral_estimate: float
    growth_exponent: float


@dataclass(frozen=True)
class ConverseCarlemanResult:
    verdict: str  # "NonUnique" | "Inconclusive"
    convexity_margin: float
    y_prime: float


@dataclass(frozen=True)
class CriterionReport:
    c1: CarlemanResult
    c2: KreinResult
    c3: ConverseCarlemanResult
    overall: str  # "Unique" | "NonUnique"
    notes: tuple = field(default=())

    def to_dict(self):
        return asdict(self)


# -- C1: Carleman -----------------------------------------------------------

def carleman(seq: MomentSequence) -> CarlemanResult:
    """Classify S = sum a_n, a_n = rho(n)^{-1/2n}, as divergent/convergent.

    ln rho(n) = A n ln n + O(n) with A = sum_j a_j, so a_n decays like
    n^{-A/2} times a positive constant: S diverges exactly when A <= 2.
    The verdict comes from the exact A.  The decay exponent of a_n fitted
    on the upper half of n = 1.._CARLEMAN_N_MAX, and at a fitted slope
    near -1 the limit of n*a_n, are kept as numeric cross-checks.
    """
    ns = np.arange(1, _CARLEMAN_N_MAX + 1)
    log_a = -log_moment(seq, ns) / (2.0 * ns)
    a = np.exp(log_a)
    terms = tuple((int(n), float(v)) for n, v in zip(ns, a))

    upper = ns >= _CARLEMAN_N_MAX // 2
    slope = _slope(np.log(ns[upper]), log_a[upper])

    limit = math.nan
    if abs(slope + 1.0) <= _SLOPE_DEAD_ZONE:
        # critical slope: n * a_n tends to a positive constant or grows
        tail = ns >= (3 * _CARLEMAN_N_MAX) // 4
        lim_seq = ns[tail] * a[tail]
        if float(np.ptp(lim_seq) / np.max(lim_seq)) < 0.02:
            limit = float(lim_seq[-1])
        elif np.all(np.diff(lim_seq) > 0.0):
            limit = math.inf

    verdict = "Convergent" if seq.critical_gap > 0.0 else "Divergent"
    return CarlemanResult(verdict, terms, slope, n_a_n_limit=limit)


def _decay_tolerance(seq: MomentSequence, n_lo: int) -> float:
    """Bound on |fitted decay exponent + A/2| for a fit over n >= n_lo.

    By Stirling, the slope of ln a_n against ln n is -A/2 minus
    sum_j [(b_j - 1/2)(1 - ln(a_j n)) / 2n - ln(2 pi) / 4n] + O(1/n^2);
    twice that sum's size at n_lo leaves room for the higher orders.
    """
    return sum(abs(b - 0.5) * abs(1.0 - math.log(a * n_lo))
               + 0.5 * math.log(2.0 * math.pi) for a, b in seq.factors) / n_lo


# -- C2: Krein --------------------------------------------------------------

def krein(w: WeightFunction) -> KreinResult:
    """Estimate int_0^inf -ln W(x^2)/(1+x^2) dx and classify it.

    -ln W(x^2) grows like g x^beta with beta = 2/A, so the integral is
    infinite exactly when A <= 2; the verdict comes from the exact A, and
    an Infinite one is returned before any quadrature.  The growth
    exponent is fitted on `_tail_sample(w)` as a cross-check: the slope
    against ln x of ln(d/d ln x [-ln W(x^2)] + 2b), the derivative taken
    by central differences at the interior points, which the tail law
    below makes beta ln x plus a constant.  Where that derivative plus 2b
    is not positive its logarithm does not exist, and the exponent is
    NaN.  A Finite estimate is the integral up to X = e^{min(_KREIN_U_MAX,
    the sample's top)}, summed by panelled Gauss-Legendre rules in ln x (one
    vectorised density call per order, see _krein_body), plus int_X^inf of
    the tail law -ln W(x^2) ~ g x^beta - 2b ln x + c over x^2, with
    W ~ x^b e^{-g x^p} (b = seq.tail_exponent) and c matched at X.
    """
    us, neg_log = _tail_sample(w)
    b = w.seq.tail_exponent
    # d/du -ln W(e^{2u}) ~ beta g e^{beta u} - 2b: the law's constant drops
    # out, and adding 2b leaves an exponential of slope beta in its log
    rate = (neg_log[2:] - neg_log[:-2]) / (us[2:] - us[:-2]) + 2.0 * b
    fitted = math.nan
    if np.all(rate > 0.0):
        fitted = _slope(us[1:-1], np.log(rate))

    gap = w.seq.critical_gap  # 1 - beta, exact in A
    if gap <= 0.0:
        return KreinResult("Infinite", math.inf, fitted)
    g, p = w.growth
    u_hi = min(_KREIN_U_MAX, float(us[-1]))
    body = _krein_body(w, u_hi)
    beta = 2.0 * p
    neg_log_top = float(-w.log_density(2.0 * u_hi))  # -ln W(X^2)
    c = neg_log_top - g * math.exp(beta * u_hi) + 2.0 * b * u_hi
    tail = (g * math.exp(-gap * u_hi) / gap
            + (c - 2.0 * b * (u_hi + 1.0)) * math.exp(-u_hi))
    return KreinResult("Finite", float(body + tail), fitted)


def _krein_body(w: WeightFunction, u_hi: float) -> float:
    """int_0^{e^u_hi} -ln W(x^2)/(1+x^2) dx by panelled Gauss-Legendre.

    In u = ln x the integrand is -ln W at ln x = 2u over 2 cosh u: analytic
    in a strip |Im u| < pi/2 and, as -ln W grows at most linearly in u at
    the origin, below e^{u} |u| times a constant for u -> -inf, so the
    range starts at u = _KREIN_U_MIN.  The order doubles until two
    successive orders agree to _KREIN_RTOL.
    """
    n_panels = int(math.ceil((u_hi - _KREIN_U_MIN) / _KREIN_PANEL))
    edges = np.linspace(_KREIN_U_MIN, u_hi, n_panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * np.diff(edges)[:, None]
    prev = math.nan
    for order in _KREIN_ORDERS:
        t, weights = _gauss_legendre(order)
        u = (mid + half * t).ravel()
        f = -w.log_density(2.0 * u) / (2.0 * np.cosh(u))
        body = float(np.sum((half * weights).ravel() * f))
        if abs(body - prev) <= _KREIN_RTOL * abs(body):
            return body
        prev = body
    raise ConvergenceError(
        f"Krein integral of W[{w.seq.descriptor()}] changed by "
        f"{abs(body - prev):.2e} between Gauss-Legendre orders "
        f"{_KREIN_ORDERS[-2]} and {_KREIN_ORDERS[-1]}")


def _gauss_legendre(order: int):
    """Gauss-Legendre nodes and weights on [-1, 1], off LAPACK.

    Newton's method on the Legendre recurrence refines the nodes from
    x_k = -cos(pi (k - 1/4) / (order + 1/2)) until a step falls below
    1e-14, after which the node is exact to rounding.  The weights are
    1 / (P_{order-1}(x) P'_order(x)), symmetrised and scaled to sum 2 as
    numpy.polynomial.legendre.leggauss scales them.
    """
    x = -np.cos(np.pi * (np.arange(1, order + 1) - 0.25) / (order + 0.5))
    for _ in range(100):
        _, p, dp = _legendre(x, order)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-14:
            break
    p_prev, _, dp = _legendre(x, order)
    weights = 1.0 / (p_prev * dp)
    weights = 0.5 * (weights + weights[::-1])
    return 0.5 * (x - x[::-1]), weights * (2.0 / np.sum(weights))


def _legendre(x, order: int):
    """P_{order-1}(x), P_order(x) and P'_order(x), by the recurrence."""
    p_prev, p = np.ones_like(x), x
    for j in range(2, order + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    return p_prev, p, order * (x * p - p_prev) / (x * x - 1.0)


def _slope(x, y) -> float:
    """Least-squares slope of y on x in closed form, summed elementwise."""
    dx = x - np.mean(x)
    return float(np.sum(dx * (y - np.mean(y))) / np.sum(dx * dx))


def _tail_sample(w: WeightFunction):
    """48 points u spaced evenly in ln x and -ln W(e^{2u}) at them: the
    tail sample of the Krein fit and of the C3 cross-check.

    It ends where -ln W at 2 ln x is last safely evaluable and spans
    _KREIN_FIT_WIDTH, or for a certified tail _KREIN_FIT_RANGE / 2p when
    that is less, so -ln W grows at most 1e4-fold across it.
    """
    g, p = w.growth
    width = _KREIN_FIT_WIDTH
    if w.tail_certified:
        depth = 1e8  # closed forms evaluate anywhere in log domain
        width = min(width, _KREIN_FIT_RANGE / (2.0 * p))
    else:
        depth = _LOG_DEPTH - 2.0
    u_top = math.log(depth / g) / (2.0 * p)
    us = np.linspace(u_top - width, u_top, 48)
    return us, -w.log_density(2.0 * us)


# -- C3: converse Carleman --------------------------------------------------

def converse_carleman(seq: MomentSequence,
                      w: WeightFunction) -> ConverseCarlemanResult:
    """C3: psi(y) = -ln W(e^y) convex beyond some y', with a convergent
    Carleman sum, gives NonUnique.

    psi ~ A (e^y/h)^{1/A} is eventually convex for every A, so C3 fires
    exactly when the Carleman sum converges: the verdict comes from the
    exact A, and an A <= 2 returns Inconclusive before the density is
    evaluated.  As a cross-check, psi's second differences are taken on
    the Krein fit's tail sample (`_tail_sample`, y = 2 ln x): when all
    are positive, the margin is the least of them and y' the sample's
    first interior y; otherwise both are NaN.
    """
    if seq.critical_gap <= 0.0:
        return ConverseCarlemanResult("Inconclusive", math.nan, math.nan)
    us, psi = _tail_sample(w)
    y = 2.0 * us
    h = y[1] - y[0]
    d2 = np.diff(psi, 2) / (h * h)
    if np.all(d2 > 0.0):
        return ConverseCarlemanResult("NonUnique", float(np.min(d2)),
                                      float(y[1]))
    return ConverseCarlemanResult("NonUnique", math.nan, math.nan)


# -- combined report --------------------------------------------------------

def full_report(seq: MomentSequence, w: WeightFunction) -> CriterionReport:
    """Run all three criteria after verifying that w actually solves seq."""
    from .verify import check_moment
    for n in range(_N_VERIFY + 1):
        res = check_moment(w, seq, n)
        if res.rel_error > _VERIFY_TOL:
            raise RefusesError(
                f"density does not reproduce moment n={n} "
                f"(relative error {res.rel_error:.2e}); criteria on a "
                "non-solution are meaningless")

    notes = []
    c1 = carleman(seq)
    expected = -0.5 * seq.sum_a
    if abs(c1.fitted_decay_exponent - expected) > _decay_tolerance(
            seq, _CARLEMAN_N_MAX // 2):
        notes.append(
            "fitted Carleman decay exponent "
            f"{c1.fitted_decay_exponent:.4f} disagrees with -A/2 = "
            f"{expected:.4f}; the log-moments may not follow the gamma "
            "product they are labelled with")

    c2 = krein(w)
    beta = 2.0 * seq.tail_power
    if math.isnan(c2.growth_exponent):
        notes.append("d/d ln x [-ln W(x^2)] + 2b is not positive in the "
                     "fitting window; no growth exponent was fitted")
    elif abs(c2.growth_exponent - beta) > _KREIN_FIT_TOL:
        notes.append(
            f"fitted Krein growth exponent {c2.growth_exponent:.4f} "
            f"disagrees with 2/A = {beta:.4f}")

    c3 = converse_carleman(seq, w)
    if c3.verdict == "NonUnique" and math.isnan(c3.y_prime):
        notes.append("convexity cross-check failed: a second difference "
                     "of -ln W(e^y) on the tail sample is not positive")

    overall = "NonUnique" if c1.verdict == "Convergent" else "Unique"
    if seq.family is None:
        notes.append("class builds no perturbation for this factor list")
    elif not w.tail_certified:  # the third family: no closed-form density
        notes.append(
            "perturbation family for this sequence extrapolates the "
            "construction used for the closed-form families")
    return CriterionReport(c1, c2, c3, overall, tuple(notes))
