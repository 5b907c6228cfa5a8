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
cross-check it.  The Krein growth exponent and the convexity of
-ln W(e^y) for C3 are read off one tail sample (`_tail_sample`, taken
once per density), and a disagreement with A becomes a note in the
report.  The decay exponent fitted to the Carleman terms n =
1.._CARLEMAN_N_MAX (one fixed range that no caller sets) is reported
without a note: it reads the exact log-moments, not the density.  A
finite Krein estimate is the tail law's integral in closed form plus a
trapezoid sum of the rest (`krein`).  `full_report` refuses a density
whose moment check for some n <= _N_VERIFY has not passed
(`MomentCheckResult.passed`, the one gate).  Densities are evaluated in
ln x (`WeightFunction.log_density`), so no criterion forms x, x^2 or
e^y, and the closed forms decide every r even where x leaves the double
range.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConvergenceError, RefusesError
from .moments import MomentSequence, log_moment
from .verify import _nested_grids, check_moment
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
_KREIN_U = 40.0  # |ln x| beyond which the Krein remainder is < 1e-15
_KREIN_GRID = 65  # nodes of the first trapezoid grid of the remainder
_KREIN_GRID_RTOL = 1e-10  # agreement of two successive grids
_CARLEMAN_N_MAX = 200  # terms of the Carleman sum
_N_VERIFY = 6  # full_report checks moments n = 0.._N_VERIFY first


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
    near -1 the limit of n*a_n, are reported alongside it.
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
    NaN.

    A Finite estimate splits -ln W(x^2) into the tail law L(x) = g x^beta
    - 2b ln x - ln C of W ~ C x^b e^{-g x^p} (b = seq.tail_exponent,
    ln C = seq.tail_log_constant) and a remainder R.  L integrates in
    closed form: int_0^inf x^beta/(1+x^2) dx = pi/(2 cos(pi/A)), a Beta
    integral (DLMF 5.12), with cos(pi/A) = sin(pi gap/2) for the exact
    gap = 1 - 2/A, and int_0^inf ln x/(1+x^2) dx = 0.  In u = ln x,
    f = R/(2 cosh u) is analytic in the strip |Im u| < pi/2, below |u| e^u
    times a constant as u -> -inf, and falls like e^{-(1+beta) u} as
    u -> inf.  So the trapezoid rule sums it on verify's nested grids from
    u = -_KREIN_U to U, the sample's top or _KREIN_U if lower, and
    continues past U on f(U) e^{-(1+beta)(u-U)}: h f(U)/(1 - e^{-(1+beta) h})
    in place of the end node's half weight, without which the cut at U
    would leave an error of order h^2.  Two successive grids agreeing
    within _KREIN_GRID_RTOL of the estimate end the refinement.
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
    beta = 2.0 * p
    log_c = w.seq.tail_log_constant
    main = 0.5 * math.pi * (g / math.sin(0.5 * math.pi * gap) - log_c)

    def remainder(u):  # R(e^u) / (2 cosh u)
        law = g * np.exp(beta * u) - 2.0 * b * u - log_c
        return (-w.log_density(2.0 * u) - law) / (2.0 * np.cosh(u))

    u_top, prev = min(float(us[-1]), _KREIN_U), math.nan
    for u, f, _ in _nested_grids(remainder, -_KREIN_U, u_top, _KREIN_GRID):
        h, f = float(u[1] - u[0]), f.tolist()
        total = main + h * (0.5 * f[0] + math.fsum(f[1:-1])
                            - f[-1] / math.expm1(-(1.0 + beta) * h))
        if abs(total - prev) <= _KREIN_GRID_RTOL * abs(total):
            return KreinResult("Finite", total, fitted)
        prev = total
    raise ConvergenceError(
        f"Krein remainder of W[{w.seq.descriptor()}] changed by "
        f"{abs(total - prev):.2e} between the last two trapezoid grids")


def _slope(x, y) -> float:
    """Least-squares slope of y on x in closed form, summed elementwise."""
    dx = x - np.mean(x)
    return float(np.sum(dx * (y - np.mean(y))) / np.sum(dx * dx))


@functools.lru_cache(maxsize=1)
def _tail_sample(w: WeightFunction):
    """48 points u spaced evenly in ln x and -ln W(e^{2u}) at them: the
    tail sample of the Krein fit and of the C3 cross-check, kept for the
    last density so that one report evaluates it once.  The cache is keyed
    by w alone: it ignores a later change to this module's constants.

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
    """Run all three criteria after verifying that w actually solves seq:
    w is refused unless its moment check passes for n = 0.._N_VERIFY."""
    for n in range(_N_VERIFY + 1):
        res = check_moment(w, seq, n)
        if not res.passed:
            raise RefusesError(
                f"density does not reproduce moment n={n} "
                f"(relative error {res.rel_error:.2e}); criteria on a "
                "non-solution are meaningless")

    notes = []
    c1 = carleman(seq)
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
    # an interpolated density of which class builds a member (a* > 2|k|)
    if (not w.tail_certified and overall == "NonUnique"
            and max(a for a, _ in seq.factors) > 2):
        notes.append(
            "perturbation family for this sequence extrapolates the "
            "construction used for the closed-form families")
    return CriterionReport(c1, c2, c3, overall, tuple(notes))
