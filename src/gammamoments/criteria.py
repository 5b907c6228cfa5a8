"""Numeric uniqueness criteria for Stieltjes moment problems.

Three classical tests are decided numerically and combined into one report:

  C1 (Carleman):    sum rho(n)^{-1/2n} = inf  =>  unique
  C2 (Krein):       int -ln W(x^2)/(1+x^2) dx < inf  =>  non-unique
  C3 (converse):    psi(y) = -ln W(e^y) convex beyond some y', together
                    with a convergent Carleman sum  =>  non-unique

C1 is decided exactly from A = sum_j a_j (the sum diverges iff A <= 2);
the decay exponent fitted to its terms n = 1.._CARLEMAN_N_MAX, one fixed
range that no caller sets, is kept as a cross-check.  Integral convergence
is classified by exponent fitting with an explicit dead zone; borderline
cases surface as Undecided rather than being silently resolved.  For
densities whose tail law is certified by a closed form, the Krein
exponent is taken from that law; for quadrature-backed densities the
verdict stays Undecided on principle.  Densities are evaluated in ln x
(`WeightFunction.log_density`), so no criterion forms x, x^2 or e^y, and
the closed forms decide every r even where x leaves the double range.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (ConsistencyError, ConstraintError, ConvergenceError,
                     InconclusiveError, RefusesError, UndecidedError)
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
_SUM_A_ROUNDOFF = 1e-12  # |A - 2| this small cannot be told from A = 2
_KREIN_DEAD_ZONE = 0.02  # around the critical growth exponent 1
_KREIN_FIT_WIDTH = 4.0  # width in ln x of the growth-exponent fit
_KREIN_FIT_RANGE = math.log(1e4)  # ln of -ln W's growth across a certified fit
_KREIN_U_MIN = -40.0  # ln x below which the Krein integrand is < 1e-15
_KREIN_U_MAX = math.log(1e4)  # ln x where the body ends at most
_KREIN_PANEL = 2.0  # Gauss-Legendre panel width in ln x
_KREIN_ORDERS = (16, 32, 64)  # points per panel, tried in turn
_KREIN_RTOL = 1e-13  # agreement of two successive orders
_CONVEXITY_POINTS = 2001  # ln x grid of the converse-Carleman scan
_CARLEMAN_N_MAX = 200  # terms of the Carleman sum
_N_VERIFY = 6  # full_report checks moments n = 0.._N_VERIFY first
_VERIFY_TOL = 1e-4  # relative error above which full_report refuses w


@dataclass(frozen=True)
class CarlemanResult:
    verdict: str  # "Divergent" | "Convergent" | "Undecided"
    terms: tuple  # of (n, a_n)
    fitted_decay_exponent: float
    n_a_n_limit: float = math.nan  # lim n*a_n when the slope sits at -1


@dataclass(frozen=True)
class KreinResult:
    verdict: str  # "Finite" | "Infinite" | "Undecided"
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
    overall: str  # "Unique" | "NonUnique" | "Undecided"
    notes: tuple = field(default=())

    def to_dict(self):
        return asdict(self)


# -- C1: Carleman -----------------------------------------------------------

def carleman(seq: MomentSequence) -> CarlemanResult:
    """Classify S = sum a_n, a_n = rho(n)^{-1/2n}, as divergent/convergent.

    ln rho(n) = A n ln n + O(n) with A = sum_j a_j, so a_n decays like
    n^{-A/2} times a positive constant: S diverges exactly when A <= 2.
    The verdict comes from A.  The decay exponent of a_n fitted on the
    upper half of n = 1.._CARLEMAN_N_MAX, and at a fitted slope near -1
    the limit of n*a_n, are kept as numeric cross-checks.
    """
    ns = np.arange(1, _CARLEMAN_N_MAX + 1)
    log_a = -log_moment(seq, ns) / (2.0 * ns)
    a = np.exp(log_a)
    terms = tuple((int(n), float(v)) for n, v in zip(ns, a))

    upper = ns >= _CARLEMAN_N_MAX // 2
    slope, _ = np.polyfit(np.log(ns[upper]), log_a[upper], 1)
    slope = float(slope)

    limit = math.nan
    if abs(slope + 1.0) <= _SLOPE_DEAD_ZONE:
        # critical slope: n * a_n tends to a positive constant or grows
        tail = ns >= (3 * _CARLEMAN_N_MAX) // 4
        lim_seq = ns[tail] * a[tail]
        if float(np.ptp(lim_seq) / np.max(lim_seq)) < 0.02:
            limit = float(lim_seq[-1])
        elif np.all(np.diff(lim_seq) > 0.0):
            limit = math.inf

    big_a = seq.sum_a
    if big_a != 2.0 and abs(big_a - 2.0) <= _SUM_A_ROUNDOFF:
        # factors parsed from decimals may sum to 2 only up to rounding
        raise UndecidedError(
            f"A = sum a_j = {big_a!r} equals the critical value 2 to within "
            "rounding; the Carleman sum may diverge or converge")
    verdict = "Divergent" if big_a <= 2.0 else "Convergent"
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

    The growth exponent beta in -ln W(x^2) ~ C x^beta is fitted on a
    tail sample spaced evenly in ln x, _KREIN_FIT_WIDTH wide.  A certified
    tail narrows it to _KREIN_FIT_RANGE / 2p when that is less, so -ln W
    grows at most 1e4-fold across it and a steep tail law (large p) is
    fitted where W < 1; a window that still meets W >= 1 raises
    InconclusiveError, which full_report turns into an Undecided C2.
    When the tail law is certified by a closed form the verdict uses the
    exact exponent 2*p; a quadrature-backed tail cannot certify the
    asymptotics, so the verdict stays Undecided there.  Unless the verdict
    is Infinite, the integral up to X = e^{min(_KREIN_U_MAX, the evaluable
    range)} is summed by panelled Gauss-Legendre rules in ln x (one
    vectorised density call per order, see _krein_body).  A Finite
    verdict adds int_X^inf of the tail law
    -ln W(x^2) ~ g x^beta - 2b ln x + c over x^2, with W ~ x^b e^{-g x^p}
    (b = seq.tail_exponent) and c matched at X.
    """
    g, p = w.growth
    # keep ln x^2 inside the density's evaluable range
    u_top = _tail_limit(w)
    width = _KREIN_FIT_WIDTH
    if w.tail_certified:
        width = min(width, _KREIN_FIT_RANGE / (2.0 * p))
    us = np.linspace(u_top - width, u_top, 48)
    neg_log = -w.log_density(2.0 * us)
    if np.any(neg_log <= 0.0):
        raise InconclusiveError("density exceeds 1 in the fitting window")
    fitted, _ = np.polyfit(us, np.log(neg_log), 1)
    fitted = float(fitted)

    beta_true = 2.0 * p
    # a numeric tail that disagrees with the certified law decides nothing
    decided = (w.tail_certified
               and not abs(fitted - beta_true) > 2.0 * _KREIN_DEAD_ZONE + 0.01)
    if decided and beta_true >= 1.0:
        return KreinResult("Infinite", math.inf, fitted)

    u_hi = min(_KREIN_U_MAX, u_top)
    body = _krein_body(w, u_hi)
    if not decided:
        return KreinResult("Undecided", float(body), fitted)
    b = w.seq.tail_exponent
    neg_log_top = float(-w.log_density(2.0 * u_hi))  # -ln W(X^2)
    c = neg_log_top - g * math.exp(beta_true * u_hi) + 2.0 * b * u_hi
    tail = (g * math.exp((beta_true - 1.0) * u_hi) / (1.0 - beta_true)
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
        t, weights = leggauss(order)
        u = (mid + half * t).ravel()
        f = -w.log_density(2.0 * u) / (2.0 * np.cosh(u))
        body = float(np.dot((half * weights).ravel(), f))
        if abs(body - prev) <= _KREIN_RTOL * abs(body):
            return body
        prev = body
    raise ConvergenceError(
        f"Krein integral of W[{w.seq.descriptor()}] changed by "
        f"{abs(body - prev):.2e} between Gauss-Legendre orders "
        f"{_KREIN_ORDERS[-2]} and {_KREIN_ORDERS[-1]}")


def _tail_limit(w: WeightFunction) -> float:
    """Largest ln x at which -ln W at 2 ln x is safely evaluable."""
    g, p = w.growth
    if w.tail_certified:
        depth = 1e8  # closed forms evaluate anywhere in log domain
    else:
        depth = _LOG_DEPTH - 2.0
    return math.log(depth / g) / (2.0 * p)


# -- C3: converse Carleman --------------------------------------------------

def converse_carleman(seq: MomentSequence, w: WeightFunction,
                      c1: CarlemanResult | None = None) -> ConverseCarlemanResult:
    """Certify convexity of psi(y) = -ln W(e^y) beyond a searched y'.

    Fires (NonUnique) only when the Carleman sum is convergent; the
    criterion requires both conditions jointly.
    """
    if c1 is None:
        c1 = carleman(seq)
    if c1.verdict != "Convergent":
        raise ConstraintError(
            "converse Carleman criterion needs a convergent Carleman sum "
            f"(got {c1.verdict})")
    y = np.linspace(-10.0, 2.0 * _tail_limit(w), _CONVEXITY_POINTS)
    psi = -w.log_density(y)
    h = y[1] - y[0]
    d2 = np.diff(psi, 2) / (h * h)
    # smallest y' beyond which every second difference is positive
    bad = np.nonzero(d2 <= 0.0)[0]
    j = 0 if bad.size == 0 else int(bad[-1]) + 1
    if j > int(0.75 * d2.size):
        raise InconclusiveError(
            "no convexity window found: second differences keep changing "
            "sign through the upper quarter of the grid")
    margin = float(np.min(d2[j:]))
    return ConverseCarlemanResult("NonUnique", margin, float(y[j + 1]))


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
    try:
        c1 = carleman(seq)
    except UndecidedError as exc:
        notes.append(str(exc))
        c1 = CarlemanResult("Undecided", (), math.nan)
    else:
        expected = -0.5 * seq.sum_a
        if abs(c1.fitted_decay_exponent - expected) > _decay_tolerance(
                seq, _CARLEMAN_N_MAX // 2):
            notes.append(
                "fitted Carleman decay exponent "
                f"{c1.fitted_decay_exponent:.4f} disagrees with -A/2 = "
                f"{expected:.4f}; the log-moments may not follow the gamma "
                "product they are labelled with")

    try:
        c2 = krein(w)
    except InconclusiveError as exc:
        notes.append(str(exc))
        c2 = KreinResult("Undecided", math.nan, math.nan)

    c3 = ConverseCarlemanResult("Inconclusive", math.nan, math.nan)
    if c1.verdict == "Convergent":
        try:
            c3 = converse_carleman(seq, w, c1=c1)
        except InconclusiveError as exc:
            notes.append(str(exc))

    if c1.verdict == "Undecided":
        overall = "Undecided"
    elif c1.verdict == "Divergent":
        if c2.verdict == "Finite" or c3.verdict == "NonUnique":
            raise ConsistencyError(
                "C1 asserts uniqueness while C2/C3 assert non-uniqueness; "
                "the engine's verdicts are mutually inconsistent")
        overall = "Unique"
    elif c2.verdict == "Finite" or c3.verdict == "NonUnique":
        overall = "NonUnique"
    else:
        overall = "Undecided"

    if seq.family is None:
        notes.append("class builds no perturbation for this factor list")
    elif not w.tail_certified:  # the third family: no closed-form density
        notes.append(
            "perturbation family for this sequence extrapolates the "
            "construction used for the closed-form families")
    return CriterionReport(c1, c2, c3, overall, tuple(notes))
