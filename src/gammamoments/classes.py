"""Vanishing-moment perturbations and the non-unique solution families.

omega1 is a sine-modulated copy of the first principal density, omega2 its
"near factorization" through complex K0, omega3 the Mellin convolution
W2 * omega1, evaluated as the imaginary part of W3 at a rotated argument
by the contour engine at the tolerance it holds densities to (the tests
check it against mpmath's Meijer G at that argument).  Every
class member is W + amplitude * omega: `perturbation(seq, k)` picks the
family by seq.family, so any single factor Gamma(an + b) gets omega1 at
its (a, b), and `class_member(seq, k, amplitude, x)` adds amplitude *
omega to seq's principal solution once the amplitude is admissible:
finite for every family, then |eps| < 1 for the first and within
find_gamma_max for the second (a grid search over the ratio V/K0, refined
by zooming in on its worst point).  The third family has no closed
bound: an amplitude that makes the member negative as x -> 0 (where
omega3 / W3 tends to sin(k pi (r-1)/r)), or at some evaluated x, is
refused.
`perturbation` is the one constructor: it checks the one rotation rule
(omega with index k rotates its factor Gamma(an + b) by k pi/a, so k is
a nonzero integer and a > 2|k|) and picks the log-density; family, r and
the tail law growth are read from seq, so omega shares W's exact (g, p).
Each argument is checked once, where it enters: r by the tmN
constructors, `omega2_via_convolution` and `find_gamma_max`, (r, k) by
`perturbation` and `find_gamma_max`, x by `evaluate`; the helpers they
call do not re-check.

Perturbations are evaluated in ln x, as densities are:
`Perturbation.log_density` maps ln x to (sign omega, ln |omega|), so the
moment window never forms x.  omega1 is ln w1 plus ln |sine factor|,
omega2 is ln W2 plus ln |V/K0| (the ratio the amplitude search scans, from
SciPy's scaled Bessel functions), and omega3 keeps the scale and
ln |Im total| of its contour sums.  `evaluate(x)` is the entry in linear
x, through `errors._at_x` as for densities: DomainError outside
0 < x < inf, a float for a scalar x and x's shape otherwise; `omega2`
and `omega3` evaluate it for the named families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConstraintError, ConvergenceError, SearchError,
                     _at_x, _check_int)
from .mellin import _contour_sums, mellin_convolve_many
from .moments import MomentSequence, tm1, tm2, tm3
from .weights import _log_w1, _log_w2, principal_solution, w1

__all__ = [
    "Perturbation",
    "omega2",
    "omega2_via_convolution",
    "omega3",
    "perturbation_tm1",
    "perturbation_tm2",
    "perturbation_tm3",
    "perturbation",
    "class_member",
    "find_gamma_max",
    "certify_nonnegative",
]


@dataclass(frozen=True)
class Perturbation:
    """A function on (0, inf) whose Stieltjes moments all vanish.

    log_density maps ln x to (sign omega, ln |omega|); evaluate(x) checks
    0 < x < inf and returns omega(x).  family, r and growth are seq's.
    """

    k: int
    seq: MomentSequence  # yardstick rho(n) for "vanishing"
    log_density: object = field(repr=False)  # array ln x -> (sign, ln |omega|)

    @property
    def family(self) -> str:  # "tm1" | "tm2" | "tm3"
        return self.seq.family[0]

    @property
    def r(self):  # a/2 for the first family's factor (a, b), else an int
        return self.seq.family[1]

    @property
    def growth(self) -> tuple:  # (g, p): -ln |omega| <~ g x^p in the tail
        return (self.seq.tail_coefficient, self.seq.tail_power)

    def evaluate(self, x):
        return _at_x(self.log_density, x)


def _signed_log(log_rest, factor):
    """(sign factor, log_rest + ln |factor|); a zero factor gives -inf."""
    with np.errstate(divide="ignore"):
        return np.sign(factor), log_rest + np.log(np.abs(factor))


def _check_rotation(a, k, r):
    """omega with index k rotates its factor Gamma(an + b) by k pi / a,
    and decays only while that angle stays inside (-pi/2, pi/2): k must
    be a nonzero integer and a > 2|k|.  r is the family's index, for the
    message: a = 2r for the first family, a = r for the others."""
    if not isinstance(k, (int, np.integer)) or k == 0:
        raise ConstraintError(f"k must be a nonzero integer, got {k!r}")
    if not a > 2 * abs(k):
        raise ConstraintError(
            "omega rotates its factor Gamma(an + b) by k pi/a, so it needs "
            f"a > 2|k| (a={a:g}, r={r}, k={k})")


# -- family 1 ---------------------------------------------------------------

def _log_omega1(q, k, log_x, b=1.0):
    """(sign, ln |omega1(q, k, x)|) at ln x: ln w1 + ln |sin|.

    omega1(q, k) is the vanishing-moment partner of the density with
    moments Gamma(qn + b) and needs q > 2|k|: the first family's omega.
    """
    phase0 = k * math.pi * (q - b) / q
    slope = math.tan(k * math.pi / q)
    return _signed_log(_log_w1(q, log_x, b),
                       np.sin(phase0 + np.exp(log_x / q) * slope))


def perturbation_tm1(r, k) -> Perturbation:
    return perturbation(tm1(r), k)


# -- family 2 ---------------------------------------------------------------

def _beta(r, k):
    """Principal square root of 1 + i tan(pi k / r); Re > 0 for r > 2|k|."""
    return complex(np.sqrt(1.0 + 1j * math.tan(math.pi * k / r)))


def _v_phase(r, k):
    return np.exp(1j * math.pi * (0.5 - k * (r - 1.0) / r))


def _log_omega2(r, k, log_x):
    """(sign, ln |omega2|) at ln x: ln W2 + ln |V/K0|."""
    return _signed_log(_log_w2(r, log_x),
                       _ratio_v_over_k0(r, k, np.exp(log_x / (2.0 * r))))


def omega2(r, k, x):
    """Second-family perturbation, W2 times the complex-K0 ratio V/K0."""
    return perturbation_tm2(r, k).evaluate(x)


def omega2_via_convolution(r, k, x):
    """Same function by the convolution route (half-index densities)."""
    _check_int(r, "r", 1)
    _check_rotation(r, k, r)
    return mellin_convolve_many(
        lambda v: w1(r, v),
        lambda v: _at_x(lambda lx: _log_omega1(r, k, lx), v),
        x,
        log_f=lambda v: _log_w1(r, np.log(v)),
        log_g=lambda v: _log_w1(r, np.log(v)))


def perturbation_tm2(r, k) -> Perturbation:
    return perturbation(tm2(r), k)


# -- family 3 ---------------------------------------------------------------

def _log_omega3(r, k, log_x):
    """(sign, ln |omega3|) at ln x: W2 * omega1(r, k), by one contour.

    With theta = k pi / r, omega1(r, k, x) = sec^{r-1}(theta)
    Im w1(r, lambda x), log lambda = r ln sec(theta) - i k pi, the
    continuation of w1 in log x (it decays because r > 2|k|).  Mellin
    transforms turn f(lambda .) into lambda^-s M[f] and the convolution
    into M[W2] M[w1(r, .)] = Gamma(r(s-1)+1)^3 = M[W3], so
    omega3(r, k, x) = sec^{r-1}(theta) Im W3(r, lambda x): the tm3 contour
    sum with e^{i k pi s} in the symbol, at L = ln x + r ln sec(theta).
    """
    lx = np.asarray(log_x, dtype=float)
    log_sec = -math.log(math.cos(math.pi * k / r))
    scale, total = _contour_sums(tm3(r), lx + r * log_sec, math.pi * k)
    sign, log_abs = _signed_log(scale + (r - 1) * log_sec
                                - math.log(2.0 * math.pi), total.imag)
    return sign.reshape(lx.shape), log_abs.reshape(lx.shape)


def omega3(r, k, x):
    """Third-family perturbation W2 * omega1(r, k), by one contour."""
    return perturbation_tm3(r, k).evaluate(x)


def perturbation_tm3(r, k) -> Perturbation:
    return perturbation(tm3(r), k)


# -- class members ----------------------------------------------------------

def perturbation(seq, k) -> Perturbation:
    """The perturbation omega with index k of seq's principal density."""
    family, r = seq.family or (None, None)
    if family is None:
        raise ConstraintError(
            "class construction needs one gamma factor, or two or three "
            f"equal factors (r, 1) with integer r; got {seq.descriptor()}")
    a, b = seq.factors[0]
    _check_rotation(a, k, r)
    log_omega = {"tm1": lambda log_x: _log_omega1(a, k, log_x, b),
                 "tm2": lambda log_x: _log_omega2(r, k, log_x),
                 "tm3": lambda log_x: _log_omega3(r, k, log_x)}[family]
    return Perturbation(k=k, seq=seq, log_density=log_omega)


def class_member(seq, k, amplitude, x):
    """W + amplitude * omega at x, for an admissible amplitude."""
    return _member_columns(perturbation(seq, k), amplitude, x)[2]


def _member_columns(pert, amplitude, x):
    """(W, omega, W + amplitude * omega) at x, for an admissible amplitude.

    The tm1 and tm2 amplitude rules keep the member nonnegative; tm3 has
    none, so a tm3 member negative at some x is refused.
    """
    _check_amplitude(pert, amplitude)
    base = principal_solution(pert.seq).evaluate(x)
    omega = pert.evaluate(x)
    member = base + amplitude * omega
    negative = np.ravel(member) < 0.0
    if pert.family == "tm3" and np.any(negative):
        i = int(np.argmax(negative))
        raise ConstraintError(
            f"W + {amplitude:.6g} * omega is negative at x = "
            f"{np.ravel(x)[i]:.6g} ({np.ravel(member)[i]:.6g}); "
            f"amplitude too large for {pert.seq.descriptor()}, k={pert.k}")
    return base, omega, member


def _check_amplitude(pert, amplitude):
    """Reject an amplitude that could make W + amplitude * omega negative.

    Every family needs a finite amplitude; then tm1 needs |eps| < 1 and
    tm2 |gamma| <= find_gamma_max(r, k) for gamma >= 0 and
    find_gamma_max(r, -k) below.  tm3 has no closed bound: omega3 / W3
    tends to sin(k pi (r-1)/r) as x -> 0 (the residue series' leading
    pole, at s = 1 - 1/r), so an amplitude with 1 + gamma times that limit
    below 0 is refused, and _member_columns checks the member's values.
    """
    if not math.isfinite(amplitude):
        raise ConstraintError(
            f"class members need a finite amplitude, got {amplitude}")
    if pert.family == "tm1" and not abs(amplitude) < 1.0:
        raise ConstraintError(f"first family needs |eps| < 1, got {amplitude}")
    if pert.family == "tm2":
        k = pert.k if amplitude >= 0.0 else -pert.k  # omega2(r, -k) = -omega2
        bound = find_gamma_max(pert.r, k)
        if not abs(amplitude) <= bound:
            raise ConstraintError(
                f"|gamma| = {abs(amplitude):.6g} exceeds the certified bound "
                f"{bound:.6g} for (r={pert.r}, k={k})")
    if pert.family == "tm3":
        limit = math.sin(math.pi * pert.k * (pert.r - 1) / pert.r)
        if 1.0 + amplitude * limit < 0.0:
            raise ConstraintError(
                f"W + {amplitude:.6g} * omega is negative as x -> 0, where "
                f"omega / W tends to {limit:.6g}; amplitude too large for "
                f"{pert.seq.descriptor()}, k={pert.k}")


# -- amplitude search -------------------------------------------------------

_KVE_MAX_ABS = 1e9  # scipy.special.kve(0, z) returns nan beyond |z| ~ 1.08e9
_SCAN_POINTS = 4000  # amplitude scan grid; block of the Monte Carlo recheck
_SAFETY = 0.99  # fraction of the certified amplitude bound returned


def _ratio_v_over_k0(r, k, u):
    """V/K0(2u) at u = x^{1/2r}, from exponentially scaled Bessel functions.

    K0(z) = kve(0, z) e^{-z}, so the ratio is
    Re[phase kve(0, 2u beta) e^{-2u(beta - 1)}] / k0e(2u), which stays
    finite where V underflows and 1/K0 overflows.  Past |2u beta| =
    _KVE_MAX_ABS, where kve returns nan, both functions take their
    large-argument form sqrt(pi/2w) e^{-w}, and the ratio is
    Re[phase beta^{-1/2} e^{-2u(beta - 1)}] to within 1e-9 of its modulus.
    Its callers have checked (r, k).
    """
    from scipy.special import k0e, kve

    beta = _beta(r, k)
    z = 2.0 * np.asarray(u, dtype=float)
    decay = np.exp(-z * (beta - 1.0))
    ratio = np.real(_v_phase(r, k) * (kve(0, z * beta) * decay)) / k0e(z)
    far = np.abs(z * beta) > _KVE_MAX_ABS
    return np.where(far, np.real(_v_phase(r, k) * beta ** -0.5 * decay), ratio)


def find_gamma_max(r, k):
    """Largest amplitude keeping 1 + gamma V/K0 nonnegative, times _SAFETY.

    The ratio decays to zero at infinity (Re beta > 1) and tends to
    cos(pi(1/2 - k(r-1)/r)) at the origin, but only like 1/ln u, so its
    infimum may be that limit itself.  The scan runs in u = x^{1/2r} over
    x in [1e-8, u*^{2r}], where the ratio has decayed by
    e^{-2u*(Re beta - 1)} = 1e-8, or where |2u beta| reaches _KVE_MAX_ABS
    if that comes first, and is refined by zooming in on its worst point.
    The infimum is the least of that refined scan, the origin limit and a
    coarse scan of u from 1e-150 up to the scan's start.  Beyond the
    upper cut |V/K0| follows the envelope |phase| e^{-2u(Re beta - 1)}
    (the large-argument form of both Bessel functions), and the bound is
    certified only if that envelope stays below _SAFETY times the
    scanned infimum, the margin the bound itself keeps.  The bound holds
    for gamma >= 0; omega2(r, -k) = -omega2(r, k), so a negative gamma
    meets find_gamma_max(r, -k).
    """
    _check_int(r, "r", 1)
    _check_rotation(r, k, r)
    beta = _beta(r, k)
    decay = beta.real - 1.0
    if not decay > 0.0:
        raise SearchError(
            f"Re beta - 1 rounds to {decay!r} for (r={r}, k={k}): V/K0 does "
            "not decay in double precision; cannot certify an amplitude bound")
    u_star = math.log(1e8) / (2.0 * decay)
    u_cap = 0.5 * _KVE_MAX_ABS / abs(beta)
    envelope = 0.0
    if u_star > u_cap:
        u_star = u_cap
        envelope = abs(_v_phase(r, k)) * math.exp(-2.0 * u_cap * decay)
    us = np.logspace(-8.0 / (2 * r), math.log10(u_star), _SCAN_POINTS)
    neg = -_ratio_v_over_k0(r, k, us)
    i = int(np.argmax(neg))
    worst = float(neg[i])
    if worst <= 0.0:
        raise SearchError(
            f"V/K0 never negative on the scan grid for (r={r}, k={k}); "
            "cannot certify an amplitude bound")
    # zoom in log u: 33 points across the bracket, keep the neighbours of
    # the largest -V/K0, until the bracket is xatol wide; a bracket a few
    # ulps wide stops shrinking, so xatol never goes below 64 ulps
    a = math.log(us[max(i - 1, 0)])
    b = math.log(us[min(i + 1, us.size - 1)])
    xatol = max(1e-10 / (2 * r), 64.0 * np.spacing(max(abs(a), abs(b))))
    refined = worst
    while b - a > xatol:
        vs = np.linspace(a, b, 33)
        vals = -_ratio_v_over_k0(r, k, np.exp(vs))
        j = int(np.argmax(vals))
        refined = max(refined, float(vals[j]))
        a, b = vs[max(j - 1, 0)], vs[min(j + 1, vs.size - 1)]
    if refined > 10.0 * worst:
        raise SearchError(
            f"V/K0 infimum kept growing under refinement for (r={r}, k={k}); "
            "ratio may be unbounded")
    origin = np.logspace(-150.0, math.log10(us[0]), 1000)
    refined = max(refined, -float(_v_phase(r, k).real),  # the u -> 0 limit
                  float(np.max(-_ratio_v_over_k0(r, k, origin))))
    if envelope > _SAFETY * refined:
        raise SearchError(
            f"V/K0 for (r={r}, k={k}) has not decayed below its scanned "
            f"infimum {refined:.6g} (envelope {envelope:.6g}) where the "
            "scaled Bessel function stops being finite")
    bound = _SAFETY / refined
    if not math.isfinite(bound):
        raise SearchError(
            f"amplitude bound for (r={r}, k={k}) is not finite: {bound!r}")
    return bound


def certify_nonnegative(member_eval, x_lo, x_hi, n, seed):
    """Monte Carlo recheck: (member >= 0 at every sample point, least value).

    The sample is n log-uniform points on [x_lo, x_hi] from
    default_rng(seed), sorted; member_eval sees it in consecutive blocks
    of _SCAN_POINTS (4,000) points, so one block's arrays are alive at a
    time, and the result is what one call on the whole sample gives.
    `class --find-gamma-max --mc-seed` rechecks W + gamma_max omega at
    20,000 points on [1e-8, 1e6] at the bound it has just certified,
    without a second search.  A member value that is not finite raises
    ConvergenceError at the first such x.
    """
    _check_int(seed, "seed", 0)
    _check_int(n, "n", 1)
    if not 0.0 < x_lo < x_hi < math.inf:
        raise ConstraintError(
            f"the sample needs 0 < x_lo < x_hi < inf, got [{x_lo!r}, {x_hi!r}]")
    rng = np.random.default_rng(seed)
    xs = rng.uniform(math.log(x_lo), math.log(x_hi), size=n)
    np.exp(xs, out=xs)
    xs.sort()
    least = math.inf
    for start in range(0, n, _SCAN_POINTS):
        block = xs[start:start + _SCAN_POINTS]
        vals = member_eval(block)
        finite = np.isfinite(vals)
        if not np.all(finite):
            i = int(np.argmin(finite))
            raise ConvergenceError(
                f"member value {float(vals[i])} at x = {block[i]:.6g} is not "
                "finite; cannot recheck its sign")
        least = min(least, float(np.min(vals)))
    return least >= 0.0, least
