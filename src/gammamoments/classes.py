"""Vanishing-moment perturbations and the non-unique solution families.

One rule serves every product rho(n) = prod_j Gamma(a_j n + b_j).  Its
star factor (a*, b*) is the first with the largest multiplier, and omega
= W_rest * omega1 is the Mellin convolution of the other factors' density
with the star factor's first-family perturbation omega1 (w1 times a
sine).  With theta = k pi / a* and ln mu = a* ln sec(theta) it is
sec^{a*-b*}(theta) Im W(mu e^{-i k pi} x), one rotated contour sum
(`_log_rotated`), which decays only while a* > 2|k|; tm1's omega1 and
tm2's K0 ratio are its closed forms.  W + gamma omega = W_rest * (w1 +
gamma omega1) and |omega1| <= w1, so every |gamma| <= 1 gives a density.

`perturbation(seq, k)` is the one constructor; it checks k and a* > 2|k|
once, and family, r (None past tm3) and the tail law are seq's.
`class_member(seq, k, amplitude, x)` adds amplitude * omega to seq's
principal density once the amplitude is finite, then |eps| < 1 for one
factor, else within find_gamma_max(perturbation): one search, for every
product, of omega / W read off the two log forms, zoomed in on its worst
point (not certified; >= 0.99 by the floor above), run only for |gamma|
> 0.99.  Perturbations are evaluated in ln x, as densities are, by
`Perturbation.log_density` (ln x -> sign omega, ln |omega|); `evaluate(x)`
is the entry in linear x, through `errors._at_x`, and `omega2` and
`omega3` evaluate it for tm2 and tm3.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConstraintError, ConvergenceError, SearchError,
                     _at_x, _check_int)
from .mellin import _contour_sums, mellin_convolve_many
from .moments import MomentSequence, tm1, tm2, tm3
from .special import bessel_k0e
from .weights import _log_w1, _log_w2_front, principal_solution, w1

__all__ = ["Perturbation", "omega2", "omega2_via_convolution", "omega3",
           "perturbation_tm1", "perturbation_tm2", "perturbation_tm3",
           "perturbation", "class_member", "find_gamma_max",
           "certify_nonnegative"]


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
    def family(self):  # "tm1" | "tm2" | "tm3" | None
        return (self.seq.family or (None, None))[0]

    @property
    def r(self):  # a/2 for the first family's factor (a, b), an int, None
        return (self.seq.family or (None, None))[1]

    @property
    def growth(self) -> tuple:  # (g, p): -ln |omega| <~ g x^p in the tail
        return (self.seq.tail_coefficient, self.seq.tail_power)

    def evaluate(self, x):
        return _at_x(self.log_density, x)


def _signed_log(log_rest, factor):
    """(sign factor, log_rest + ln |factor|); a zero factor gives -inf."""
    with np.errstate(divide="ignore"):
        return np.sign(factor), log_rest + np.log(np.abs(factor))


def _star_factor(seq):
    """(a*, b*): the first factor of seq with the largest multiplier."""
    return max(seq.factors, key=lambda factor: factor[0])


def _name(seq):  # for messages: r=<r> in the paper's families
    return f"r={seq.family[1]}" if seq.family else seq.descriptor()


def _check_rotation(seq, k):
    """omega with index k rotates seq's star factor Gamma(an + b) by k pi/a
    and decays only while |k pi/a| < pi/2: k is a nonzero integer, a > 2|k|."""
    if not isinstance(k, (int, np.integer)) or k == 0:
        raise ConstraintError(f"k must be a nonzero integer, got {k!r}")
    a = _star_factor(seq)[0]
    if not a > 2 * abs(k):
        raise ConstraintError(
            "omega rotates its factor Gamma(an + b) by k pi/a, so it needs "
            f"a > 2|k| (a={a:g}, {_name(seq)}, k={k})")


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


def _scaled_v(r, k, u):
    """e^{2u} V(2u) at u = x^{1/2r}, V(z) = Re[phase K0(z beta)].

    K0(w) = k0e(w) e^{-w}, so this is Re[phase k0e(2u beta)
    e^{-2u(beta - 1)}], which stays finite where V underflows.  Its
    callers have checked (r, k).
    """
    beta = _beta(r, k)
    z = 2.0 * np.asarray(u, dtype=float)
    return np.real(_v_phase(r, k)
                   * (bessel_k0e(z * beta) * np.exp(-z * (beta - 1.0))))


def _log_omega2(r, k, log_x):
    """(sign, ln |omega2|) at ln x: ln W2 with V in place of K0(2u), so
    only the complex K0 is evaluated."""
    front = _log_w2_front(r, log_x)
    u = np.exp(np.asarray(log_x, dtype=float) / (2.0 * r))
    return _signed_log(front - 2.0 * u, _scaled_v(r, k, u))


def omega2(r, k, x):
    """Second-family perturbation, W2 times the complex-K0 ratio V/K0."""
    return perturbation_tm2(r, k).evaluate(x)


def omega2_via_convolution(r, k, x):
    """Same function by the convolution route (half-index densities)."""
    _check_rotation(tm2(r), k)
    return mellin_convolve_many(
        lambda v: w1(r, v),
        lambda v: _at_x(lambda lx: _log_omega1(r, k, lx), v),
        x,
        log_f=lambda v: _log_w1(r, np.log(v)),
        log_g=lambda v: _log_w1(r, np.log(v)))


def perturbation_tm2(r, k) -> Perturbation:
    return perturbation(tm2(r), k)


# -- every other product: one rotated contour sum --------------------------

def _log_rotated(seq, k, log_x):
    """(sign, ln |omega|) at ln x: W_rest * omega1(a*, k; b*), one contour.

    With theta = k pi / a*, omega1(x) = sec^{a*-b*}(theta) Im w1(lambda x),
    ln lambda = a* ln sec(theta) - i k pi.  Mellin transforms turn
    f(lambda .) into lambda^-s M[f] and the convolution into M[W_rest]
    M[w1] = M[W], so omega(x) = sec^{a*-b*}(theta) Im W(lambda x): seq's
    contour sum with e^{i k pi s} in the symbol, at L = ln x + ln |lambda|.
    """
    a, b = _star_factor(seq)
    lx = np.asarray(log_x, dtype=float)
    log_sec = -math.log(math.cos(math.pi * k / a))
    scale, total = _contour_sums(seq, lx + a * log_sec, math.pi * k)
    sign, log_abs = _signed_log(scale + (a - b) * log_sec
                                - math.log(2.0 * math.pi), total.imag)
    return sign.reshape(lx.shape), log_abs.reshape(lx.shape)


def omega3(r, k, x):
    """Third-family perturbation W2 * omega1(r, k), by one contour."""
    return perturbation_tm3(r, k).evaluate(x)


def perturbation_tm3(r, k) -> Perturbation:
    return perturbation(tm3(r), k)


# -- class members ----------------------------------------------------------

def perturbation(seq, k) -> Perturbation:
    """omega with index k of seq's principal density: W_rest * omega1."""
    _check_rotation(seq, k)
    (family, r), (a, b) = seq.family or (None, None), seq.factors[0]
    log_omega = {"tm1": lambda log_x: _log_omega1(a, k, log_x, b),
                 "tm2": lambda log_x: _log_omega2(r, k, log_x)}.get(
        family, lambda log_x: _log_rotated(seq, k, log_x))
    return Perturbation(k=k, seq=seq, log_density=log_omega)


def class_member(seq, k, amplitude, x):
    """W + amplitude * omega at x, for an admissible amplitude."""
    return _member_columns(perturbation(seq, k), amplitude, x)[2]


def _member_columns(pert, amplitude, x):
    """(W, omega, W + amplitude * omega) at x, for an admissible amplitude.

    The amplitude bound is searched, not certified, so a member negative
    at some x is refused.  Where W is past the double range (inf) the
    member is W (1 + amplitude omega / W): inf with the sign of 1 +
    amplitude omega / W, in place of the nan of inf - inf.
    """
    _check_amplitude(pert, amplitude)
    w = principal_solution(pert.seq)
    base = w.evaluate(x)
    omega = pert.evaluate(x)
    member = np.array(base, dtype=np.float64)  # a copy, also for a scalar x
    over = np.isinf(member)
    member[~over] += amplitude * np.asarray(omega)[~over]
    if np.any(over):
        ratio = _ratio(pert, w, np.log(np.asarray(x, dtype=np.float64)[over]))
        member[over] = np.copysign(np.inf, 1.0 + amplitude * ratio)
    member = member if member.ndim else float(member)
    negative = np.ravel(member) < 0.0
    if np.any(negative):
        i = int(np.argmax(negative))
        raise ConstraintError(
            f"W + {amplitude:.6g} * omega is negative at x = "
            f"{np.ravel(x)[i]:.6g} ({np.ravel(member)[i]:.6g}); "
            f"amplitude too large for {pert.seq.descriptor()}, k={pert.k}")
    return base, omega, member


def _ratio(pert, w, log_x):
    """omega / W at ln x, read off the two log forms."""
    sign, log_omega = pert.log_density(log_x)
    return sign * np.exp(log_omega - w.log_density(log_x))


def _check_amplitude(pert, amplitude):
    """Reject an amplitude that could make W + amplitude * omega negative.

    Every product needs a finite amplitude.  tm1 then needs |eps| < 1, and
    every other product gamma <= find_gamma_max(pert) for gamma >= 0; since
    omega(-k) = -omega(k), a negative gamma meets the bound of -k.  Every
    such bound is at least _SAFETY (|omega| <= W), so |gamma| <= _SAFETY
    needs no search.
    """
    if not math.isfinite(amplitude):
        raise ConstraintError(
            f"class members need a finite amplitude, got {amplitude}")
    if pert.family == "tm1":
        if not abs(amplitude) < 1.0:
            raise ConstraintError(
                f"first family needs |eps| < 1, got {amplitude}")
        return
    if abs(amplitude) <= _SAFETY:
        return
    k = -pert.k if amplitude < 0.0 else pert.k
    bound = find_gamma_max(perturbation(pert.seq, k))
    if not abs(amplitude) <= bound:
        raise ConstraintError(
            f"|gamma| = {abs(amplitude):.6g} exceeds the amplitude bound "
            f"{bound:.6g} for ({_name(pert.seq)}, k={k})")


# -- amplitude search -------------------------------------------------------

_SCAN_POINTS = 4000  # amplitude scan grid; block of the Monte Carlo recheck
_SAFETY = 0.99  # fraction of the searched amplitude bound returned


def _search_inputs(pert):
    """(ratio, c, limit) of omega / W in u = x^{1/A}, read off the two log
    forms: |ratio| ~ e^{-c u} at infinity and limit is its x -> 0 limit.
    W ~ e^{-g u}, so c = g (mu^{1/A} cos(k pi/A) - 1), and as x -> 0 omega
    and W follow W's rightmost pole p0: the limit is mu^{p*-p0} sin(k pi
    p0), p* = 1 - b*/a*.  tm1 has the exact rule |eps| < 1 and no search.
    """
    seq, k = pert.seq, pert.k
    if pert.family == "tm1":
        raise ConstraintError(
            f"{seq.descriptor()} members take the exact amplitude rule "
            "|eps| < 1; there is no bound to search")
    (a, b), big_a = _star_factor(seq), seq.sum_a
    w, theta = principal_solution(seq), math.pi * k / a
    # mu^{1/A} cos(k pi/A) and k pi p0 = theta (a - b) + k pi (p0 - p*),
    # in the forms exact where the star factor holds p0, as for tm2 and tm3
    root = math.cos(theta / (big_a / a)) / math.cos(theta) ** (a / big_a)
    p_star, p0 = 1.0 - b / a, seq.rightmost_pole
    limit = (math.exp(-a * math.log(math.cos(theta)) * (p_star - p0))
             * math.sin(theta * (a - b) + math.pi * k * (p0 - p_star)))
    return (lambda u: _ratio(pert, w, big_a * np.log(u)),
            seq.tail_coefficient * (root - 1.0), limit)


def find_gamma_max(pert):
    """Largest gamma keeping 1 + gamma omega / W >= 0, times _SAFETY.

    The ratio decays at infinity and tends to its limit at the origin only
    like 1/ln x, so its infimum may be that limit.  The scan runs in u =
    x^{1/A} (A = seq.sum_a) from x = 1e-8 to where e^{-c u} = 1e-8 (see
    _search_inputs), zooms in on its worst point, and takes the least of
    that, the limit and a coarse scan of u down to 1e-150.  The bound is
    searched, not certified, and holds for gamma >= 0; omega(-k) =
    -omega(k), so a negative gamma meets the bound of -k.  |omega| <= W
    makes every bound at least _SAFETY, and the scan needs a ratio finite
    up to its end.
    """
    ratio, decay, limit = _search_inputs(pert)
    a, name = pert.seq.sum_a, f"({_name(pert.seq)}, k={pert.k})"
    if not decay > 0.0:
        raise SearchError(
            f"the decay rate of omega/W rounds to {decay!r} for {name}: it "
            "does not decay in double precision; cannot bound the amplitude")
    us = np.logspace(-8.0 / a, math.log10(math.log(1e8) / decay),
                     _SCAN_POINTS)
    neg = -ratio(us)
    i = int(np.argmax(neg))
    worst = float(neg[i])
    if worst <= 0.0:
        raise SearchError(
            f"omega/W never negative on the scan grid for {name}; "
            "cannot bound the amplitude")
    # zoom in log u: 33 points across the bracket, keep the neighbours of
    # the largest -omega/W, until the bracket is xatol wide; a bracket a
    # few ulps wide stops shrinking, so xatol never goes below 64 ulps
    lo = math.log(us[max(i - 1, 0)])
    hi = math.log(us[min(i + 1, us.size - 1)])
    xatol = max(1e-10 / a, 64.0 * np.spacing(max(abs(lo), abs(hi))))
    refined = worst
    while hi - lo > xatol:
        vs = np.linspace(lo, hi, 33)
        vals = -ratio(np.exp(vs))
        j = int(np.argmax(vals))
        refined = max(refined, float(vals[j]))
        lo, hi = vs[max(j - 1, 0)], vs[min(j + 1, vs.size - 1)]
    if refined > 10.0 * worst:
        raise SearchError(
            f"omega/W infimum kept growing under refinement for {name}; "
            "ratio may be unbounded")
    origin = np.logspace(-150.0, math.log10(us[0]), 1000)
    refined = max(refined, -limit, float(np.max(-ratio(origin))))
    bound = _SAFETY / refined
    if not 0.0 < bound < math.inf:
        raise SearchError(f"amplitude bound for {name} is {bound!r}: omega/W "
                          "is not finite on the scan")
    return bound


def certify_nonnegative(member_eval, x_lo, x_hi, n, seed):
    """Monte Carlo recheck: (member >= 0 at every sample point, least value).

    The sample is xs = sort(exp(lo + (hi - lo) u)), lo = ln x_lo and
    hi = ln x_hi, for the n draws u of random.Random(seed).random(): n
    log-uniform points from the standard library's Mersenne Twister,
    whose stream for a seed Python keeps across versions; NumPy's
    random stack, which would cost a process about 6 MB of RSS, is
    never imported.  member_eval sees the sample in consecutive blocks
    of _SCAN_POINTS (4,000) points, so one block's arrays are alive at a
    time, and the result is what one call on the whole sample gives.
    `class --find-gamma-max --mc-seed` rechecks W + gamma_max omega at
    20,000 points on [1e-8, 1e6] at the bound it has just searched,
    without a second search.  A member value that is not finite raises
    ConvergenceError at the first such x.
    """
    _check_int(seed, "seed", 0)
    _check_int(n, "n", 1)
    if not 0.0 < x_lo < x_hi < math.inf:
        raise ConstraintError(
            f"the sample needs 0 < x_lo < x_hi < inf, got [{x_lo!r}, {x_hi!r}]")
    rng = random.Random(seed)
    lo, hi = math.log(x_lo), math.log(x_hi)
    xs = np.exp(lo + (hi - lo) * np.array([rng.random() for _ in range(n)]))
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
