"""Vanishing-moment perturbations and the non-unique solution families.

omega1 is a sine-modulated copy of the first principal density, omega2 its
"near factorization" through complex K0, omega3 the Mellin convolution
W2 * omega1, evaluated as the imaginary part of W3 at a rotated argument
by the contour engine (the convolution route is kept as an oracle).  Class
members are principal solution + amplitude * omega; for the second family
the admissible amplitude is found by a grid search over the oscillating
ratio V/K0, refined by zooming in on the worst grid point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstraintError, SearchError
from .mellin import _contour_sums, mellin_convolve_many
from .moments import MomentSequence, tm1, tm2, tm3
from .special import bessel_k0_complex
from .weights import log_w1, log_w2, w1, w2, weight_tm2, weight_tm3

__all__ = [
    "Perturbation",
    "omega1",
    "omega2",
    "omega2_v",
    "omega2_via_convolution",
    "omega3",
    "omega3_via_convolution",
    "perturbation_tm1",
    "perturbation_tm2",
    "perturbation_tm3",
    "class_member_tm1",
    "class_member_tm2",
    "class_member_tm3",
    "find_gamma_max",
    "certify_nonnegative",
]


@dataclass(frozen=True)
class Perturbation:
    """A function on (0, inf) whose Stieltjes moments all vanish."""

    family: str  # "tm1" | "tm2" | "tm3"
    r: int
    k: int
    seq: MomentSequence  # yardstick rho(n) for "vanishing"
    growth: tuple  # (g, p): -ln |omega| <~ g x^p in the tail
    evaluate: object = field(repr=False)  # callable, vectorized

    def __call__(self, x):
        return self.evaluate(x)


def _check_k(k):
    if not isinstance(k, (int, np.integer)) or k == 0:
        raise ConstraintError(f"k must be a nonzero integer, got {k!r}")


# -- family 1 ---------------------------------------------------------------

def _sine_factor(q, k, x):
    phase0 = k * math.pi * (q - 1.0) / q
    slope = math.tan(k * math.pi / q)
    return np.sin(phase0 + np.asarray(x, dtype=float) ** (1.0 / q) * slope)


def omega1_general(q, k, x):
    """Vanishing-moment partner of the (qn)! density; needs q > 2|k|."""
    _check_k(k)
    if q <= 2 * abs(k):
        raise ConstraintError(f"omega1 factor requires q > 2|k| (q={q}, k={k})")
    return w1(q, x) * _sine_factor(q, k, x)


def _check_tm1(r, k):
    _check_k(k)
    if not r > abs(k):
        raise ConstraintError(f"first family requires r > |k| (r={r}, k={k})")


def omega1(r, k, x):
    """First-family perturbation; the side condition is r > |k|."""
    _check_tm1(r, k)
    return omega1_general(2 * r, k, x)


def perturbation_tm1(r, k) -> Perturbation:
    _check_tm1(r, k)
    return Perturbation(
        family="tm1", r=r, k=k, seq=tm1(r), growth=(1.0, 1.0 / (2.0 * r)),
        evaluate=lambda x, r=r, k=k: omega1(r, k, x))


# -- family 2 ---------------------------------------------------------------

def _check_tm2(r, k):
    _check_k(k)
    if not r > 2 * abs(k):
        raise ConstraintError(f"second family requires r > 2|k| (r={r}, k={k})")


def _beta(r, k):
    """Principal square root of 1 + i tan(pi k / r); Re > 0 for r > 2|k|."""
    return complex(np.sqrt(1.0 + 1j * math.tan(math.pi * k / r)))


def _v_phase(r, k):
    return np.exp(1j * math.pi * (0.5 - k * (r - 1.0) / r))


def omega2_v(r, k, x):
    """The oscillating factor V: Re[e^{i pi(1/2 - k(r-1)/r)} K0(2 x^{1/2r} beta)]."""
    _check_tm2(r, k)
    u = np.asarray(x, dtype=float) ** (1.0 / (2.0 * r))
    vals = bessel_k0_complex(2.0 * u * _beta(r, k))
    out = np.real(_v_phase(r, k) * vals)
    return float(out) if np.isscalar(x) else out


def omega2(r, k, x):
    """Second-family perturbation, closed form via complex K0."""
    xa = np.asarray(x, dtype=float)
    out = 2.0 / (r * xa ** ((r - 1.0) / r)) * omega2_v(r, k, x)
    return float(out) if np.isscalar(x) else out


def omega2_via_convolution(r, k, x, rtol=1e-9):
    """Same function by the convolution route (half-index densities)."""
    _check_tm2(r, k)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = mellin_convolve_many(
        lambda v: w1(r, v),
        lambda v: omega1_general(r, k, v),
        xs, rtol=rtol,
        log_f=lambda v: log_w1(r, v),
        log_g=lambda v: log_w1(r, v))
    return float(out[0]) if np.isscalar(x) else out


def perturbation_tm2(r, k) -> Perturbation:
    _check_tm2(r, k)
    return Perturbation(
        family="tm2", r=r, k=k, seq=tm2(r), growth=(2.0, 1.0 / (2.0 * r)),
        evaluate=lambda x, r=r, k=k: omega2(r, k, x))


# -- family 3 ---------------------------------------------------------------

def _check_tm3(r, k):
    # r > 2|k| makes the convolution partner omega1_general(r, k) decay
    _check_k(k)
    if not r > 2 * abs(k):
        raise ConstraintError(f"third family requires r > 2|k| (r={r}, k={k})")


def omega3(r, k, x, rtol=1e-9):
    """Third-family perturbation W2 * omega1_general(r, k), by one contour.

    With theta = k pi / r, omega1_general(r, k, x) = sec^{r-1}(theta)
    Im w1(r, lambda x), log lambda = r ln sec(theta) - i k pi, the
    continuation of w1 in log x (it decays because r > 2|k|).  Mellin
    transforms turn f(lambda .) into lambda^-s M[f] and the convolution
    into M[W2] M[w1(r, .)] = Gamma(r(s-1)+1)^3 = M[W3], so
    omega3(r, k, x) = sec^{r-1}(theta) Im W3(r, lambda x): the tm3 contour
    sum with e^{i k pi s} in the symbol, at L = ln x + r ln sec(theta).
    """
    _check_tm3(r, k)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xs <= 0):
        raise ConstraintError("omega3 requires x > 0")
    log_sec = -math.log(math.cos(math.pi * k / r))
    scale, total = _contour_sums(tm3(r), np.log(xs) + r * log_sec,
                                 math.pi * k, rtol)
    with np.errstate(under="ignore"):
        out = np.exp(scale + (r - 1) * log_sec) * (total.imag / (2.0 * np.pi))
    return float(out[0]) if np.isscalar(x) else out


def omega3_via_convolution(r, k, x, rtol=1e-9):
    """Same function by the convolution route, W2 * omega1_general(r, k)."""
    _check_tm3(r, k)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = mellin_convolve_many(
        lambda v: w2(r, v),
        lambda v: omega1_general(r, k, v),
        xs, rtol=rtol,
        log_f=lambda v: log_w2(r, v),
        log_g=lambda v: log_w1(r, v))
    return float(out[0]) if np.isscalar(x) else out


def perturbation_tm3(r, k) -> Perturbation:
    _check_tm3(r, k)
    seq = tm3(r)
    return Perturbation(
        family="tm3", r=r, k=k, seq=seq,
        growth=(seq.tail_coefficient, seq.tail_power),
        evaluate=lambda x, r=r, k=k: omega3(r, k, x))


# -- class members ----------------------------------------------------------

def class_member_tm1(r, k, eps, x):
    """W1 * [1 + eps * sin(...)]; nonnegative for |eps| < 1."""
    if not abs(eps) < 1.0:  # NaN fails too
        raise ConstraintError(f"first family needs |eps| < 1, got {eps}")
    _check_tm1(r, k)
    return w1(2 * r, x) * (1.0 + eps * _sine_factor(2 * r, k, x))


def class_member_tm2(r, k, gamma, x, gamma_bound=None):
    """W2 * [1 + gamma V/K0]; |gamma| must stay within the certified bound."""
    if gamma_bound is None:
        gamma_bound = find_gamma_max(r, k)
    if not abs(gamma) <= gamma_bound:  # a NaN bound certifies nothing
        raise ConstraintError(
            f"|gamma| = {abs(gamma):.6g} exceeds the certified bound "
            f"{gamma_bound:.6g} for (r={r}, k={k})")
    xa = np.asarray(x, dtype=float)
    ratio = _ratio_v_over_k0(r, k, xa ** (1.0 / (2.0 * r)))
    return weight_tm2(r).evaluate(xa) * (1.0 + gamma * ratio)


def class_member_tm3(r, k, gamma, x, rtol=1e-9):
    """W3 + gamma * omega3; the family the construction implies for [(rn)!]^3.

    No closed positivity bound exists here; callers certify nonnegativity
    numerically (certify_nonnegative) for their amplitude of interest.
    """
    _check_tm3_amplitude(gamma)
    xa = np.asarray(x, dtype=float)
    return weight_tm3(r).evaluate(xa) + gamma * omega3(r, k, xa, rtol=rtol)


def _check_tm3_amplitude(gamma):
    """Reject an amplitude that would make the member NaN or infinite."""
    if not math.isfinite(gamma):
        raise ConstraintError(
            f"third family needs a finite amplitude, got {gamma}")


# -- amplitude search -------------------------------------------------------

_KVE_MAX_ABS = 1e9  # scipy.special.kve(0, z) returns nan beyond |z| ~ 1.08e9
_SCAN_POINTS = 4000  # log-spaced u grid of the amplitude scan
_SAFETY = 0.99  # fraction of the certified amplitude bound returned


def _ratio_v_over_k0(r, k, u):
    """V/K0(2u) at u = x^{1/2r}, from exponentially scaled Bessel functions.

    K0(z) = kve(0, z) e^{-z}, so the ratio is
    Re[phase kve(0, 2u beta) e^{-2u(beta - 1)}] / k0e(2u), which stays
    finite where V underflows and 1/K0 overflows.
    """
    from scipy.special import k0e, kve

    _check_tm2(r, k)
    beta = _beta(r, k)
    z = 2.0 * np.asarray(u, dtype=float)
    scaled = kve(0, z * beta) * np.exp(-z * (beta - 1.0))
    return np.real(_v_phase(r, k) * scaled) / k0e(z)


def find_gamma_max(r, k):
    """Largest amplitude keeping 1 + gamma V/K0 nonnegative, times _SAFETY.

    The ratio tends to cos(pi(1/2 - k(r-1)/r)) at the origin and decays to
    zero at infinity (Re beta > 1), so its infimum lives on a finite window.
    The scan runs in u = x^{1/2r} over x in [1e-8, u*^{2r}], where the
    ratio has decayed by e^{-2u*(Re beta - 1)} = 1e-8, or where
    |2u beta| reaches _KVE_MAX_ABS if that comes first.  Beyond such a
    cut |V/K0| follows the envelope |phase| e^{-2u(Re beta - 1)} (the
    large-argument form of both Bessel functions), and the bound is
    certified only if that envelope stays below _SAFETY times the
    scanned infimum, the margin the bound itself keeps.
    """
    _check_tm2(r, k)
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
    """Monte Carlo recheck: member >= 0 on a random log-uniform grid."""
    rng = np.random.default_rng(seed)
    xs = np.exp(rng.uniform(math.log(x_lo), math.log(x_hi), size=n))
    vals = member_eval(np.sort(xs))
    bad = vals < 0.0
    return (not np.any(bad)), float(np.min(vals))
