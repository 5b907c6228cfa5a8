"""Gamma-product moment sequences, kept in log domain.

A sequence is rho(n) = prod_j Gamma(a_j n + b_j), stored as its factor
list; `family` reads the paper's families off it.  The named constructors:

    TM1: (2rn)!          factors [(2r, 1)]
    TM2: [(rn)!]^2       factors [(r, 1), (r, 1)]
    TM3: [(rn)!]^3       factors [(r, 1)] * 3
    TM4: (2rn)!.[(rn)!]^2  factors [(2r, 1), (r, 1), (r, 1)]

Values like (4n)! leave the double range at n = 43, so nothing here ever
exponentiates: moments are ln rho(n), Mellin symbols are log-gamma sums.
A = sum_j a_j, which decides determinacy, is kept exact: a descriptor's
multipliers as typed ('0.7', '2/3'), else the multipliers' binary values.
"""

from __future__ import annotations

import collections
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ConstraintError, _check_int
from .special import ln_gamma

__all__ = [
    "MomentSequence",
    "tm1",
    "tm2",
    "tm3",
    "tm4",
    "gamma_product",
    "log_moment",
    "mellin_symbol",
    "parse_descriptor",
]


@dataclass(frozen=True)
class MomentSequence:
    factors: tuple  # of (a, b) pairs, rho(n) = prod Gamma(a*n + b)
    label: str = field(default="", compare=False)
    # A as typed, an integer ratio (num, den) set by parse_descriptor
    typed_sum_a: tuple = field(default=None, init=False, repr=False,
                               compare=False)

    def __post_init__(self):
        if not self.factors:
            raise ConstraintError("at least one gamma factor required")
        for a, b in self.factors:
            if a <= 0:
                raise ConstraintError(f"gamma factor multiplier must be > 0, got {a}")
            # b > 0 keeps every pole left of s = 1: rho(0) = prod Gamma(b_j)
            # is finite and W's exponent (b - a)/a at 0 exceeds -1, rounded
            if not (b > 0 and (b - a) / a > -1.0):
                raise ConstraintError("gamma factor offset must be > 0 and "
                                      f"(b - a)/a > -1, got ({a:g}, {b:g})")

    @property
    def sum_a(self) -> float:
        """Total gamma 'weight'; controls contour decay and tail power."""
        return sum(a for a, _ in self.factors)

    @property
    def critical_gap(self) -> float:
        """1 - 2/A from the exact A, rounded once: positive exactly when
        A > 2, where the Carleman sum converges and the Krein integral is
        finite."""
        num, den = self.typed_sum_a or _ratio_sum(
            (int(a) if isinstance(a, (int, np.integer)) else float(a))
            .as_integer_ratio() for a, _ in self.factors)
        return (num - 2 * den) / num

    @property
    def rightmost_pole(self) -> float:
        """Rightmost pole of the continued symbol rho(s-1)."""
        return max(1.0 - b / a for a, b in self.factors)

    @property
    def tail_power(self) -> float:
        """p in  -ln W(x) ~ g x^p  for the principal density."""
        return 1.0 / self.sum_a

    @property
    def tail_coefficient(self) -> float:
        """g in  -ln W(x) ~ g x^p: prod over the distinct multipliers a, m
        factors each, of (A/a)^{m a/A}; exactly 1, 2, 3 for tm1, tm2, tm3."""
        big_a = self.sum_a
        counts = collections.Counter(a for a, _ in self.factors)
        return math.prod((big_a / a) ** (m * a / big_a) for a, m in counts.items())

    @property
    def tail_exponent(self) -> float:
        """b in  W(x) ~ C x^b e^{-g x^p}  as x -> inf (Fox H asymptotics)."""
        return (sum(b - 0.5 for _, b in self.factors) + 0.5) / self.sum_a - 1.0

    @property
    def tail_log_constant(self) -> float:
        """ln C in  W(x) ~ C x^b e^{-g x^p}: with m factors and
        h = prod_j a_j^{a_j}, ln C = (m-1)/2 ln 2pi - (ln A)/2
        + sum_j (b_j - 1/2) ln a_j - (b+1) ln h; -ln a for one factor."""
        log_h = sum(a * math.log(a) for a, _ in self.factors)
        return (0.5 * (len(self.factors) - 1) * math.log(2.0 * math.pi)
                - 0.5 * math.log(self.sum_a)
                + sum((b - 0.5) * math.log(a) for a, b in self.factors)
                - (self.tail_exponent + 1.0) * log_h)

    @property
    def alpha0(self) -> float:
        """Exponent of the principal density at the origin (log factors
        aside): min (b - a)/a, one rounding for integer factors, never -0.0."""
        return min((b - a) / a for a, b in self.factors)

    @property
    def family(self):
        """("tm1" | "tm2" | "tm3", r), or None: one factor (a, b) has
        r = a/2, two or three equal factors (a, 1) with integer a have
        r = a, and no other list has a family.  An integral r is an int."""
        (a, b), m = self.factors[0], len(self.factors)
        if m == 1:
            r = a / 2
            return "tm1", int(r) if r.is_integer() else r
        if (m < 4 and b == 1 and float(a).is_integer()
                and self.factors.count((a, b)) == m):
            return f"tm{m}", int(a)
        return None

    def descriptor(self) -> str:
        if self.label:
            return self.label
        terms = ",".join(_format_factor(a, b) for a, b in self.factors)
        return f"gamma:{terms}"


def tm1(r: int) -> MomentSequence:
    _check_int(r, "r", 1)
    return MomentSequence(((2 * r, 1),), label=f"tm1:r={r}")


def tm2(r: int) -> MomentSequence:
    _check_int(r, "r", 1)
    return MomentSequence(((r, 1), (r, 1)), label=f"tm2:r={r}")


def tm3(r: int) -> MomentSequence:
    _check_int(r, "r", 1)
    return MomentSequence(((r, 1),) * 3, label=f"tm3:r={r}")


def tm4(r: int) -> MomentSequence:
    _check_int(r, "r", 1)
    return MomentSequence(((2 * r, 1), (r, 1), (r, 1)), label=f"tm4:r={r}")


def gamma_product(factors, label="") -> MomentSequence:
    return MomentSequence(tuple((float(a), float(b)) for a, b in factors),
                          label=label)


def _ratio_sum(ratios):
    """Sum of integer ratios (num, den), den > 0, as one unreduced ratio."""
    num, den = 0, 1
    for p, q in ratios:
        num, den = num * q + p * den, den * q
    return num, den


def log_moment(seq: MomentSequence, n) -> float:
    """ln rho(n) = sum_j ln Gamma(a_j n + b_j); vectorized over n >= 0.

    Every argument is real, so each term is `math.lgamma`, element by
    element.  A term at a pole of Gamma or past the double range is +inf,
    and NaN stays NaN; scalar in, float out, and an array keeps its shape.
    """
    n = np.asarray(n, dtype=np.float64)
    out = sum(_ln_gamma_real(a * n + b) for a, b in seq.factors)
    return float(out) if out.ndim == 0 else out


def _ln_gamma_real(z):
    """ln |Gamma(z)| elementwise over a float64 array; +inf where
    math.lgamma raises (a pole, or a value past the double range)."""
    def term(v):
        try:
            return math.lgamma(v)
        except (OverflowError, ValueError):
            return math.inf
    return np.array([term(v) for v in z.ravel().tolist()]).reshape(z.shape)


def mellin_symbol(seq: MomentSequence, s):
    """Log of the continued symbol rho(s-1); complex, on s's shape (a
    scalar s gives a complex).  A pole of a factor raises PoleError."""
    s = np.asarray(s, dtype=np.complex128)
    a, b, mult = (v.reshape(v.shape + (1,) * s.ndim)
                  for v in _factor_columns(seq))
    # one ln_gamma call takes every factor; rows add in factor order
    return (mult * ln_gamma(a * (s - 1.0) + b)).sum(axis=0)[()]


def _grouped_factors(seq):
    """((a, b), multiplicity) for each distinct factor, in first-seen order."""
    return collections.Counter(seq.factors).items()


def _factor_columns(seq):
    """(a, b, multiplicity) of the distinct factors as three float arrays,
    in _grouped_factors' order."""
    return tuple(np.array(column, dtype=float) for column in
                 zip(*((a, b, mult) for (a, b), mult in _grouped_factors(seq))))


_TM_RE = re.compile(r"^(tm[1-4]):r=(\d+)$")
_TERM_RE = re.compile(r"^\s*(?:(\d+(?:\.\d+)?|\d+/\d+)\s*)?n\s*([+-]\s*\d+(?:\.\d+)?|[+-]\s*\d+/\d+)?\s*$")


def _parse_number(text):
    """A number as typed ('d', 'd.ddd' or 'p/q'): its integer ratio
    (num, den) and its value num/den, rounded once."""
    if "/" in text:
        num, den = text.split("/")
    else:
        whole, _, frac = text.partition(".")
        num, den = whole + frac, 10 ** len(frac)
    try:
        num, den = int(num), int(den)
        return (num, den), num / den
    except ZeroDivisionError:
        raise ConstraintError(f"zero denominator in {text!r}") from None
    except (OverflowError, ValueError):  # past the double range, or int's
        raise ConstraintError(f"{text!r} leaves the double range") from None


def _format_factor(a, b):
    a_s = f"{a:g}" if a != 1 else ""
    return f"{a_s}n+{b:g}"


def parse_descriptor(text: str) -> MomentSequence:
    """Parse 'tm1:r=2' / 'gamma:2n+1,n+1,n+1' into a MomentSequence."""
    text = text.strip().lower()
    m = _TM_RE.match(text)
    if m:
        kind, r = m.group(1), int(m.group(2))
        return {"tm1": tm1, "tm2": tm2, "tm3": tm3, "tm4": tm4}[kind](r)
    if text.startswith("gamma:"):
        factors, typed = [], []
        for term in text[len("gamma:"):].split(","):
            tm = _TERM_RE.match(term)
            if not tm:
                raise ConstraintError(f"cannot parse gamma factor {term!r}")
            a, a_value = _parse_number(tm.group(1) or "1")
            b = _parse_number(tm.group(2).replace(" ", ""))[1] if tm.group(2) else 0.0
            factors.append((a_value, b))
            typed.append(a)
        seq = gamma_product(factors, label=text)
        object.__setattr__(seq, "typed_sum_a", _ratio_sum(typed))
        return seq
    raise ConstraintError(f"unknown sequence descriptor {text!r}")
