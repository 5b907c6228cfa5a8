"""Gamma-product moment sequences, kept in log domain.

A sequence is rho(n) = prod_j Gamma(a_j n + b_j), stored as its factor
list; `family` reads the paper's families off it.  The named constructors:

    TM1: (2rn)!          factors [(2r, 1)]
    TM2: [(rn)!]^2       factors [(r, 1), (r, 1)]
    TM3: [(rn)!]^3       factors [(r, 1)] * 3
    TM4: (2rn)!.[(rn)!]^2  factors [(2r, 1), (r, 1), (r, 1)]

Values like (4n)! leave the double range at n = 43, so nothing here ever
exponentiates: moments are ln rho(n), Mellin symbols are log-gamma sums.
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

    def __post_init__(self):
        if not self.factors:
            raise ConstraintError("at least one gamma factor required")
        for a, b in self.factors:
            if a <= 0:
                raise ConstraintError(f"gamma factor multiplier must be > 0, got {a}")
            # b > 0 keeps every pole left of s = 1: rho(0) = prod Gamma(b_j)
            # is finite and the density's exponent at the origin exceeds -1
            if not b > 0:
                raise ConstraintError(f"gamma factor offset must be > 0, got {b}")

    @property
    def sum_a(self) -> float:
        """Total gamma 'weight'; controls contour decay and tail power."""
        return sum(a for a, _ in self.factors)

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
        """beta in  W(x) ~ C x^beta e^{-g x^p}  as x -> inf (Fox H asymptotics)."""
        return (sum(b - 0.5 for _, b in self.factors) + 0.5) / self.sum_a - 1.0

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


def log_moment(seq: MomentSequence, n) -> float:
    """ln rho(n) = sum_j ln Gamma(a_j n + b_j); vectorized over n >= 0.

    Every argument is real, so each term is `math.lgamma`, element by
    element, and no SciPy module is loaded.  A term at a pole of Gamma or
    past the double range is +inf, and NaN stays NaN; scalar in, float
    out, and an array keeps its shape.
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
    """Log of the continued symbol rho(s-1); complex, vectorized over s."""
    s_arr = np.asarray(s, dtype=np.complex128)
    scalar = s_arr.ndim == 0
    flat = np.atleast_1d(s_arr).ravel()
    out = np.zeros_like(flat)
    for (a, b), mult in _grouped_factors(seq):
        out += mult * ln_gamma(a * (flat - 1.0) + b)  # raises PoleError on poles
    if scalar:
        return complex(out[0])
    return out.reshape(s_arr.shape)


def _grouped_factors(seq):
    counts = {}
    for fac in seq.factors:
        counts[fac] = counts.get(fac, 0) + 1
    return counts.items()


_TM_RE = re.compile(r"^(tm[1-4]):r=(\d+)$")
_TERM_RE = re.compile(r"^\s*(?:(\d+(?:\.\d+)?|\d+/\d+)\s*)?n\s*([+-]\s*\d+(?:\.\d+)?|[+-]\s*\d+/\d+)?\s*$")


def _parse_number(text):
    if "/" in text:
        num, den = text.split("/")
        if float(den) == 0.0:
            raise ConstraintError(f"zero denominator in {text!r}")
        return float(num) / float(den)
    return float(text)


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
        factors = []
        for term in text[len("gamma:"):].split(","):
            tm = _TERM_RE.match(term)
            if not tm:
                raise ConstraintError(f"cannot parse gamma factor {term!r}")
            a = _parse_number(tm.group(1)) if tm.group(1) else 1.0
            b = _parse_number(tm.group(2).replace(" ", "")) if tm.group(2) else 0.0
            factors.append((a, b))
        return gamma_product(factors, label=text)
    raise ConstraintError(f"unknown sequence descriptor {text!r}")
