"""Moment sequences: exact big-integer oracles, symbols, descriptors."""

import dataclasses
import math

import numpy as np
import pytest

from gammamoments import (ConstraintError, carleman, gamma_product,
                          log_moment, mellin_symbol, parse_descriptor, tm1,
                          tm2, tm3, tm4)


def _exact_log_rho(kind, r, n):
    """ln rho(n) via Python big-integer factorials (exact arithmetic)."""
    f = math.factorial
    value = {
        "tm1": lambda: f(2 * r * n),
        "tm2": lambda: f(r * n) ** 2,
        "tm3": lambda: f(r * n) ** 3,
        "tm4": lambda: f(2 * r * n) * f(r * n) ** 2,
    }[kind]()
    return math.log(value)


@pytest.mark.parametrize("kind,factory", [
    ("tm1", tm1), ("tm2", tm2), ("tm3", tm3), ("tm4", tm4)])
@pytest.mark.parametrize("r", [1, 2, 3, 5])
def test_log_moment_vs_exact_factorials(kind, factory, r):
    seq = factory(r)
    for n in range(0, 13):
        want = _exact_log_rho(kind, r, n)
        got = log_moment(seq, n)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_log_moment_vectorized():
    seq = tm2(2)
    ns = np.arange(0, 9)
    got = log_moment(seq, ns)
    assert got.shape == ns.shape
    for n in ns:
        assert got[n] == pytest.approx(log_moment(seq, int(n)), rel=1e-15)


class TestLogMomentEdges:
    """ln rho(n) at a pole, past the double range and at non-finite n."""

    def test_pole_and_overflow_give_inf(self):
        seq = tm1(1)  # rho(n) = Gamma(2n + 1)
        assert log_moment(seq, 1e306) == math.inf  # ln Gamma overflows
        assert log_moment(seq, -1.0) == math.inf  # Gamma(-1) is a pole
        assert log_moment(seq, math.inf) == math.inf
        assert math.isnan(log_moment(seq, math.nan))
        assert type(log_moment(seq, -1.0)) is float

    def test_mixed_array_keeps_shape(self):
        ns = np.array([[0.0, 1e306, 2.0], [-1.0, math.nan, math.inf]])
        got = log_moment(tm2(1), ns)
        assert got.shape == ns.shape
        assert got[0, 0] == 0.0
        assert got[0, 2] == pytest.approx(2.0 * math.log(2.0), rel=1e-15)
        assert got[0, 1] == got[1, 0] == got[1, 2] == math.inf
        assert math.isnan(got[1, 1])


_ORACLE_SEQS = ([make(r) for make in (tm1, tm2, tm3) for r in range(1, 13)]
                + [tm4(r) for r in range(1, 7)]
                + [parse_descriptor(d) for d in (
                    "gamma:2.02n+1", "gamma:2.02n+0.5",
                    "gamma:2.5n+1,0.5n+0.7")])


def test_log_moment_mpmath_oracle_seeded():
    # each term a double's math.lgamma: within a few ulp of ln rho(n) at
    # 50 digits, taken at the exact binary values of a_j and b_j
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(19)
    ns = list(range(9)) + [50, 200, 1000] + rng.integers(9, 1000, 6).tolist()
    worst = 0.0
    with mp.workdps(50):
        for seq in _ORACLE_SEQS:
            got = log_moment(seq, np.array(ns))
            for n, value in zip(ns, got):
                want = mp.fsum(mp.loggamma(mp.mpf(a) * n + mp.mpf(b))
                               for a, b in seq.factors)
                err = float(abs(value - want)) / max(1.0, abs(float(want)))
                worst = max(worst, err)
    assert worst <= 2e-15


@pytest.mark.parametrize("factory,r", [(tm1, 1), (tm1, 3), (tm2, 2),
                                       (tm3, 2), (tm4, 2)])
def test_mellin_symbol_interpolates_moments(factory, r):
    seq = factory(r)
    for n in range(0, 21):
        sym = mellin_symbol(seq, complex(n + 1))
        assert sym.real == pytest.approx(log_moment(seq, n), rel=1e-12,
                                         abs=1e-10)
        assert abs(sym.imag) < 1e-10


def test_mellin_symbol_conjugate_symmetry():
    seq = tm4(2)
    s = 1.5 + 2.5j
    assert abs(mellin_symbol(seq, np.conj(s))
               - np.conj(mellin_symbol(seq, s))) < 1e-12


class TestStructure:
    def test_factors(self):
        assert tm1(2).factors == ((4, 1),)
        assert tm2(3).factors == ((3, 1), (3, 1))
        assert tm3(2).factors == ((2, 1), (2, 1), (2, 1))
        assert tm4(2).factors == ((4, 1), (2, 1), (2, 1))

    def test_tail_laws(self):
        assert tm1(2).tail_power == pytest.approx(1 / 4)
        assert tm1(2).tail_coefficient == pytest.approx(1.0)
        assert tm2(2).tail_power == pytest.approx(1 / 4)
        assert tm2(2).tail_coefficient == pytest.approx(2.0)
        assert tm3(1).tail_power == pytest.approx(1 / 3)
        assert tm3(1).tail_coefficient == pytest.approx(3.0)
        assert tm4(1).tail_power == pytest.approx(1 / 4)
        assert tm4(1).tail_coefficient == pytest.approx(2.0 * math.sqrt(2.0))

    def test_origin_exponents(self):
        assert tm1(2).alpha0 == pytest.approx(-3 / 4)
        assert tm2(3).alpha0 == pytest.approx(-2 / 3)
        assert tm4(2).alpha0 == pytest.approx(-3 / 4)

    def test_named_laws_exact(self):
        # g = prod (A/a)^{m a/A} over the distinct multipliers a, and
        # alpha0 = min (b - a)/a: exact for the named kinds
        for r in range(1, 51):
            for make, g in ((tm1, 1.0), (tm2, 2.0), (tm3, 3.0)):
                assert make(r).tail_coefficient == g, (make.__name__, r)
            assert tm4(r).tail_coefficient == 2.0 * math.sqrt(2.0), r
            assert tm1(r).alpha0 == -(2 * r - 1) / (2 * r), r
            for make in (tm2, tm3):
                assert make(r).alpha0 == -(r - 1) / r, (make.__name__, r)

    def test_alpha0_never_negative_zero(self):
        for seq in (tm2(1), tm3(1), parse_descriptor("gamma:n+1")):
            assert math.copysign(1.0, seq.alpha0) == 1.0

    def test_tail_coefficient_groups_equal_multipliers(self):
        # Gamma(n+1) Gamma(n+1/2) = sqrt(pi) (2n)! / 4^n: -ln W ~ 2 x^{1/2}
        assert parse_descriptor("gamma:n+1,n+0.5").tail_coefficient == 2.0

    def test_invalid_r(self):
        for bad in (0, -1, 1.5):
            with pytest.raises(ConstraintError):
                tm1(bad)

    def test_empty_factors_rejected(self):
        with pytest.raises(ConstraintError):
            gamma_product([])

    @pytest.mark.parametrize("factors", [[(1.0, 0.0)], [(2.0, 1.0), (1.0, -0.5)],
                                         [(1.0, math.nan)]])
    def test_nonpositive_offset_rejected(self, factors):
        # b <= 0 puts a pole at or right of s = 1: rho(0) = Gamma(0) is
        # infinite and the moment window's A + 1 = 0 divided by zero
        with pytest.raises(ConstraintError, match="offset"):
            gamma_product(factors)


class TestFamilyRule:
    """One rule reads the paper's families off the factor list."""

    @pytest.mark.parametrize("text,family", [
        ("gamma:2.5n+0.7", ("tm1", 1.25)),
        ("gamma:4n+1", ("tm1", 2)),
        ("gamma:3n+1,3n+1", ("tm2", 3)),
        ("gamma:n+1,n+1,n+1", ("tm3", 1)),
        ("gamma:2.5n+1,2.5n+1", None),
        ("gamma:3n+2,3n+2", None),
        ("gamma:3n+1,2n+1", None),
        ("tm1:r=2", ("tm1", 2)),
        ("tm2:r=3", ("tm2", 3)),
        ("tm3:r=3", ("tm3", 3)),
        ("tm4:r=1", None),
    ])
    def test_family_table(self, text, family):
        got = parse_descriptor(text).family
        assert got == family
        if family is not None:
            # an integral r is an int, so messages print r=2, not r=2.0
            assert type(got[1]) is type(family[1])

    def test_only_factors_and_label_stored(self):
        names = [f.name for f in dataclasses.fields(tm3(2))]
        assert names == ["factors", "label"]
        # spellings of one factor list are one sequence
        assert parse_descriptor("gamma:2n+1,2n+1") == tm2(2)


class TestDescriptors:
    @pytest.mark.parametrize("text", ["tm1:r=2", "tm2:r=3", "tm3:r=1",
                                      "tm4:r=2"])
    def test_named_round_trip(self, text):
        seq = parse_descriptor(text)
        assert seq.descriptor() == text
        assert parse_descriptor(seq.descriptor()) == seq

    def test_unlabelled_round_trip(self):
        seq = gamma_product([(2, 1), (0.5, 0.7)])
        assert seq.descriptor() == "gamma:2n+1,0.5n+0.7"
        assert parse_descriptor(seq.descriptor()) == seq

    def test_gamma_form(self):
        seq = parse_descriptor("gamma:2n+1,n+1,n+1")
        assert seq.factors == ((2.0, 1.0), (1.0, 1.0), (1.0, 1.0))
        # same gamma content as tm4:r=1
        for n in range(6):
            assert log_moment(seq, n) == pytest.approx(
                log_moment(tm4(1), n), rel=1e-14)

    def test_fraction_multipliers(self):
        seq = parse_descriptor("gamma:2/3n+1,4/3n+1")
        assert seq.factors == ((2 / 3, 1.0), (4 / 3, 1.0))
        assert carleman(seq).verdict == "Divergent"  # A = 2

    def test_bad_descriptors(self):
        for text in ("tm5:r=2", "tm1:r=x", "gamma:frog", ""):
            with pytest.raises(ConstraintError):
                parse_descriptor(text)

    @pytest.mark.parametrize("text", ["gamma:1/0n+1", "gamma:2n+1/0",
                                      "gamma:n+1,0/0n+1"])
    def test_zero_denominator_rejected(self, text):
        # once a raw ZeroDivisionError from the fraction parser
        with pytest.raises(ConstraintError, match="zero denominator"):
            parse_descriptor(text)
