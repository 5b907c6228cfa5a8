"""Property-based invariants: functional identities that must hold for
randomly drawn arguments, not just curated fixtures."""

import cmath
import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, seed, settings, strategies as st

from gammamoments import (full_report, gamma_product, ln_gamma,
                          log_bessel_k0, mellin_convolve_many, perturbation,
                          principal_solution, tm1, tm2, w1)

COMMON = dict(max_examples=120, deadline=None)

finite_re = st.floats(min_value=0.5, max_value=40.0,
                      allow_nan=False, allow_infinity=False)
finite_im = st.floats(min_value=-40.0, max_value=40.0,
                      allow_nan=False, allow_infinity=False)


class TestLogGamma:
    @settings(**COMMON)
    @given(finite_re, finite_im)
    def test_recurrence(self, re, im):
        z = complex(re, im)
        lhs = ln_gamma(z + 1.0)
        rhs = ln_gamma(z) + cmath.log(z)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    @settings(**COMMON)
    @given(finite_re, finite_im)
    def test_schwarz_reflection(self, re, im):
        z = complex(re, im)
        lhs = ln_gamma(z.conjugate())
        rhs = ln_gamma(z).conjugate()
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(rhs))


def _k0(x):
    return math.exp(log_bessel_k0(x))


class TestBessel:
    @settings(**COMMON)
    @given(st.floats(min_value=0.1, max_value=60.0))
    def test_derivative_identity(self, x):
        # d/dx K0(x) = -K1(x), checked against a central difference
        h = 1e-6 * max(1.0, x)
        numeric = (_k0(x + h) - _k0(x - h)) / (2.0 * h)
        assert numeric == pytest.approx(-scipy.special.k1(x), rel=1e-7)

    @settings(**COMMON)
    @given(st.floats(min_value=0.1, max_value=50.0))
    def test_positive_and_decreasing(self, x):
        assert _k0(x) > 0.0
        assert _k0(x * 1.01) < _k0(x)


class TestConvolution:
    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=2.0, max_value=6.0),
           st.floats(min_value=2.0, max_value=6.0),
           st.floats(min_value=0.05, max_value=50.0))
    def test_positivity(self, q1, q2, x):
        (val,) = mellin_convolve_many(lambda t: w1(q1, t),
                                      lambda t: w1(q2, t), [x])
        assert val > 0.0

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.1, max_value=20.0))
    def test_commutativity(self, x):
        (a,) = mellin_convolve_many(lambda t: w1(2.0, t),
                                    lambda t: w1(3.0, t), [x])
        (b,) = mellin_convolve_many(lambda t: w1(3.0, t),
                                    lambda t: w1(2.0, t), [x])
        assert a == pytest.approx(b, rel=1e-9)


class TestContourSymmetry:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([("tm3", 1), ("tm3", 2), ("tm4", 1), ("tm4", 2)]),
           st.floats(min_value=-4.0, max_value=4.0))
    def test_real_positive_density(self, kind_r, log10_x):
        # the symbol satisfies rho(conj s) = conj rho(s), so the inverse
        # transform must come out real and positive on (0, inf)
        from gammamoments import contour_log_density, tm3, tm4
        kind, r = kind_r
        seq = tm3(r) if kind == "tm3" else tm4(r)
        log_w, sign = contour_log_density(seq, 10.0 ** log10_x)
        assert sign > 0
        assert math.isfinite(log_w)


class TestPerturbationEnvelope:
    @settings(**COMMON)
    @given(st.sampled_from([(2, 1), (3, 1), (3, 2), (5, 2), (7, 3)]),
           st.floats(min_value=-6.0, max_value=6.0))
    def test_omega1_bounded_by_principal(self, rk, log10_x):
        r, k = rk
        x = 10.0 ** log10_x
        omega = perturbation(tm1(r), k).evaluate(x)
        assert abs(omega) <= w1(2 * r, x) * (1.0 + 1e-12)


closed_forms = st.one_of(
    st.builds(lambda a, b: gamma_product([(a, b)]),
              st.floats(min_value=0.1, max_value=10.0),
              st.floats(min_value=0.5, max_value=3.0)),
    st.builds(tm2, st.integers(min_value=1, max_value=8)))


class TestVerdictsFollowA:
    @seed(7)
    @settings(**COMMON)
    @given(closed_forms)
    def test_verdicts_follow_critical_gap(self, seq):
        # every verdict is the sign of 1 - 2/A, and on a closed form no
        # numeric cross-check (Krein fit, convexity window) disagrees
        report = full_report(seq, principal_solution(seq))
        indeterminate = seq.critical_gap > 0.0
        verdicts = (report.c1.verdict, report.c2.verdict, report.c3.verdict,
                    report.overall)
        assert verdicts == (
            ("Convergent", "Finite", "NonUnique", "NonUnique") if indeterminate
            else ("Divergent", "Infinite", "Inconclusive", "Unique"))
        assert not any(word in note for note in report.notes
                       for word in ("Krein", "convexity", "fitting window"))
