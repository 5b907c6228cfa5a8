"""Log-gamma and Bessel layer: frozen oracles, identities, error paths."""

import math
import time
import warnings

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special as sps

from gammamoments import (ConvergenceError, DomainError, PoleError,
                          bessel_k0_complex, ln_gamma, log_bessel_k0)

# frozen with mpmath at 30 digits
LN_GAMMA_HALF = 0.5723649429247001
K0_AT_1 = 0.4210244382407083
K1_AT_2 = 0.1398658818165224
K0_AT_1_PLUS_I = 0.0801977269465178 - 0.3572774592853302j


class TestLnGamma:
    def test_half_integer_oracle(self):
        assert math.isclose(ln_gamma(0.5), LN_GAMMA_HALF, rel_tol=1e-14)

    def test_real_positive_matches_lgamma(self):
        for x in (0.1, 1.0, 2.5, 10.0, 171.0, 1e4):
            assert math.isclose(ln_gamma(x), math.lgamma(x), rel_tol=1e-13)

    def test_recurrence_complex(self):
        z = 2.3 + 1.7j
        assert abs(ln_gamma(z + 1) - (ln_gamma(z) + np.log(z))) < 1e-13

    def test_reflection_left_halfplane(self):
        # left of the axis ln_gamma is SciPy's principal branch, which is
        # mpmath's; the reflection formula it once used there differed
        # by 2 pi i at -1.5 + 0.5j
        for z in (-1.5 + 0.5j, -20.25 + 0.001j, 2.0j, -0.5 - 3.0j,
                  -100.5 + 40.0j):
            want = complex(mpmath.loggamma(mpmath.mpc(z)))
            assert abs(ln_gamma(z) - want) <= 1e-14 * max(1.0, abs(want))

    def test_pole_raises(self):
        for z in (0.0, -1.0, -7.0):
            with pytest.raises(PoleError):
                ln_gamma(z)

    def test_array_input(self):
        z = np.array([1.0, 2.0, 3.0, 4.0])
        out = ln_gamma(z)
        assert np.allclose(out.real, sps.gammaln(z), rtol=1e-13)

    def test_0d_array_is_a_scalar(self):
        # a 0-d z once gave a complex where the same real z gave a float
        got = ln_gamma(np.array(2.5))
        assert type(got) is float and got == ln_gamma(2.5)
        got = ln_gamma(np.array(2.5 + 1.0j))
        assert type(got) is complex and got == ln_gamma(2.5 + 1.0j)


def _k0(x):
    return math.exp(log_bessel_k0(x))


class TestRealBessel:
    def test_frozen_values(self):
        assert math.isclose(_k0(1.0), K0_AT_1, rel_tol=1e-14)
        assert math.isclose(sps.k1(2.0), K1_AT_2, rel_tol=1e-14)

    def test_integral_representation_k0(self):
        # K0(x) = int_0^inf exp(-x cosh t) dt
        for x in (0.5, 1.0, 3.0, 8.0):
            val, _ = scipy.integrate.quad(
                lambda t: math.exp(-x * math.cosh(t)), 0.0, 30.0)
            assert math.isclose(_k0(x), val, rel_tol=1e-11)

    def test_integral_representation_k1(self):
        # K1(x) = int_0^inf exp(-x cosh t) cosh t dt; the reference for
        # the derivative identity below
        for x in (0.5, 2.0, 6.0):
            val, _ = scipy.integrate.quad(
                lambda t: math.exp(-x * math.cosh(t)) * math.cosh(t),
                0.0, 30.0)
            assert math.isclose(sps.k1(x), val, rel_tol=1e-11)

    def test_derivative_identity(self):
        # d/dx K0(x) = -K1(x), checked by central differences
        xs = np.logspace(np.log10(0.1), np.log10(50.0), 50)
        h = 1e-6
        for x in xs:
            d = (_k0(x + h * x) - _k0(x - h * x)) / (2 * h * x)
            scale = max(sps.k1(x), 1e-300)
            assert abs(d + sps.k1(x)) / scale < 1e-8

    def test_recurrence(self):
        # K2(x) = K0(x) + 2 K1(x)/x
        for x in (0.3, 1.0, 4.0, 20.0):
            lhs = sps.kn(2, x)
            rhs = _k0(x) + 2.0 * sps.k1(x) / x
            assert math.isclose(lhs, rhs, rel_tol=1e-12)

    def test_log_k0_deep_tail(self):
        # ln K0 stays finite long after K0 underflows
        x = 2000.0
        expected = -x + 0.5 * math.log(math.pi / (2 * x))
        assert math.isclose(log_bessel_k0(x), expected, rel_tol=1e-3)

    def test_domain_errors(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                log_bessel_k0(bad)

    def test_no_warning_in_range(self):
        # 800 is past the point where K0 itself underflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(log_bessel_k0(800.0))


class TestComplexK0:
    def test_frozen_value(self):
        got = bessel_k0_complex(1.0 + 1.0j)
        assert abs(got - K0_AT_1_PLUS_I) < 1e-13

    def test_real_axis_agrees_with_real_routine(self):
        xs = np.logspace(-1, 2, 25)
        got = bessel_k0_complex(xs.astype(complex))
        want = sps.k0(xs)
        ok = want > 0
        assert np.max(np.abs(got.real[ok] - want[ok]) / want[ok]) < 1e-11
        assert np.max(np.abs(got.imag)) < 1e-13

    def test_conjugation_symmetry(self):
        z = 2.0 + 3.0j
        assert abs(bessel_k0_complex(np.conj(z))
                   - np.conj(bessel_k0_complex(z))) < 1e-14

    def test_domain_error_left_halfplane(self):
        with pytest.raises(DomainError):
            bessel_k0_complex(-1.0 + 1.0j)

    def test_mpmath_oracle(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 25
        for z in (0.5 + 0.2j, 3.0 - 4.0j, 10.0 + 15.0j, 40.0 + 5.0j):
            want = complex(mp.besselk(0, z))
            got = bessel_k0_complex(z)
            assert abs(got - want) / abs(want) < 1e-12

    def test_mpmath_oracle_seeded(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 25
        rng = np.random.default_rng(20261018)
        mod = np.exp(rng.uniform(math.log(1e-3), math.log(600.0), 240))
        z = mod * np.exp(1j * rng.uniform(-1.45, 1.45, mod.size))
        got = bessel_k0_complex(z)
        want = np.array([complex(mp.besselk(0, complex(v))) for v in z])
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12

    def test_continuous_across_regime_boundary(self):
        # quadrature below |z| = 30, asymptotic series above
        for phi in (0.0, 0.4, -0.7):
            lo = bessel_k0_complex((30.0 - 1e-6) * np.exp(1j * phi))
            hi = bessel_k0_complex((30.0 + 1e-6) * np.exp(1j * phi))
            assert abs(lo - hi) / abs(lo) < 1e-5

    def test_value_independent_of_the_rest_of_the_array(self):
        rng = np.random.default_rng(7)
        mod = np.exp(rng.uniform(math.log(1e-3), math.log(60.0), 5000))
        z = mod * np.exp(1j * rng.uniform(-1.45, 1.45, mod.size))
        together = bessel_k0_complex(z)
        for i in (0, 1, 1234, 2500, 4999):
            assert bessel_k0_complex(z[i]) == together[i]
        assert np.array_equal(bessel_k0_complex(z[::-1])[::-1], together)

    def test_near_imaginary_axis_raises_quickly(self):
        # a grid resolving the phase 5 * 46e8 would need ~1e11 nodes
        start = time.perf_counter()
        with pytest.raises(ConvergenceError, match=r"1e-08\+5j"):
            bessel_k0_complex(1e-8 + 5.0j)
        assert time.perf_counter() - start < 1.0

    def test_vanishing_real_part_raises(self):
        with pytest.raises(ConvergenceError):
            bessel_k0_complex(5e-324 + 1.0j)
