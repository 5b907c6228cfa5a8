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
from gammamoments.special import (bessel_k0e, digamma, hurwitz_zeta,
                                  polygamma)

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

    def test_log_k0_at_complex_z(self):
        # the principal log of K0 where K0 itself underflows; Im ln K0 is
        # its phase modulo 2 pi
        zs = np.array([0.05 + 0.02j, 1.0 + 1.0j, 3.0 - 8.0j, 900.0 + 300.0j])
        got = log_bessel_k0(zs)
        for z, value in zip(zs, got):
            want = complex(mpmath.log(mpmath.besselk(0, complex(z))))
            assert abs(value.real - want.real) <= 1e-14 * max(1.0, abs(want))
            assert abs(np.exp(1j * (value.imag - want.imag)) - 1.0) <= 1e-12
        assert isinstance(log_bessel_k0(1.0 + 1.0j), complex)
        for bad in (-1.0 + 1.0j, 1j, complex(math.inf, 1.0)):
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


_EPS = np.finfo(float).eps


def _mixed(got, want):
    """|got - want| / max(1, |want|): absolute near a zero, else relative."""
    return np.abs(got - want) / np.maximum(1.0, np.abs(want))


def _relative(got, want):
    return np.abs(got - want) / np.abs(want)


def _no_worse_than_scipy(ours, scipys):
    """Our largest error is at most SciPy's on the same points (where
    SciPy is finite) or 4 eps, whichever is larger."""
    scipys = np.where(np.isfinite(scipys), scipys, 0.0)
    bound = max(float(np.max(scipys)), 4.0 * _EPS)
    assert float(np.max(ours)) <= bound, (np.max(ours) / _EPS, bound / _EPS)


class TestElementwise:
    """A point's value has the same bits in a large array, in a one-element
    array and as a 0-d scalar: no series is evaluated one way for a lone
    point and another way for many."""

    @staticmethod
    def _same_bits(f, *args):
        together = f(*args)
        for i in range(together.size):
            assert f(*(a[i:i + 1] for a in args))[0] == together[i], i
            assert f(*(a[i] for a in args)) == together[i], i

    def test_ln_gamma_in_all_three_regimes(self):
        rng = np.random.default_rng(20261044)
        z = np.concatenate((
            rng.uniform(0.1, 7.0, 200) + 1j * rng.uniform(-7.0, 7.0, 200),
            rng.uniform(-30.0, 0.1, 200) + 1j * rng.uniform(-10, 10, 200),
            rng.uniform(7.0, 60.0, 200) + 1j * rng.uniform(-60, 60, 200)))
        self._same_bits(ln_gamma, z)

    def test_digamma_real_and_complex(self):
        rng = np.random.default_rng(20261045)
        x = np.concatenate((np.exp(rng.uniform(-20.0, 4.0, 300)),
                            -rng.uniform(0.0, 30.0, 100)))
        z = rng.uniform(-20.0, 30.0, 400) + 1j * rng.uniform(-30, 30, 400)
        self._same_bits(digamma, x)
        self._same_bits(digamma, z)

    def test_hurwitz_zeta_and_polygamma_over_mixed_orders(self):
        # q < 0 and q >= 1e8 beside the usual 0 < q < 300
        rng = np.random.default_rng(20261046)
        s = rng.integers(2, 41, 600).astype(float)
        q = np.concatenate((rng.uniform(0.01, 300.0, 200),
                            -rng.uniform(0.0, 30.0, 200),
                            np.exp(rng.uniform(math.log(1e8), 600.0, 200))))
        self._same_bits(hurwitz_zeta, s, q)
        m = rng.integers(0, 5, 600).astype(float)
        x = np.concatenate((np.exp(rng.uniform(-20.0, 5.0, 400)),
                            -rng.uniform(0.0, 30.0, 200)))
        self._same_bits(polygamma, m, x)


class TestOracleSweep:
    """Each NumPy kernel against mpmath (30 digits), with SciPy's error on
    the same seeded points as the bar, on the domains the package uses."""

    @pytest.fixture(autouse=True)
    def _digits(self):
        with mpmath.workdps(30):
            yield

    @staticmethod
    def _want(f, points):
        kind = complex if np.iscomplexobj(points) else float
        return np.array([kind(f(kind(v))) for v in points])

    def test_ln_gamma_contour_strip_and_left_half_plane(self):
        # contour arguments a(s - 1) + b lie right of every pole with any
        # imaginary part; the reflection serves Re z < 0.1
        rng = np.random.default_rng(20261020)
        for z in (rng.uniform(0.01, 30.0, 600) + 1j * rng.uniform(-60, 60, 600),
                  rng.uniform(-40.0, 0.1, 300) + 1j * rng.uniform(-10, 10, 300)):
            want = self._want(mpmath.loggamma, z)
            _no_worse_than_scipy(_mixed(ln_gamma(z), want),
                                 _mixed(sps.loggamma(z), want))

    def test_digamma_real_and_complex(self):
        # positive reals from the saddle search (down to 1e-9 off a pole),
        # l + 1 of the residue series, and the complex saddles' right
        # half-plane
        rng = np.random.default_rng(20261021)
        x = np.concatenate((np.exp(rng.uniform(-20.0, 6.0, 400)),
                            np.arange(1.0, 257.0)))
        z = rng.uniform(0.0, 30.0, 400) + 1j * rng.uniform(-30, 30, 400)
        for points in (x, z):
            want = self._want(mpmath.digamma, points)
            _no_worse_than_scipy(_mixed(digamma(points), want),
                                 _mixed(sps.digamma(points), want))

    def test_digamma_at_negative_non_integers(self):
        # the residue series' factors off their poles; by a pole psi
        # moves by |u psi'(u)| eps when u moves by its own rounding, so
        # the error is measured beyond that
        u = -np.random.default_rng(20261024).uniform(0.0, 30.0, 200)
        want = self._want(mpmath.digamma, u)
        slope = self._want(lambda v: mpmath.polygamma(1, v), u)
        scale = np.maximum(1.0, np.abs(want)) + np.abs(u * slope)
        _no_worse_than_scipy(np.abs(digamma(u) - want) / scale,
                             np.abs(sps.digamma(u) - want) / scale)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_polygamma_at_negative_non_integers(self, m):
        # an alternating sum: its rounding is measured against the sum of
        # its terms' moduli, m! sum_k |u + k|^-(m+1)
        rng = np.random.default_rng(20261022 + m)
        u = -rng.uniform(0.0, 30.0, 100)
        n = np.ceil(-u)
        scale = math.factorial(m) * np.array(
            [np.sum(np.abs(v + np.arange(k)) ** -(m + 1.0)) for v, k in zip(u, n)]
        ) + math.factorial(m) * sps.zeta(m + 1.0, u + n)
        want = self._want(lambda v: mpmath.polygamma(m, v), u)
        _no_worse_than_scipy(np.abs(polygamma(m, u) - want) / scale,
                             np.abs(sps.polygamma(m, u) - want) / scale)

    def test_trigamma_at_positive_arguments(self):
        # the saddle search's slope and the contour's curvature
        x = np.exp(np.random.default_rng(20261025).uniform(-20.0, 6.0, 200))
        want = self._want(lambda v: mpmath.polygamma(1, v), x)
        _no_worse_than_scipy(_relative(polygamma(1, x), want),
                             _relative(sps.polygamma(1, x), want))

    def test_zeta_at_integers(self):
        # zeta(k) and zeta(k, l + 1) of the residue series' Laurent terms;
        # at 30 digits mpmath's zeta(40, 256) is 3.1e-9 off, so the
        # reference takes 120
        ks = np.arange(2, 41)
        for q in (1.0, 2.0, 8.0, 256.0):
            with mpmath.workdps(120):
                want = np.array([float(mpmath.zeta(int(k), int(q)))
                                 for k in ks])
            scipys = sps.zeta(ks) if q == 1.0 else sps.zeta(ks, q)
            _no_worse_than_scipy(_relative(hurwitz_zeta(ks, q), want),
                                 _relative(scipys, want))

    def test_scaled_k0_from_1e_minus_300_to_1e12(self):
        # SciPy's kve is nan past |z| = 1.08e9; the bar there is 4 eps
        rng = np.random.default_rng(20261026)
        mod = np.exp(rng.uniform(math.log(1e-300), math.log(1e12), 120))
        z = mod * np.exp(1j * rng.uniform(-math.pi / 4, math.pi / 4, mod.size))
        k0e = lambda v: mpmath.besselk(0, v) * mpmath.exp(v)
        for points, scipys in ((z, sps.kve(0, z)), (mod, sps.k0e(mod))):
            want = self._want(k0e, points)
            _no_worse_than_scipy(_relative(bessel_k0e(points), want),
                                 _relative(scipys, want))
