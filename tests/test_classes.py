"""Stieltjes class machinery: perturbations, members, amplitude bounds."""

import math
import random
import re
import warnings

import numpy as np
import pytest
import scipy.special

import gammamoments.classes as classes
import gammamoments.mellin as mellin
from gammamoments import (ConstraintError, ConvergenceError, DomainError,
                          SearchError, check_vanishing, class_member,
                          certify_nonnegative, contour_log_densities,
                          contour_log_density, find_gamma_max,
                          mellin_convolve_many, omega2,
                          omega2_via_convolution, omega3, perturbation,
                          perturbation_tm1, perturbation_tm2,
                          perturbation_tm3, parse_descriptor,
                          principal_solution, tm1, tm2, tm3, tm4, w1, w2)
import gammamoments.weights as weights
from gammamoments.moments import gamma_product
from gammamoments.special import bessel_k0e
from gammamoments.weights import _log_w2
from oracles import meijer_log_density


# omega2 = W2 V / K0(2u), u = x^{1/2r}, V(z) = Re[phase K0(z beta)]: the
# K0-ratio form of the second family, kept as an oracle of the closed form
def _beta(r, k):
    """Principal square root of 1 + i tan(pi k / r); Re > 0 for r > 2|k|."""
    return complex(np.sqrt(1.0 + 1j * math.tan(math.pi * k / r)))


def _v_phase(r, k):
    return np.exp(1j * math.pi * (0.5 - k * (r - 1.0) / r))


def _scaled_v(r, k, u):
    """e^{2u} V(2u) = Re[phase k0e(2u beta) e^{-2u(beta - 1)}], finite
    where V underflows."""
    beta = _beta(r, k)
    z = 2.0 * np.asarray(u, dtype=float)
    return np.real(_v_phase(r, k)
                   * (bessel_k0e(z * beta) * np.exp(-z * (beta - 1.0))))


def _v_over_k0(r, k, u):
    """V/K0(2u) at u = x^{1/2r}: omega2 / W2, from the package's scaled K0."""
    return _scaled_v(r, k, u) / bessel_k0e(2.0 * np.asarray(u))

_LAW_SEQUENCES = {
    **{make.__name__: [make(r) for r in range(1, 51)]
       for make in (tm1, tm2, tm3, tm4)},
    "gamma": [parse_descriptor(d) for d in
              ("gamma:2.02n+1", "gamma:2.5n+1", "gamma:n+0.5")],
}


class TestOneTailLaw:
    """Densities and perturbations take their endpoint laws from seq."""

    @pytest.mark.parametrize("kind", sorted(_LAW_SEQUENCES))
    def test_laws_read_from_seq(self, kind):
        for seq in _LAW_SEQUENCES[kind]:
            law = (seq.tail_coefficient, seq.tail_power)
            w = principal_solution(seq)
            assert (w.alpha0, w.growth) == (seq.alpha0, law), seq.descriptor()
            # the one side condition: a* > 2|k| for the star factor
            if max(a for a, _ in seq.factors) > 2:
                assert perturbation(seq, 1).growth == law, seq.descriptor()

    def test_closed_form_laws_exact(self):
        for r in range(1, 51):
            p = 1 / (2 * r)
            assert principal_solution(tm1(r)).growth == (1.0, p)
            assert principal_solution(tm2(r)).growth == (2.0, p)
            if r > 1:
                assert perturbation_tm1(r, 1).growth == (1.0, p)
            if r > 2:
                assert perturbation_tm2(r, 1).growth == (2.0, p)


class TestOmega1:
    def test_bounded_by_principal(self):
        xs = np.logspace(-6, 4, 200)
        omega = perturbation(tm1(2), 1).evaluate(xs)
        assert np.all(np.abs(omega) <= w1(4, xs) * (1 + 1e-15))

    def test_zero_crossings_on_phase_grid(self):
        # sine phase 3pi/4 + x^{1/4} tan(pi/4) vanishes at
        # x = (m pi - 3 pi/4)^4
        omega = perturbation(tm1(2), 1)
        for m in (1, 2, 3, 4):
            x0 = (m * math.pi - 0.75 * math.pi) ** 4
            left = omega.evaluate(x0 * (1 - 1e-4))
            right = omega.evaluate(x0 * (1 + 1e-4))
            assert left * right < 0.0

    def test_constraint_violations(self):
        with pytest.raises(ConstraintError):
            perturbation(tm1(2), 2).evaluate(1.0)
        with pytest.raises(ConstraintError):
            perturbation(tm1(3), 0).evaluate(1.0)
        with pytest.raises(ConstraintError):
            perturbation(tm1(1), 1).evaluate(1.0)

    @pytest.mark.parametrize("text,k", [("gamma:2.5n+0.7", 1),
                                        ("gamma:3n+2.5", 1),
                                        ("gamma:4n+1", 1),
                                        ("gamma:5n+0.3", 2)])
    def test_every_single_factor_has_vanishing_moments(self, text, k):
        # the first family is any one factor (a, b): omega1 at phase
        # k pi (a - b)/a on w1(a, b), not only (2r, 1)
        seq = parse_descriptor(text)
        pert = perturbation(seq, k)
        for n in range(9):
            assert check_vanishing(pert, seq, n).rel_error <= 1e-6, n

    def test_single_factor_side_condition(self):
        with pytest.raises(ConstraintError, match=r"r=1\.25, k=2"):
            perturbation(parse_descriptor("gamma:2.5n+0.7"), 2)


class TestOmega2:
    @pytest.mark.parametrize("r,k", [(3, 1), (5, 1)])
    @pytest.mark.parametrize("x", [0.5, 1.0, 5.0])
    def test_closed_form_vs_convolution(self, r, k, x):
        a = omega2(r, k, x)
        b = float(omega2_via_convolution(r, k, np.array([x]))[0])
        assert b == pytest.approx(a, rel=1e-5)

    def test_conjugation_symmetry(self):
        xs = np.array([0.5, 2.0, 7.0, 40.0])
        assert np.allclose(np.abs(omega2(5, 1, xs)), np.abs(omega2(5, -1, xs)),
                           rtol=1e-13)

    def test_v_factor_relation(self):
        # omega2 = 2 V / (r x^{(r-1)/r}), V = Re[phase K0(2 x^{1/2r} beta)]
        r, k, x = 3, 1, 2.0
        beta = np.sqrt(1.0 + 1j * math.tan(math.pi * k / r))
        phase = np.exp(1j * math.pi * (0.5 - k * (r - 1.0) / r))
        z = 2.0 * x ** (1.0 / (2 * r)) * beta
        v = (phase * scipy.special.kv(0, z)).real
        want = 2.0 / (r * x ** ((r - 1.0) / r)) * v
        assert omega2(r, k, x) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("r,k", [(3, 1), (3, -1), (5, 2), (9, 1)])
    def test_mpmath_oracle_seeded(self, r, k):
        # full precision against 2 Re[phase K0(2 x^{1/2r} beta)] / (r x^{(r-1)/r})
        # at 30 digits, measured against W2(x), the envelope of omega2
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        rng = np.random.default_rng(1000 * r + k)
        xs = np.exp(rng.uniform(-8.0, 12.0, 40))
        beta = mp.sqrt(1 + 1j * mp.tan(mp.pi * k / r))
        phase = mp.exp(1j * mp.pi * (mp.mpf(1) / 2 - mp.mpf(k) * (r - 1) / r))
        want = np.array([
            float(2 * mp.re(phase * mp.besselk(0, 2 * mp.root(mp.mpf(x), 2 * r)
                                               * beta))
                  / (r * mp.mpf(x) ** (mp.mpf(r - 1) / r)))
            for x in xs])
        err = np.abs(omega2(r, k, xs) - want)
        assert np.all(err <= 1e-14 * w2(r, xs))

    @pytest.mark.parametrize("k", [1, -1])
    @pytest.mark.parametrize("log_x", [-1e5, -1e4, 1e4, 1e5])
    def test_finite_at_every_finite_log_x(self, log_x, k):
        # K0 once refused the underflowed z = 0 ("K0 requires Re z > 0");
        # omega2 is now 2 V / (r x^{(r-1)/r}) at 30 digits below and 0
        # above, where W2 is
        mp = pytest.importorskip("mpmath")
        r = 3
        sign, log_abs = perturbation_tm2(r, k).log_density(log_x)
        if log_x > 0:
            assert (sign, log_abs) == (0.0, -math.inf)
            return
        with mp.workdps(30):
            phase = mp.exp(1j * mp.pi * (mp.mpf(1) / 2
                                         - mp.mpf(k) * (r - 1) / r))
            beta = mp.sqrt(1 + 1j * mp.tan(mp.pi * k / r))
            v = mp.re(phase * mp.besselk(
                0, 2 * mp.exp(mp.mpf(log_x) / (2 * r)) * beta))
            want = mp.log(2 * abs(v) / r) - mp.mpf(r - 1) / r * log_x
        assert sign == mp.sign(v)
        assert log_abs == pytest.approx(float(want), rel=1e-14)

    def test_constraint_violations(self):
        with pytest.raises(ConstraintError):
            omega2(2, 1, 1.0)
        with pytest.raises(ConstraintError):
            omega2(4, 2, 1.0)


class TestOneClosedFormRule:
    """omega of tm1 and tm2 is sec^{a-b}(theta) Im W(lambda x) from W's
    closed form: the sine form of omega1 to the bit, and the V/K0 form
    of omega2 to 1e-14 W2."""

    @pytest.mark.parametrize("q,k,b", [(4, 1, 1), (4, -1, 1), (6, -2, 1),
                                       (3, 1, 0.5)])
    def test_omega1_is_the_sine_form_bit_for_bit(self, q, k, b):
        rng = np.random.default_rng(100 * q + 10 * k + int(10 * b))
        lx = np.sort(rng.uniform(-40.0, 40.0, 2000))
        log_w1 = -np.log(q) + ((b - q) / q) * lx - np.exp(lx / q)
        sine = np.sin(k * math.pi * (q - b) / q
                      + np.exp(lx / q) * math.tan(k * math.pi / q))
        pert = perturbation(gamma_product([(q, b)]), k)
        sign, log_abs = pert.log_density(lx)
        assert np.array_equal(sign, np.sign(sine))
        assert np.array_equal(log_abs, log_w1 + np.log(np.abs(sine)))

    def test_omega1_is_zero_past_the_double_range(self):
        # the sine form's x^{1/q} once overflowed with a warning
        pert = perturbation(tm1(2), 1)
        assert pert.log_density(4000.0) == (0.0, -math.inf)
        assert pert.evaluate(1e300) == 0.0

    @pytest.mark.parametrize("r,k", [(3, 1), (3, -1), (5, 2), (5, -2),
                                     (9, 1), (40, 1)])
    def test_omega2_matches_the_v_over_k0_form(self, r, k):
        rng = np.random.default_rng(1000 * r + k)
        lx = np.sort(rng.uniform(-40.0, 40.0, 2000))
        sign, log_abs = perturbation_tm2(r, k).log_density(lx)
        log_w = principal_solution(tm2(r)).log_density(lx)
        got = sign * np.exp(log_abs - log_w)
        want = _v_over_k0(r, k, np.exp(lx / (2.0 * r)))
        assert np.max(np.abs(got - want)) <= 1e-14


class TestOmega3:
    def test_takes_both_signs(self):
        xs = np.logspace(-6, 2, 160)
        vals = omega3(3, 1, xs)
        assert np.any(vals > 0.0) and np.any(vals < 0.0)

    def test_bounded_by_envelope(self):
        pert = perturbation_tm3(3, 1)
        xs = np.logspace(-2, 3, 40)
        env = principal_solution(pert.seq).evaluate(xs)
        assert np.all(np.abs(pert.evaluate(xs)) <= env * (1 + 1e-9))

    def test_constraint_violation(self):
        with pytest.raises(ConstraintError):
            omega3(1, 1, 1.0)

    def test_rejects_nonpositive_x(self):
        with pytest.raises(DomainError):
            omega3(3, 1, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("r,k", [(3, 1), (3, -1), (4, 1), (5, 2), (6, 1),
                                     (7, 3)])
    def test_contour_matches_meijer_g_oracle(self, r, k):
        # omega3 = sec^{r-1}(theta) Im W3(x sec^r(theta) e^{-i k pi}),
        # theta = k pi / r, with W3 from mpmath's Meijer G on that branch;
        # one seeded x per pair, as the oracle takes 40-150 ms a point
        log_x = np.random.default_rng(10 * r + k).uniform(math.log(1e-8),
                                                          math.log(1e4))
        log_sec = -math.log(math.cos(math.pi * k / r))
        log_w = meijer_log_density(tm3(r), log_x + r * log_sec, k * math.pi)
        want = math.exp((r - 1) * log_sec + log_w.real) * math.sin(log_w.imag)
        x = math.exp(log_x)
        env = principal_solution(tm3(r)).evaluate(x)
        assert abs(omega3(r, k, x) - want) <= 1e-13 * env

    def test_far_left_knot_is_finite_without_a_warning(self):
        # the complex saddle search once divided by zero here, with a
        # RuntimeWarning, and refused; the series' leading pole answers,
        # where omega3 / W3 tends to sin(2 pi / 3) > 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sign, log_abs = perturbation_tm3(3, 1).log_density(
                np.array([-1e200]))
            log_w, _ = contour_log_densities(tm3(3), [-1e200])
        assert sign[0] > 0.0
        assert abs(log_abs[0] - log_w[0]) <= 1e-15 * log_w[0]

    def test_deep_tail_converges_within_envelope(self):
        lxs = np.linspace(44.0, 50.0, 13)
        vals = omega3(3, 1, np.exp(lxs))
        env = np.exp([contour_log_density(tm3(3), math.exp(v))[0] for v in lxs])
        assert np.all(np.isfinite(vals))
        assert np.all(np.abs(vals) <= env * (1 + 1e-9))
        assert np.any(vals[:5] > 0.0) and np.any(vals[:5] < 0.0)
        assert vals[-1] == 0.0  # below 1e-300 it underflows cleanly

    def test_complex_saddle_keeps_sums_cancellation_free(self, monkeypatch):
        # the window is centred on the complex saddle, ~21 below the real
        # axis at ln x = 45; centred on the real saddle, |sum| / sum |terms|
        # falls to 0.15 at ln x = 50 and the sum stops converging near 70
        ratios = []
        check = mellin._check_sums

        def spy(total, mag, tail, n_points, real=True):
            ratios.append(float(np.min(np.abs(total))) / mag)
            return check(total, mag, tail, n_points, real)
        monkeypatch.setattr(mellin, "_check_sums", spy)
        vals = omega3(3, 1, np.exp(np.linspace(44.0, 70.0, 27)))
        assert np.all(np.isfinite(vals))
        assert min(ratios) >= 0.9


class TestClassMembers:
    @pytest.mark.parametrize("seq,amplitude", [
        (tm1(2), 0.5), (tm2(3), 1.0), (tm3(3), 0.1),
    ], ids=["tm1", "tm2", "tm3"])
    def test_member_is_base_plus_amplitude_omega(self, seq, amplitude):
        xs = np.logspace(-2, 2, 30)
        got = class_member(seq, 1, amplitude, xs)
        base = principal_solution(seq).evaluate(xs)
        omega = perturbation(seq, 1).evaluate(xs)
        assert np.array_equal(got, base + amplitude * omega)

    def test_tm1_identity_at_zero_eps(self):
        xs = np.logspace(-3, 3, 50)
        assert np.allclose(class_member(tm1(2), 1, 0.0, xs),
                           principal_solution(tm1(2)).evaluate(xs),
                           rtol=1e-14)

    def test_tm1_nonnegative_inside_band(self):
        xs = np.logspace(-8, 5, 5000)
        for eps in (-0.999, -0.5, 0.5, 0.999):
            assert np.all(class_member(tm1(2), 1, eps, xs) >= 0.0)

    def test_tm1_members_differ(self):
        xs = np.logspace(-2, 2, 200)
        a = class_member(tm1(2), 1, 0.5, xs)
        b = class_member(tm1(2), 1, -0.5, xs)
        assert np.max(np.abs(a - b)) > 1e-3

    def test_tm1_amplitude_band_enforced(self):
        for eps in (1.0, -1.5):
            with pytest.raises(ConstraintError, match=r"needs \|eps\| < 1"):
                class_member(tm1(2), 1, eps, 1.0)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
    def test_tm3_nonfinite_amplitude_rejected(self, gamma):
        with pytest.raises(ConstraintError, match="finite amplitude"):
            class_member(tm3(3), 1, gamma, 1.0)

    @pytest.mark.parametrize("seq", [tm1(2), tm2(3), tm3(3)],
                             ids=["tm1", "tm2", "tm3"])
    @pytest.mark.parametrize("amplitude", [math.nan, math.inf, -math.inf])
    def test_nonfinite_amplitude_refused_first(self, seq, amplitude,
                                               monkeypatch):
        # one check for every family, before any bound is searched: NaN
        # once passed tm1's |eps| >= 1 test, and a tm2 NaN ran
        # find_gamma_max with k flipped before its bound refused it
        def no_search(pert):
            raise AssertionError(f"bound searched for (r={pert.r}, "
                                 f"k={pert.k})")
        monkeypatch.setattr(classes, "find_gamma_max", no_search)
        with pytest.raises(ConstraintError,
                           match=f"need a finite amplitude, got {amplitude}"):
            class_member(seq, 1, amplitude, 1.0)

    def test_tm3_negative_member_refused(self, monkeypatch):
        # the bound is searched, not certified, so the member values are
        # checked too; a bound of inf lets 1e6 reach that check
        monkeypatch.setattr(classes, "find_gamma_max", lambda pert: math.inf)
        with pytest.raises(ConstraintError, match=r"negative at x = 0\.5 "):
            class_member(tm3(3), 1, 1e6, np.array([1e-3, 0.5, 1.0]))
        assert np.all(class_member(tm3(3), 1, 0.1, np.logspace(-4, 4, 50)) > 0)

    def test_tm3_origin_limit_bounds_the_amplitude(self):
        # omega3 / W3 -> sin(k pi (r-1)/r) as x -> 0; for (5, 2) that is
        # sin(8 pi / 5) = -0.951, so a positive gamma is bounded by
        # 0.99/0.951, the search's margin included
        limit = math.sin(8.0 * math.pi / 5.0)
        pert = perturbation_tm3(5, 2)
        classes._check_amplitude(pert, 0.98 / -limit)
        classes._check_amplitude(pert, -4.9)
        with pytest.raises(ConstraintError, match="exceeds the amplitude"):
            classes._check_amplitude(pert, 1.001 / -limit)
        # (3, 1): the limit is +0.866, so it bounds a negative gamma
        classes._check_amplitude(perturbation_tm3(3, 1), -1.14)
        with pytest.raises(ConstraintError, match="exceeds the amplitude"):
            classes._check_amplitude(perturbation_tm3(3, 1), -1.16)

    def test_tm3_series_ratio_reaches_the_origin_limit(self):
        # the residue series answers at ln x = -5e4, where the ratio is
        # within about 1/|ln x| of sin(2 pi / 3)
        log_x = np.array([-5e4])
        sign, log_omega = perturbation_tm3(3, 1).log_density(log_x)
        log_w = principal_solution(tm3(3)).log_density(log_x)
        ratio = float(sign[0] * np.exp(log_omega[0] - log_w[0]))
        assert abs(ratio - math.sin(2.0 * math.pi / 3.0)) <= 5e-4

    def test_tm2_member_at_bound_nonnegative(self):
        r, k = 3, 1
        bound = find_gamma_max(perturbation_tm2(r, k))
        xs = np.logspace(-8, 6, 10000)
        vals = class_member(tm2(r), k, bound, xs)
        assert np.all(vals >= 0.0)

    def test_tm2_member_reduces_to_base(self):
        xs = np.logspace(-2, 2, 30)
        got = class_member(tm2(3), 1, 0.0, xs)
        assert np.allclose(got, principal_solution(tm2(3)).evaluate(xs),
                           rtol=1e-14)

    def test_tm2_bound_enforced(self):
        bound = find_gamma_max(perturbation_tm2(3, 1))
        with pytest.raises(ConstraintError,
                           match="exceeds the amplitude bound"):
            class_member(tm2(3), 1, 2.0 * bound, 1.0)

    def test_tm2_negative_gamma_meets_bound_of_minus_k(self):
        # omega2(r, -k) = -omega2(r, k), so gamma < 0 is bounded by
        # the bound of -k, 1.143 for (3, 1), not by 2.348; at
        # gamma = -2.3 the member was -1.7e5 at x = 1e-8
        assert omega2(3, -1, 0.7) == pytest.approx(-omega2(3, 1, 0.7),
                                                   rel=1e-12)
        with pytest.raises(ConstraintError, match=r"bound 1\.14315 for "
                                                  r"\(r=3, k=-1\)"):
            class_member(tm2(3), 1, -2.3, 1e-8)
        xs = np.logspace(-40, 6, 2000)
        gamma = -find_gamma_max(perturbation_tm2(3, -1))
        assert np.all(class_member(tm2(3), 1, gamma, xs) >= 0)

    def test_tm2_finite_past_scaled_bessel_range(self):
        # SciPy's kve(0, z) is nan past |z| ~ 1.08e9, which once made the
        # member nan at x = 1e60 (r = 3); special.bessel_k0e's asymptotic
        # series has no such limit
        xs = np.array([1e60, 1e200])
        assert np.array_equal(class_member(tm2(3), 1, 0.5, xs), [0.0, 0.0])
        assert np.array_equal(omega2(3, 1, xs), [0.0, 0.0])
        # and the ratio is continuous across |2u beta| = 1e9, where a
        # large-argument form once took over while the ratio is not yet
        # negligible (Re beta - 1 ~ 5e-8 at r = 5000)
        beta = _beta(5000, 1)
        u = 0.5 * 1e9 / abs(beta) * np.array([1.0 - 1e-15, 1.0 + 1e-15])
        below, above = _v_over_k0(5000, 1, u)
        envelope = math.exp(-2.0 * u[0] * (beta.real - 1.0)) / abs(beta) ** 0.5
        assert envelope > 1e-30
        assert abs(below - above) <= 1e-8 * envelope


class TestGammaMax:
    @pytest.mark.parametrize("r,k", [(3, 1), (5, 2), (7, 3)])
    def test_bound_certifies_positivity(self, r, k):
        bound = find_gamma_max(perturbation_tm2(r, k))
        assert bound > 0.0
        xs = np.logspace(-8, 6, 10000)
        vals = class_member(tm2(r), k, bound, xs)
        assert np.all(vals >= 0.0)

    def test_exceeding_bound_breaks_positivity(self):
        r, k = 3, 1
        bound = find_gamma_max(perturbation_tm2(r, k))
        # the safety factor is 0.99, so 1.1x the bound must go negative;
        # class_member refuses that amplitude, so W + gamma omega is formed
        xs = np.logspace(-8, 6, 20000)
        vals = (principal_solution(tm2(r)).evaluate(xs)
                + 1.1 * bound * omega2(r, k, xs))
        assert np.min(vals) < 0.0

    def test_deterministic(self):
        pert = perturbation_tm2(5, 2)
        assert find_gamma_max(pert) == find_gamma_max(pert)

    @pytest.mark.parametrize("r,k,want", [(3, 1, 2.3482347101705265),
                                          (5, 2, 1.0409476019958845),
                                          (10, 4, 1.0409476019958845),
                                          (3, -1, 1.1431535329954585)])
    def test_scaled_scan_keeps_small_r_bounds(self, r, k, want):
        # (5, 2), (10, 4) and (3, -1) take their infimum at the ratio's
        # x -> 0 limit, which a scan from x = 1e-8 missed (2.294 for (5, 2))
        assert find_gamma_max(perturbation_tm2(r, k)) == pytest.approx(
            want, rel=1e-9)

    @pytest.mark.parametrize("r,want", [(9, 1.178), (15, 1.089), (40, 1.023)])
    def test_large_r_bound_finite(self, r, want):
        # K0(2u) underflows (r = 9, 15) and u*^{2r} overflows (r = 40)
        # on the x-scale; the scaled u-scan sees neither
        bound = find_gamma_max(perturbation_tm2(r, 1))
        assert math.isfinite(bound)
        assert bound == pytest.approx(want, abs=1e-3)
        xs = np.logspace(-8, 6, 2000)
        vals = class_member(tm2(r), 1, bound, xs)
        assert np.all(vals >= 0.0)

    @pytest.mark.parametrize("r,k,want", [(3, 1, 2.348234710170527),
                                          (5, 2, 1.0409476019958845),
                                          (7, 3, 4.502411477454808),
                                          (9, 1, 1.178284989758534),
                                          (15, 1, 1.0887845211249443),
                                          (40, 1, 1.0228080242294657)])
    def test_zoom_matches_brent_refinement(self, r, k, want):
        # values of the bounded Brent refinement the zoom replaced; (5, 2)
        # is its origin limit 0.99 / -cos(pi(1/2 - 8/5))
        assert find_gamma_max(perturbation_tm2(r, k)) == pytest.approx(
            want, rel=1e-13)

    @pytest.mark.parametrize("r,k", [(3, 1), (5, 2), (7, 3), (9, 1), (40, 1)])
    def test_refinement_never_shallower_than_scan(self, r, k, monkeypatch):
        seen = []
        ratio = classes._ratio

        def spy(pert, w, log_x):
            vals = ratio(pert, w, log_x)
            seen.append(-vals)
            return vals
        monkeypatch.setattr(classes, "_ratio", spy)
        pert = perturbation_tm2(r, k)
        bound = find_gamma_max(pert)
        worst = float(np.max(seen[0]))  # the scan grid comes first
        deepest = max(float(np.max(v)) for v in seen)
        limit = -classes._search_inputs(pert)[2]  # -omega/W at x -> 0
        assert len(seen) > 1
        assert bound <= 0.99 / worst
        assert bound == 0.99 / max(deepest, limit)

    @pytest.mark.parametrize("r,k", [(3, 1), (5, 2), (10, 4), (3, -1),
                                     (7, 3), (9, 1)])
    def test_interval_certified_down_to_tiny_u(self, r, k):
        # 1 + gamma V/K0 >= 0 at both ends of [-gamma_max(r, -k),
        # gamma_max(r, k)], also where the ratio creeps toward its x -> 0
        # limit, like 1/ln u, far below the scan's start at x = 1e-8
        us = np.logspace(-150.0, 1.0, 20001)
        ratio = _v_over_k0(r, k, us)
        for gamma in (find_gamma_max(perturbation_tm2(r, k)),
                      -find_gamma_max(perturbation_tm2(r, -k))):
            assert np.min(1.0 + gamma * ratio) >= 0.0

    @staticmethod
    def _nonnegative_up_to_scan_end(r, bound):
        """1 + bound V/K0 >= 0 on 20,000 seeded log-uniform u in [1e-3,
        u*], u* = ln(1e8) / c the scan's end; W2 > 0, so the member is
        nonnegative iff that is, and x = u^{2r} overflows for u > 1.04."""
        decay = classes._search_inputs(perturbation_tm2(r, 1))[1]
        u_star = math.log(1e8) / decay
        rng = np.random.default_rng(7)
        us = np.exp(rng.uniform(math.log(1e-3), math.log(u_star), 20000))
        ratio = _v_over_k0(r, 1, us)
        return bool(np.all(1.0 + bound * ratio >= 0.0))

    @pytest.mark.parametrize("r", [10**4, 3 * 10**4])
    def test_bound_finite_where_kve_overflows(self, r):
        # the ratio decays by 1e-8 only past |2u beta| = 1.08e9
        bound = find_gamma_max(perturbation_tm2(r, 1))
        assert math.isfinite(bound)
        assert bound == pytest.approx(0.9904, abs=1e-3)
        assert self._nonnegative_up_to_scan_end(r, bound)
        xs = np.logspace(-8, 300, 2000)
        vals = class_member(tm2(r), 1, bound, xs)
        assert np.all(vals >= 0.0)

    def test_zoom_stops_on_a_bracket_below_xatol_ulps(self):
        # for r this large 1e-10/(2r) is below the float spacing of ln u
        # wherever |ln u| >= 1; the zoom must still stop, and the bound is
        # finite (the search once refused where kve stops being finite)
        r = 10**6
        assert 1e-10 / (2 * r) < np.spacing(1.0)
        bound = find_gamma_max(perturbation_tm2(r, 1))
        assert 0.99 <= bound < math.inf
        assert self._nonnegative_up_to_scan_end(r, bound)

    def test_bound_where_the_old_decay_rounded_to_zero(self):
        # at r = 1e8, 2(Re beta - 1) rounded to 0 and the search refused;
        # the product decay is 4.4e-16, and the bound meets the exact
        # floor |gamma| <= 1
        bound = find_gamma_max(perturbation_tm2(10**8, 1))
        assert 0.99 <= bound < math.inf
        assert self._nonnegative_up_to_scan_end(10**8, bound)

    def test_decay_rounding_to_zero_raises(self):
        # at r = 1e9 the decay g (mu^{1/A} cos(k pi/A) - 1) rounds to 0;
        # the scan's end u* = ln(1e8) / c once divided by zero
        with pytest.raises(SearchError, match="does not decay"):
            find_gamma_max(perturbation_tm2(10**9, 1))

    def test_search_inputs_match_the_k0_closed_form(self):
        # tm2's old search inputs are an oracle for the one search's: the
        # decay 2(Re beta - 1) and the x -> 0 limit Re v_phase of V/K0
        eps = np.finfo(float).eps
        pairs = [(r, k) for r in range(3, 41) for k in range(1 - r, r)
                 if k != 0 and r > 2 * abs(k)]
        for r, k in pairs:
            _, decay, limit = classes._search_inputs(perturbation_tm2(r, k))
            beta, phase = _beta(r, k), _v_phase(r, k)
            assert abs(decay - 2.0 * (beta.real - 1.0)) <= 4.0 * eps, (r, k)
            assert abs(limit - phase.real) <= 1e-14, (r, k)

    def test_ratio_never_negative_raises(self, monkeypatch):
        # omega/W >= 0 on the whole scan leaves nothing to bound
        monkeypatch.setattr(classes, "_search_inputs", lambda pert: (
            lambda u: np.ones(np.shape(u)), 1.0, 0.5))
        with pytest.raises(SearchError,
                           match=r"omega/W never negative on the scan grid "
                                 r"for \(r=3, k=1\); cannot bound the "
                                 "amplitude"):
            find_gamma_max(perturbation_tm3(3, 1))

    def test_infimum_growing_under_refinement_raises(self, monkeypatch):
        # the zoom finds -omega/W 100 times the scan's worst value: the
        # ratio may be unbounded, and no bound is returned
        calls = []

        def ratio(u):
            calls.append(np.size(u))
            return np.full(np.shape(u), -1.0 if len(calls) == 1 else -100.0)

        monkeypatch.setattr(classes, "_search_inputs",
                            lambda pert: (ratio, 1.0, 0.5))
        with pytest.raises(SearchError,
                           match=r"omega/W infimum kept growing under "
                                 r"refinement for \(r=3, k=1\); ratio "
                                 "may be unbounded"):
            find_gamma_max(perturbation_tm3(3, 1))

    def test_nonfinite_bound_raises(self, monkeypatch):
        monkeypatch.setattr(classes, "_signed_im_exp",
                            lambda log_value: 2 * (np.full(np.shape(log_value),
                                                           np.nan),))
        with pytest.raises(SearchError):
            find_gamma_max(perturbation_tm2(3, 1))

    def test_constraint_violation(self):
        with pytest.raises(ConstraintError):
            find_gamma_max(perturbation_tm2(2, 1))

    @pytest.mark.parametrize("r", [2.5, 3.0, 0])
    def test_rejects_r_that_builds_no_second_family(self, r):
        # find_gamma_max(2.5, 1) once returned 3.5179 while tm2(2.5)
        # refused to build the sequence it bounds
        with pytest.raises(ConstraintError, match="r must be an integer >= 1"):
            find_gamma_max(perturbation_tm2(r, 1))

    # (r, k, bound, the bound from SciPy's K0), named by the latter
    _TM2_BOUNDS = [(3, 1, 2.3482347101705248, 2.3482347101705265),
                   (3, -1, 1.143153532995459, 1.143153532995459),
                   (5, 2, 1.0409476019958845, 1.0409476019958845),
                   (5, -2, 3.517867380264564, 3.5178673802645655),
                   (9, 1, 1.1782849897585286, 1.178284989758537),
                   (40, 1, 1.022808024229421, 1.0228080242294793)]

    @pytest.mark.parametrize("r,k,want,scipy_k0", _TM2_BOUNDS,
                             ids=[f"{r}-{k}-{old!r}"
                                  for r, k, _, old in _TM2_BOUNDS])
    def test_tm2_bounds_bit_for_bit(self, r, k, want, scipy_k0):
        # the bits of the one search, omega2 / W2 read off the log forms;
        # the V/K0 search it replaced was within 1.4e-14 of each, and the
        # bits from SciPy's K0 are within 1e-13
        bound = find_gamma_max(perturbation_tm2(r, k))
        assert bound == want
        assert bound == pytest.approx(scipy_k0, rel=1e-13)
        if want != scipy_k0:
            ok, _ = certify_nonnegative(
                lambda xs: class_member(tm2(r), k, bound, xs),
                1e-8, 1e6, 2000, seed=1)
            assert ok

    def test_first_family_has_no_search(self):
        with pytest.raises(ConstraintError, match=r"exact amplitude rule "
                                                  r"\|eps\| < 1"):
            find_gamma_max(perturbation_tm1(2, 1))

    def test_monte_carlo_recheck(self):
        r, k = 3, 1
        bound = find_gamma_max(perturbation_tm2(r, k))
        ok, min_val = certify_nonnegative(
            lambda xs: class_member(tm2(r), k, bound, xs),
            1e-8, 1e6, 5000, seed=123)
        assert ok
        assert min_val >= 0.0

    @pytest.mark.parametrize("seed", [-1, 2.5, None])
    def test_monte_carlo_rejects_bad_seed(self, seed):
        # a negative seed once reached numpy's raw ValueError
        with pytest.raises(ConstraintError, match="integer >= 0"):
            certify_nonnegative(lambda xs: xs, 1.0, 2.0, 10, seed)

    def test_monte_carlo_deterministic(self):
        f = lambda xs: np.ones_like(xs)
        assert certify_nonnegative(f, 0.1, 10.0, 100, seed=7) == \
            certify_nonnegative(f, 0.1, 10.0, 100, seed=7)

    @pytest.mark.parametrize("x_lo,x_hi,n", [
        (1.0, 2.0, 0), (0.0, 2.0, 10), (2.0, 1.0, 10), (1.0, math.inf, 10)],
        ids=["n-zero", "x-lo-zero", "x-lo-above-x-hi", "x-hi-inf"])
    def test_monte_carlo_rejects_bad_sample(self, x_lo, x_hi, n):
        # each once escaped as numpy's or math's ValueError/OverflowError
        with pytest.raises(ConstraintError):
            certify_nonnegative(lambda xs: xs, x_lo, x_hi, n, 1)

    def test_monte_carlo_nonfinite_member_raises(self):
        # once (True, nan): a NaN member passed as nonnegative
        rng = random.Random(1)
        lo, hi = math.log(0.1), math.log(10.0)
        u = np.array([rng.random() for _ in range(100)])
        xs = np.exp(lo + (hi - lo) * u)
        first = float(np.min(xs[xs > 1]))
        with pytest.raises(ConvergenceError, match=f"at x = {first:.6g} is"):
            certify_nonnegative(lambda xs: np.where(xs > 1, np.nan, 1.0),
                                0.1, 10, 100, 1)


class TestThirdFamilyInterval:
    """tm3's amplitude interval comes from the search tm2 runs, on the
    ratio omega3 / W3 read off the two log forms."""

    @pytest.mark.parametrize("k,end", [(1, 3.0126), (-1, 1.1547)])
    def test_ends_meet_the_ratio_extremes(self, k, end):
        # omega3 / W3 for (3, 1) reaches -0.3319 at ln x ~ 3.37, so gamma >
        # 3.0126 makes a member negative there, yet 3.013 once passed on
        # the default grid; at the origin it tends to sin(2 pi/3) = 0.866,
        # which bounds a negative gamma by 1/0.866
        bound = find_gamma_max(perturbation_tm3(3, k))
        assert bound / classes._SAFETY == pytest.approx(end, abs=1e-3)
        with pytest.raises(ConstraintError, match="exceeds the amplitude"):
            class_member(tm3(3), 1, math.copysign(1.0001 * bound, k), 1.0)

    @pytest.mark.parametrize("r,k", [(3, 1), (3, -1), (5, 2), (5, -2),
                                     (7, 3), (7, -3)])
    def test_member_at_bound_nonnegative(self, r, k):
        pert = perturbation_tm3(r, k)
        bound = find_gamma_max(pert)
        w = principal_solution(pert.seq)
        ok, least = certify_nonnegative(
            lambda xs: w.evaluate(xs) + bound * pert.evaluate(xs),
            1e-300, 1e3, 20000, 1)
        assert ok, least

    def test_bound_finite_at_large_r(self):
        # the residue series once certified omega3 sums past the double
        # range, so the ratio was inf at scan points and the bound 0.0
        bound = find_gamma_max(perturbation_tm3(30, 1))
        assert bound == pytest.approx(1.0497, abs=1e-3)


class TestMonteCarloBlocks:
    """certify_nonnegative evaluates its sample in blocks of 4,000."""

    @staticmethod
    def _sample(n, seed):
        rng = random.Random(seed)
        lo, hi = math.log(1e-8), math.log(1e6)
        u = np.array([rng.random() for _ in range(n)])
        return np.sort(np.exp(lo + (hi - lo) * u))

    @pytest.mark.parametrize("n", [1, 3999, 4000, 4001, 20000])
    def test_blocks_give_whole_sample_result(self, n):
        xs = self._sample(n, 5)
        # negative only at the largest point, in the last block
        member = lambda v: np.where(v >= xs[-1], -v, 1.0 + v)
        whole = member(xs)
        assert certify_nonnegative(member, 1e-8, 1e6, n, 5) == \
            (not np.any(whole < 0.0), float(np.min(whole)))

    @pytest.mark.parametrize("n,sizes", [(4001, [4000, 1]),
                                         (20000, [4000] * 5)])
    def test_member_sees_sorted_blocks(self, n, sizes):
        blocks = []
        certify_nonnegative(lambda v: blocks.append(v.copy()) or v,
                            1e-8, 1e6, n, 5)
        assert [b.size for b in blocks] == sizes
        assert np.array_equal(np.concatenate(blocks), self._sample(n, 5))

    def test_tm2_recheck_peak_memory(self):
        # one 20,000-point evaluation of W + gamma omega peaked at 2.1 MB
        import tracemalloc
        seq = tm2(3)
        w, pert, bound = (principal_solution(seq), perturbation(seq, 1),
                          find_gamma_max(perturbation_tm2(3, 1)))
        member = lambda xs: w.evaluate(xs) + bound * pert.evaluate(xs)
        member(np.array([1.0]))  # first-use tables build outside the trace
        tracemalloc.start()
        try:
            ok, _ = certify_nonnegative(member, 1e-8, 1e6, 20000, 42)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ok
        assert peak <= 1e6


class TestPerturbationObjects:
    def test_metadata(self):
        p = perturbation_tm1(3, 2)
        assert p.family == "tm1"
        assert (p.r, p.k) == (3, 2)
        assert p.seq.family == ("tm1", 3)

    @pytest.mark.parametrize("seq,make", [(tm1(2), perturbation_tm1),
                                          (tm2(3), perturbation_tm2),
                                          (tm3(3), perturbation_tm3)],
                             ids=["tm1", "tm2", "tm3"])
    def test_perturbation_picks_family(self, seq, make):
        family, r = seq.family
        got, want = perturbation(seq, 1), make(r, 1)
        assert got.family == family
        assert ((got.family, got.r, got.k, got.seq, got.growth)
                == (want.family, want.r, want.k, want.seq, want.growth))

    @pytest.mark.parametrize("text,a", [("tm4:r=1", 2), ("tm2:r=2", 2),
                                        ("gamma:2n+1,2n+1,2n+1,2n+1", 2),
                                        ("gamma:n+1,0.5n+2", 1)])
    def test_perturbation_needs_star_factor_above_2k(self, text, a):
        # tm4:r=1 once got "needs one gamma factor, or two or three equal
        # factors"; now every product is refused only by a* > 2|k|, with
        # a* and the descriptor, or r for the paper's families, named
        seq = parse_descriptor(text)
        name = f"r={seq.family[1]}" if seq.family else text
        want = rf"needs a > 2\|k\| \(a={a}, {re.escape(name)}, k=1\)"
        with pytest.raises(ConstraintError, match=want):
            perturbation(seq, 1)

    @pytest.mark.parametrize("text,star", [
        ("tm4:r=2", (4, 1)), ("gamma:n+1,3n+2,3n+0.5", (3.0, 2.0)),
        ("gamma:2.5n+0.7,2.5n+1.3", (2.5, 0.7))])
    def test_product_without_family(self, text, star):
        # the star factor is the first with the largest multiplier, and a
        # product past the paper's families has no family and no r
        seq = parse_descriptor(text)
        assert classes._star_factor(seq) == star
        pert = perturbation(seq, 1)
        assert (pert.family, pert.r, pert.k, pert.seq) == (None, None, 1, seq)
        assert pert.growth == (seq.tail_coefficient, seq.tail_power)

    def test_nonpositive_x_is_a_domain_error(self):
        # the same check, and error, as WeightFunction.evaluate
        for x in (0.0, -1.0, np.inf):
            with pytest.raises(DomainError):
                perturbation(tm1(2), 1).evaluate(x)
            with pytest.raises(DomainError):
                principal_solution(tm1(2)).evaluate(x)

    def test_invalid_parameters_rejected_at_build(self):
        with pytest.raises(ConstraintError):
            perturbation_tm1(1, 1)
        with pytest.raises(ConstraintError):
            perturbation_tm2(2, 1)
        with pytest.raises(ConstraintError):
            perturbation_tm3(2, 2)

    def test_build_evaluates_nothing(self, monkeypatch):
        # the constructors check (r, k) directly: no omega value, and for
        # the first two families no closed form, is computed
        def evaluated(*args, **kwargs):
            raise AssertionError("perturbation evaluated at build")
        for module, name in ((weights, "_log_w1"), (weights, "_log_w2"),
                             (classes, "_contour_sums")):
            monkeypatch.setattr(module, name, evaluated)
        perturbation_tm1(2, 1)
        perturbation_tm2(3, 1)
        perturbation_tm3(3, 1)

    @pytest.mark.parametrize("r,k", [(2, 1), (3, -2), (4, 2)])
    def test_third_family_needs_r_above_2k(self, r, k):
        with pytest.raises(ConstraintError,
                           match=r"needs a > 2\|k\| \(a="):
            perturbation_tm3(r, k)


def _rotated_oracle(seq, k, log_x):
    """sec^{a*-b*}(theta) Im W(mu e^{-i k pi} x) from mpmath's Meijer G,
    theta = k pi / a*, ln mu = a* ln sec(theta)."""
    a, b = classes._star_factor(seq)
    log_sec = -math.log(math.cos(math.pi * k / a))
    log_w = meijer_log_density(seq, log_x + a * log_sec, k * math.pi)
    return math.exp((a - b) * log_sec + log_w.real) * math.sin(log_w.imag)


# the products the rotated route serves past the paper's families, with k
_ROTATED = [("tm4:r=2", 1), ("tm4:r=2", -1), ("tm4:r=3", 2), ("tm4:r=6", 5),
            ("gamma:3n+1,3n+1,3n+1,3n+1", 1), ("gamma:2.5n+0.7,2.5n+1.3", 1),
            ("gamma:3n+1,n+1", 1)]


class TestRotatedRoute:
    """omega = W_rest * omega1 of the star factor, by one rotated contour
    sum, for every product the closed forms leave."""

    @pytest.mark.parametrize("text,k", [("tm4:r=2", 1), ("tm4:r=2", -1),
                                        ("gamma:3n+1,3n+1,3n+1,3n+1", 1)])
    def test_matches_meijer_g_oracle(self, text, k):
        # two seeded x per case, as the oracle takes 0.1-0.3 s a point
        seq = parse_descriptor(text)
        pert, w = perturbation(seq, k), principal_solution(seq)
        rng = np.random.default_rng(sum(map(ord, text)) + k)
        for log_x in rng.uniform(math.log(1e-6), math.log(1e3), 2):
            x = math.exp(log_x)
            assert abs(pert.evaluate(x) - _rotated_oracle(seq, k, log_x)) \
                <= 1e-13 * w.evaluate(x)

    def test_matches_convolution_oracle(self):
        # tm4:r=2 = Gamma(4n+1) Gamma(2n+1)^2: W_rest = W2(2), omega1(4, 1)
        xs = np.exp(np.random.default_rng(42).uniform(math.log(0.5),
                                                       math.log(50.0), 6))
        conv = mellin_convolve_many(
            lambda v: w2(2, v), perturbation_tm1(2, 1).evaluate, xs,
            log_f=lambda v: _log_w2(2, np.log(v)),
            log_g=lambda v: classes._log_w1(4, np.log(v)))
        got = perturbation(tm4(2), 1).evaluate(xs)
        env = principal_solution(tm4(2)).evaluate(xs)
        assert np.all(np.abs(got - conv) <= 1e-13 * env)

    @pytest.mark.parametrize("r,k", [(3, 1), (5, 2), (9, 1)])
    def test_second_family_closed_form(self, r, k):
        # tm2's K0 ratio is the rule's closed form: the contour sum agrees
        lx = np.linspace(-12.0, 12.0, 25)
        sign, log_abs = classes._log_rotated(tm2(r), k, lx)
        got = sign * np.exp(log_abs)
        want = perturbation_tm2(r, k).evaluate(np.exp(lx))
        env = principal_solution(tm2(r)).evaluate(np.exp(lx))
        assert np.all(np.abs(got - want) <= 1e-14 * env)

    @pytest.mark.parametrize("text,k", _ROTATED)
    def test_vanishing_moments(self, text, k):
        seq = parse_descriptor(text)
        pert = perturbation(seq, k)
        for n in range(9):
            res = check_vanishing(pert, seq, n)
            assert res.passed, (n, res.rel_error)

    @pytest.mark.parametrize("text,k,want", [
        ("tm4:r=2", 1, 1.60408), ("tm4:r=2", -1, 1.40007),
        ("gamma:3n+1,3n+1,3n+1,3n+1", 1, 3.33753),
        ("gamma:3n+1,3n+1,3n+1,3n+1", -1, 1.14315),
        ("gamma:2.5n+0.7,2.5n+1.3", 1, 2.53801)])
    def test_bound_above_exact_floor_and_certified(self, text, k, want):
        # W + gamma omega = W_rest * (w1 + gamma omega1) >= 0 for |gamma|
        # <= 1, so the searched bound is at least 0.99; the member at it
        # stays nonnegative on a 20,000-point sample
        seq = parse_descriptor(text)
        pert, w = perturbation(seq, k), principal_solution(seq)
        bound = find_gamma_max(pert)
        assert bound >= 0.99 and bound == pytest.approx(want, abs=1e-5)
        ok, least = certify_nonnegative(
            lambda xs: w.evaluate(xs) + bound * pert.evaluate(xs),
            1e-8, 1e3, 20000, 1)
        assert ok, least

    @pytest.mark.parametrize("log_x", [-100.0, -400.0, -2400.0])
    def test_origin_limit_off_the_star_pole(self, log_x):
        # gamma:3n+2,n+0.2: the star factor's pole p* = 1/3 lies left of
        # the rightmost p0 = 0.8, so omega / W -> mu^{p*-p0} sin(k pi p0);
        # the next pole is 0.47 away, so the ratio is there to rounding
        seq = parse_descriptor("gamma:3n+2,n+0.2")
        pert = perturbation(seq, 1)
        log_mu = -3.0 * math.log(math.cos(math.pi / 3.0))
        want = math.exp(log_mu * (1.0 / 3.0 - 0.8)) * math.sin(0.8 * math.pi)
        assert classes._search_inputs(pert)[2] == pytest.approx(want,
                                                                rel=1e-14)
        ratio = classes._ratio(pert, principal_solution(seq),
                               np.array([log_x]))
        assert float(ratio[0]) == pytest.approx(want, rel=1e-12)

    # (r, k, bound, the bounds it had before, oldest first: from SciPy's
    # log-gamma, then from a grid that counted the knots' |ln x|, then
    # from special functions whose series depended on the array's size,
    # then from interpolant panels 8 wide at every A), named by the oldest
    _TM3_BOUNDS = [(3, 1, 2.9824981371022465,
                    (2.9824981371022385, 2.9824981371022306)),
                   (3, -1, 1.143153532995459, (1.143153532995459,)),
                   (5, 2, 1.0409476019958845, (1.0409476019958845,)),
                   (7, 3, 6.877028249257251,
                    (6.877028249257311, 6.877028249257313, 6.87702824925731,
                     6.877028249257315)),
                   (7, -3, 1.0154596946398282, (1.0154596946398282,))]

    @pytest.mark.parametrize("r,k,want,earlier", _TM3_BOUNDS,
                             ids=[f"{r}-{k}-{old[0]!r}"
                                  for r, k, _, old in _TM3_BOUNDS])
    def test_tm3_bounds_bit_for_bit(self, r, k, want, earlier):
        # tm3 is the rule at a star factor (r, 1) holding the rightmost
        # pole; its bounds keep every bit of the tm3-only search, and the
        # bits it had before are within 1e-13
        bound = find_gamma_max(perturbation_tm3(r, k))
        assert bound == want
        for old in earlier:
            assert bound == pytest.approx(old, rel=1e-13)
        if any(old != want for old in earlier):
            ok, _ = certify_nonnegative(
                lambda xs: class_member(tm3(r), k, bound, xs),
                1e-8, 1e6, 2000, seed=1)
            assert ok

    def test_amplitude_within_the_floor_runs_no_search(self, monkeypatch):
        # every bound is >= 0.99, so only a larger |gamma| is searched: a
        # tm3:r=200 search once took 17 s on every class_member call
        calls = []
        search = classes.find_gamma_max
        monkeypatch.setattr(classes, "find_gamma_max",
                            lambda pert: calls.append(pert.k) or search(pert))
        for gamma in (0.5, -0.5, 0.99, -0.99):
            class_member(tm4(2), 1, gamma, 1.0)
        assert calls == []
        class_member(tm4(2), 1, 1.0, 1.0)
        class_member(tm4(2), 1, -1.0, 1.0)
        assert calls == [1, -1]
