"""Stieltjes class machinery: perturbations, members, amplitude bounds."""

import math

import numpy as np
import pytest

import gammamoments.classes as classes
import gammamoments.mellin as mellin
from gammamoments import (ConstraintError, SearchError, class_member_tm1,
                          class_member_tm2, class_member_tm3,
                          certify_nonnegative,
                          contour_log_density, find_gamma_max, omega1, omega2,
                          omega2_v, omega2_via_convolution, omega3,
                          omega3_via_convolution, perturbation_tm1,
                          perturbation_tm2, perturbation_tm3,
                          principal_solution, tm3, w1,
                          weight_tm1, weight_tm2, weight_tm3)


class TestOmega1:
    def test_bounded_by_principal(self):
        xs = np.logspace(-6, 4, 200)
        assert np.all(np.abs(omega1(2, 1, xs)) <= w1(4, xs) * (1 + 1e-15))

    def test_zero_crossings_on_phase_grid(self):
        # sine phase 3pi/4 + x^{1/4} tan(pi/4) vanishes at
        # x = (m pi - 3 pi/4)^4
        for m in (1, 2, 3, 4):
            x0 = (m * math.pi - 0.75 * math.pi) ** 4
            left = omega1(2, 1, x0 * (1 - 1e-4))
            right = omega1(2, 1, x0 * (1 + 1e-4))
            assert left * right < 0.0

    def test_constraint_violations(self):
        with pytest.raises(ConstraintError):
            omega1(2, 2, 1.0)
        with pytest.raises(ConstraintError):
            omega1(3, 0, 1.0)
        with pytest.raises(ConstraintError):
            omega1(1, 1, 1.0)


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
        r, k, x = 3, 1, 2.0
        want = 2.0 / (r * x ** ((r - 1.0) / r)) * omega2_v(r, k, x)
        assert omega2(r, k, x) == pytest.approx(want, rel=1e-14)

    def test_constraint_violations(self):
        with pytest.raises(ConstraintError):
            omega2(2, 1, 1.0)
        with pytest.raises(ConstraintError):
            omega2(4, 2, 1.0)


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
        with pytest.raises(ConstraintError):
            omega3(3, 1, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("r,k", [(3, 1), (3, -1), (4, 1), (5, 2), (6, 1),
                                     (7, 3)])
    def test_contour_matches_convolution_oracle(self, r, k):
        xs = np.logspace(-8, 4, 37)
        env = weight_tm3(r).evaluate(xs)
        diff = np.abs(omega3(r, k, xs) - omega3_via_convolution(r, k, xs))
        assert np.all(diff <= 1e-12 * env)

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
    def test_tm1_identity_at_zero_eps(self):
        xs = np.logspace(-3, 3, 50)
        assert np.allclose(class_member_tm1(2, 1, 0.0, xs),
                           weight_tm1(2).evaluate(xs), rtol=1e-14)

    def test_tm1_nonnegative_inside_band(self):
        xs = np.logspace(-8, 5, 5000)
        for eps in (-0.999, -0.5, 0.5, 0.999):
            assert np.all(class_member_tm1(2, 1, eps, xs) >= 0.0)

    def test_tm1_members_differ(self):
        xs = np.logspace(-2, 2, 200)
        a = class_member_tm1(2, 1, 0.5, xs)
        b = class_member_tm1(2, 1, -0.5, xs)
        assert np.max(np.abs(a - b)) > 1e-3

    def test_tm1_amplitude_band_enforced(self):
        # NaN once passed the |eps| >= 1 test and gave a NaN member
        for eps in (1.0, -1.5, math.nan):
            with pytest.raises(ConstraintError):
                class_member_tm1(2, 1, eps, 1.0)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
    def test_tm3_nonfinite_amplitude_rejected(self, gamma):
        with pytest.raises(ConstraintError, match="finite amplitude"):
            class_member_tm3(3, 1, gamma, 1.0)

    def test_tm2_member_at_bound_nonnegative(self):
        r, k = 3, 1
        bound = find_gamma_max(r, k)
        xs = np.logspace(-8, 6, 10000)
        vals = class_member_tm2(r, k, bound, xs, gamma_bound=bound)
        assert np.all(vals >= 0.0)

    def test_tm2_member_reduces_to_base(self):
        xs = np.logspace(-2, 2, 30)
        got = class_member_tm2(3, 1, 0.0, xs, gamma_bound=1.0)
        assert np.allclose(got, weight_tm2(3).evaluate(xs), rtol=1e-14)

    def test_tm2_bound_enforced(self):
        bound = find_gamma_max(3, 1)
        with pytest.raises(ConstraintError):
            class_member_tm2(3, 1, 2.0 * bound, 1.0, gamma_bound=bound)

    def test_tm2_nan_bound_rejected(self):
        with pytest.raises(ConstraintError):
            class_member_tm2(3, 1, 0.5, 1.0, gamma_bound=float("nan"))


class TestGammaMax:
    @pytest.mark.parametrize("r,k", [(3, 1), (5, 2), (7, 3)])
    def test_bound_certifies_positivity(self, r, k):
        bound = find_gamma_max(r, k)
        assert bound > 0.0
        xs = np.logspace(-8, 6, 10000)
        vals = class_member_tm2(r, k, bound, xs, gamma_bound=bound)
        assert np.all(vals >= 0.0)

    def test_exceeding_bound_breaks_positivity(self):
        r, k = 3, 1
        bound = find_gamma_max(r, k)
        # the safety factor is 0.99, so 1.1x the bound must go negative
        xs = np.logspace(-8, 6, 20000)
        vals = class_member_tm2(r, k, 1.1 * bound, xs,
                                gamma_bound=2.0 * bound)
        assert np.min(vals) < 0.0

    def test_deterministic(self):
        assert find_gamma_max(5, 2) == find_gamma_max(5, 2)

    @pytest.mark.parametrize("r,k,want", [(3, 1, 2.3482347101705265),
                                          (5, 2, 2.294374844349574)])
    def test_scaled_scan_keeps_small_r_bounds(self, r, k, want):
        assert find_gamma_max(r, k) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("r,want", [(9, 1.178), (15, 1.089), (40, 1.023)])
    def test_large_r_bound_finite(self, r, want):
        # K0(2u) underflows (r = 9, 15) and u*^{2r} overflows (r = 40)
        # on the x-scale; the scaled u-scan sees neither
        bound = find_gamma_max(r, 1)
        assert math.isfinite(bound)
        assert bound == pytest.approx(want, abs=1e-3)
        xs = np.logspace(-8, 6, 2000)
        vals = class_member_tm2(r, 1, bound, xs, gamma_bound=bound)
        assert np.all(vals >= 0.0)

    @pytest.mark.parametrize("r,k,want", [(3, 1, 2.348234710170527),
                                          (5, 2, 2.294374844349573),
                                          (7, 3, 4.502411477454808),
                                          (9, 1, 1.178284989758534),
                                          (15, 1, 1.0887845211249443),
                                          (40, 1, 1.0228080242294657)])
    def test_zoom_matches_brent_refinement(self, r, k, want):
        # values of the bounded Brent refinement the zoom replaced
        assert find_gamma_max(r, k) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("r,k", [(3, 1), (5, 2), (7, 3), (9, 1), (40, 1)])
    def test_refinement_never_shallower_than_scan(self, r, k, monkeypatch):
        seen = []
        ratio = classes._ratio_v_over_k0

        def spy(r, k, u):
            vals = ratio(r, k, u)
            seen.append(-vals)
            return vals
        monkeypatch.setattr(classes, "_ratio_v_over_k0", spy)
        bound = find_gamma_max(r, k)
        worst = float(np.max(seen[0]))  # the scan grid comes first
        deepest = max(float(np.max(v)) for v in seen)
        assert len(seen) > 1
        assert bound <= 0.99 / worst
        assert bound == 0.99 / deepest

    @pytest.mark.parametrize("r", [10**4, 3 * 10**4])
    def test_bound_finite_where_kve_overflows(self, r):
        # the ratio decays by 1e-8 only past |2u beta| = 1.08e9, where
        # scipy's kve(0, z) is nan; the scan stops short of that
        bound = find_gamma_max(r, 1)
        assert math.isfinite(bound)
        assert bound == pytest.approx(0.9904, abs=1e-3)
        # W2 > 0, so the member is nonnegative iff 1 + gamma V/K0 is; x =
        # u^{2r} overflows for u > 1.04, so sample in u up to the scan's cut
        rng = np.random.default_rng(7)
        us = np.exp(rng.uniform(0.0, math.log(5e8), 20000))
        assert np.all(1.0 + bound * classes._ratio_v_over_k0(r, 1, us) >= 0.0)
        xs = np.logspace(-8, 300, 2000)
        vals = class_member_tm2(r, 1, bound, xs, gamma_bound=bound)
        assert np.all(vals >= 0.0)

    def test_zoom_stops_on_a_bracket_below_xatol_ulps(self):
        # for r this large 1e-10/(2r) is below the float spacing of ln u;
        # the zoom must still stop, and since the ratio has not decayed
        # where scaled K0 stops being finite, the search must raise
        with pytest.raises(SearchError, match="not decayed"):
            find_gamma_max(10**6, 1)

    def test_decay_rounding_to_zero_raises(self):
        # at r = 1e8, Re beta - 1 ~ (pi/r)^2/8 rounds to 0; the scan's end
        # u* = ln(1e8) / (2 (Re beta - 1)) once divided by zero
        with pytest.raises(SearchError, match="does not decay"):
            find_gamma_max(10**8, 1)

    def test_nonfinite_bound_raises(self, monkeypatch):
        monkeypatch.setattr(classes, "_ratio_v_over_k0",
                            lambda r, k, u: np.full(np.shape(u), np.nan))
        with pytest.raises(SearchError):
            find_gamma_max(3, 1)

    def test_constraint_violation(self):
        with pytest.raises(ConstraintError):
            find_gamma_max(2, 1)

    def test_monte_carlo_recheck(self):
        r, k = 3, 1
        bound = find_gamma_max(r, k)
        ok, min_val = certify_nonnegative(
            lambda xs: class_member_tm2(r, k, bound, xs, gamma_bound=bound),
            1e-8, 1e6, 5000, seed=123)
        assert ok
        assert min_val >= 0.0

    def test_monte_carlo_deterministic(self):
        f = lambda xs: np.ones_like(xs)
        assert certify_nonnegative(f, 0.1, 10.0, 100, seed=7) == \
            certify_nonnegative(f, 0.1, 10.0, 100, seed=7)


class TestPerturbationObjects:
    def test_metadata(self):
        p = perturbation_tm1(3, 2)
        assert p.family == "tm1"
        assert (p.r, p.k) == (3, 2)
        assert p.seq.kind == "tm1"

    def test_callable(self):
        p = perturbation_tm2(3, 1)
        x = 1.7
        assert p(x) == pytest.approx(omega2(3, 1, x), rel=1e-14)

    def test_invalid_parameters_rejected_at_build(self):
        with pytest.raises(ConstraintError):
            perturbation_tm1(1, 1)
        with pytest.raises(ConstraintError):
            perturbation_tm2(2, 1)
        with pytest.raises(ConstraintError):
            perturbation_tm3(2, 2)

    def test_build_evaluates_nothing(self, monkeypatch):
        # the constructors check (r, k) directly: no omega value, and for
        # the second family no complex-K0 quadrature, is computed
        def evaluated(*args, **kwargs):
            raise AssertionError("perturbation evaluated at build")
        for name in ("w1", "bessel_k0_complex", "_contour_sums"):
            monkeypatch.setattr(classes, name, evaluated)
        perturbation_tm1(2, 1)
        perturbation_tm2(3, 1)
        perturbation_tm3(3, 1)

    @pytest.mark.parametrize("r,k", [(2, 1), (3, -2), (4, 2)])
    def test_third_family_needs_r_above_2k(self, r, k):
        with pytest.raises(ConstraintError,
                           match=r"third family requires r > 2\|k\|"):
            perturbation_tm3(r, k)
