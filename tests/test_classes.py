"""Stieltjes class machinery: perturbations, members, amplitude bounds."""

import math

import numpy as np
import pytest
import scipy.special

import gammamoments.classes as classes
import gammamoments.mellin as mellin
from gammamoments import (ConstraintError, ConvergenceError, DomainError,
                          SearchError, check_vanishing, class_member,
                          certify_nonnegative, contour_log_density,
                          find_gamma_max, omega2, omega2_via_convolution,
                          omega3, perturbation, perturbation_tm1,
                          perturbation_tm2, perturbation_tm3,
                          parse_descriptor, principal_solution, tm1, tm2,
                          tm3, tm4, w1, w2)
from oracles import meijer_log_density


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
            # the side conditions: r > |k| for the first family, r > 2|k|
            # for the second and third
            family, r = seq.family or (None, None)
            if family is not None and r > (1 if family == "tm1" else 2):
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
        def no_search(r, k):
            raise AssertionError(f"bound searched for (r={r}, k={k})")
        monkeypatch.setattr(classes, "find_gamma_max", no_search)
        with pytest.raises(ConstraintError,
                           match=f"need a finite amplitude, got {amplitude}"):
            class_member(seq, 1, amplitude, 1.0)

    def test_tm3_negative_member_refused(self):
        # tm3 has no closed amplitude bound, so the member values are checked
        with pytest.raises(ConstraintError, match=r"negative at x = 0\.5 "):
            class_member(tm3(3), 1, 1e6, np.array([1e-3, 0.5, 1.0]))
        assert np.all(class_member(tm3(3), 1, 0.1, np.logspace(-4, 4, 50)) > 0)

    def test_tm2_member_at_bound_nonnegative(self):
        r, k = 3, 1
        bound = find_gamma_max(r, k)
        xs = np.logspace(-8, 6, 10000)
        vals = class_member(tm2(r), k, bound, xs)
        assert np.all(vals >= 0.0)

    def test_tm2_member_reduces_to_base(self):
        xs = np.logspace(-2, 2, 30)
        got = class_member(tm2(3), 1, 0.0, xs)
        assert np.allclose(got, principal_solution(tm2(3)).evaluate(xs),
                           rtol=1e-14)

    def test_tm2_bound_enforced(self):
        bound = find_gamma_max(3, 1)
        with pytest.raises(ConstraintError,
                           match="exceeds the certified bound"):
            class_member(tm2(3), 1, 2.0 * bound, 1.0)

    def test_tm2_negative_gamma_meets_bound_of_minus_k(self):
        # omega2(r, -k) = -omega2(r, k), so gamma < 0 is bounded by
        # find_gamma_max(r, -k) = 1.143 for (3, 1), not by 2.348; at
        # gamma = -2.3 the member was -1.7e5 at x = 1e-8
        assert omega2(3, -1, 0.7) == pytest.approx(-omega2(3, 1, 0.7),
                                                   rel=1e-12)
        with pytest.raises(ConstraintError, match=r"bound 1\.14315 for "
                                                  r"\(r=3, k=-1\)"):
            class_member(tm2(3), 1, -2.3, 1e-8)
        xs = np.logspace(-40, 6, 2000)
        assert np.all(class_member(tm2(3), 1, -find_gamma_max(3, -1), xs) >= 0)

    def test_tm2_finite_past_scaled_bessel_range(self):
        # kve(0, z) is nan past |z| ~ 1.08e9, which made the member nan at
        # x = 1e60 (r = 3); there V/K0 takes its large-argument form
        xs = np.array([1e60, 1e200])
        assert np.array_equal(class_member(tm2(3), 1, 0.5, xs), [0.0, 0.0])
        assert np.array_equal(omega2(3, 1, xs), [0.0, 0.0])
        # and the form joins the scaled Bessel functions at the cut where
        # the ratio is not yet negligible (Re beta - 1 ~ 5e-8 at r = 5000)
        beta = classes._beta(5000, 1)
        u = (0.5 * classes._KVE_MAX_ABS / abs(beta)
             * np.array([1.0 - 1e-15, 1.0 + 1e-15]))
        below, above = classes._ratio_v_over_k0(5000, 1, u)
        envelope = math.exp(-2.0 * u[0] * (beta.real - 1.0)) / abs(beta) ** 0.5
        assert envelope > 1e-30
        assert abs(below - above) <= 1e-8 * envelope


class TestGammaMax:
    @pytest.mark.parametrize("r,k", [(3, 1), (5, 2), (7, 3)])
    def test_bound_certifies_positivity(self, r, k):
        bound = find_gamma_max(r, k)
        assert bound > 0.0
        xs = np.logspace(-8, 6, 10000)
        vals = class_member(tm2(r), k, bound, xs)
        assert np.all(vals >= 0.0)

    def test_exceeding_bound_breaks_positivity(self):
        r, k = 3, 1
        bound = find_gamma_max(r, k)
        # the safety factor is 0.99, so 1.1x the bound must go negative;
        # class_member refuses that amplitude, so W + gamma omega is formed
        xs = np.logspace(-8, 6, 20000)
        vals = (principal_solution(tm2(r)).evaluate(xs)
                + 1.1 * bound * omega2(r, k, xs))
        assert np.min(vals) < 0.0

    def test_deterministic(self):
        assert find_gamma_max(5, 2) == find_gamma_max(5, 2)

    @pytest.mark.parametrize("r,k,want", [(3, 1, 2.3482347101705265),
                                          (5, 2, 1.0409476019958845),
                                          (10, 4, 1.0409476019958845),
                                          (3, -1, 1.1431535329954585)])
    def test_scaled_scan_keeps_small_r_bounds(self, r, k, want):
        # (5, 2), (10, 4) and (3, -1) take their infimum at the ratio's
        # x -> 0 limit, which a scan from x = 1e-8 missed (2.294 for (5, 2))
        assert find_gamma_max(r, k) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("r,want", [(9, 1.178), (15, 1.089), (40, 1.023)])
    def test_large_r_bound_finite(self, r, want):
        # K0(2u) underflows (r = 9, 15) and u*^{2r} overflows (r = 40)
        # on the x-scale; the scaled u-scan sees neither
        bound = find_gamma_max(r, 1)
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
        limit = -classes._v_phase(r, k).real  # -V/K0 at x -> 0
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
        ratio = classes._ratio_v_over_k0(r, k, us)
        for gamma in (find_gamma_max(r, k), -find_gamma_max(r, -k)):
            assert np.min(1.0 + gamma * ratio) >= 0.0

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
        vals = class_member(tm2(r), 1, bound, xs)
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

    @pytest.mark.parametrize("r", [2.5, 3.0, 0])
    def test_rejects_r_that_builds_no_second_family(self, r):
        # find_gamma_max(2.5, 1) once returned 3.5179 while tm2(2.5)
        # refused to build the sequence it bounds
        with pytest.raises(ConstraintError, match="r must be an integer >= 1"):
            find_gamma_max(r, 1)

    def test_monte_carlo_recheck(self):
        r, k = 3, 1
        bound = find_gamma_max(r, k)
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
        rng = np.random.default_rng(1)
        xs = np.exp(rng.uniform(math.log(0.1), math.log(10.0), 100))
        first = float(np.min(xs[xs > 1]))
        with pytest.raises(ConvergenceError, match=f"at x = {first:.6g} is"):
            certify_nonnegative(lambda xs: np.where(xs > 1, np.nan, 1.0),
                                0.1, 10, 100, 1)


class TestMonteCarloBlocks:
    """certify_nonnegative evaluates its sample in blocks of 4,000."""

    @staticmethod
    def _sample(n, seed):
        rng = np.random.default_rng(seed)
        return np.sort(np.exp(rng.uniform(math.log(1e-8), math.log(1e6), n)))

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
                          find_gamma_max(3, 1))
        member = lambda xs: w.evaluate(xs) + bound * pert.evaluate(xs)
        member(np.array([1.0]))  # scipy.special loads outside the trace
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

    def test_callable(self):
        p = perturbation_tm2(3, 1)
        x = 1.7
        assert p(x) == pytest.approx(omega2(3, 1, x), rel=1e-14)

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

    def test_perturbation_rejects_other_kinds(self):
        with pytest.raises(ConstraintError,
                           match="equal factors .* got tm4:r=1"):
            perturbation(tm4(1), 1)

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
        # the second family no complex-K0 ratio, is computed
        def evaluated(*args, **kwargs):
            raise AssertionError("perturbation evaluated at build")
        for name in ("_log_w1", "_log_w2", "_ratio_v_over_k0",
                     "_contour_sums"):
            monkeypatch.setattr(classes, name, evaluated)
        perturbation_tm1(2, 1)
        perturbation_tm2(3, 1)
        perturbation_tm3(3, 1)

    @pytest.mark.parametrize("r,k", [(2, 1), (3, -2), (4, 2)])
    def test_third_family_needs_r_above_2k(self, r, k):
        with pytest.raises(ConstraintError,
                           match=r"needs a > 2\|k\| \(a="):
            perturbation_tm3(r, k)
