"""Contour engine: closed-form transforms, saddle shifting, convolution."""

import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special as sps

import gammamoments.mellin as mellin
import gammamoments.verify as verify
import gammamoments.weights as weights
from gammamoments import (ConstraintError, ContourSpec, ConvergenceError,
                          DomainError, TruncationError, adapted_contour,
                          check_vanishing, contour_log_densities,
                          contour_log_density, gamma_product,
                          inverse_mellin_log, mellin_convolve_many,
                          mellin_symbol,
                          parse_descriptor, perturbation_tm3,
                          principal_solution, tm2, tm3, tm4, w1, w2)
from gammamoments.weights import _log_w2
from oracles import meijer_log_density


def _engine_density(seq, x):
    """W(x) from the engine's one-knot case (its sign is always +1)."""
    return math.exp(contour_log_density(seq, x)[0])


def _reference(seq, x, spec):
    """The fixed-grid trapezoid sum for the density of seq at x."""
    log_w, sign = inverse_mellin_log(lambda s: mellin_symbol(seq, s), x, spec)
    return sign * math.exp(log_w)


class TestContourSpec:
    def test_validation(self):
        with pytest.raises(ConstraintError):
            ContourSpec(c=1.0, t_max=-1.0, n_points=128)
        with pytest.raises(ConstraintError):
            ContourSpec(c=1.0, t_max=10.0, n_points=8)


class TestClosedFormTransforms:
    """The band engine against known Mellin pairs: rho(n) = M(n + 1)."""

    def test_gamma_gives_exponential(self):
        seq = parse_descriptor("gamma:n+1")
        for x in (0.3, 1.0, 2.0, 5.0):
            got = _engine_density(seq, x)
            assert got == pytest.approx(math.exp(-x), rel=1e-10)

    def test_gamma_squared_gives_bessel(self):
        # Mellin pair: Gamma(s)^2  <->  2 K0(2 sqrt(x))
        seq = parse_descriptor("gamma:n+1,n+1")
        for x in (0.25, 1.0, 4.0, 9.0):
            got = _engine_density(seq, x)
            want = 2.0 * sps.k0(2.0 * math.sqrt(x))
            assert abs(got - want) / want < 1e-8

    def test_gamma_cubed_vs_convolution_oracle(self):
        # inverse of Gamma^3 equals (inverse of Gamma^2) convolved with e^-t
        seq = tm3(1)
        for x in (0.5, 1.0, 3.0):
            got = _engine_density(seq, x)
            want, _ = scipy.integrate.quad(
                lambda t: 2.0 * sps.k0(2.0 * math.sqrt(x / t))
                * math.exp(-t) / t, 0.0, 60.0, limit=300)
            assert got == pytest.approx(want, rel=1e-7)


class TestSaddle:
    def test_saddle_satisfies_stationarity(self):
        seq = tm3(2)
        for x in (1e-6, 1.0, 1e8):
            c = mellin._saddles(seq, np.log([x]))[0]
            deriv = sum(a * sps.digamma(a * (c - 1.0) + b)
                        for a, b in seq.factors)
            assert deriv == pytest.approx(math.log(x), abs=1e-6)

    @pytest.mark.parametrize("descriptor", ["tm3:r=1", "tm4:r=2",
                                            "gamma:2.02n+1,0.5n+0.7",
                                            "gamma:0.25n+1,0.25n+1"])
    def test_saddles_keep_the_pole_clearance(self, descriptor):
        # _saddles alone keeps every contour 1e-8 right of the rightmost
        # pole; far left of the origin the saddles sit on that clearance
        seq = parse_descriptor(descriptor)
        got = mellin._saddles(seq, -np.logspace(-3.0, 12.0, 200))
        clear = seq.rightmost_pole + 1e-8
        assert np.all(got >= clear)
        assert got[-1] == clear

    def test_adapted_contour_beats_static_in_tail(self):
        seq = tm2(1)
        x = 1e10
        log_w, sign = contour_log_density(seq, x)
        assert sign > 0
        # closed form: W2(1, x) = 2 K0(2 sqrt(x)), far below double range
        want = float(_log_w2(1, np.log(x)))
        assert log_w == pytest.approx(want, abs=1e-8)


class TestContourDensities:
    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
    def test_tm3_r1_matches_meijer_g(self, x):
        got, _ = contour_log_density(tm3(1), x)
        assert abs(got - meijer_log_density(tm3(1), math.log(x))) <= 1e-13

    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
    def test_tm4_r1_matches_meijer_g(self, x):
        got, _ = contour_log_density(tm4(1), x)
        assert abs(got - meijer_log_density(tm4(1), math.log(x))) <= 1e-13

    def test_positivity_across_range(self):
        seq = tm3(2)
        for x in np.logspace(-6, 8, 15):
            _, sign = contour_log_density(seq, float(x))
            assert sign > 0

    def test_self_convergence_under_refinement(self):
        seq = tm4(1)
        x = 2.5
        spec = adapted_contour(seq, x)
        coarse = _reference(seq, x, spec)
        fine = _reference(seq, x,
                          ContourSpec(spec.c, spec.t_max, 2 * spec.n_points))
        assert abs(fine - coarse) / fine < 1e-9

    def test_rejects_nonpositive_x(self):
        with pytest.raises(DomainError):
            contour_log_density(tm3(1), 0.0)


def _spline_knots(seq):
    from gammamoments.weights import _density_spline
    return _density_spline(seq).nodes


def _symbol_points(monkeypatch, run):
    """How many points mellin_symbol evaluates while run() runs."""
    count = [0]
    symbol = mellin.mellin_symbol

    def counting(seq, s):
        count[0] += np.size(s)
        return symbol(seq, s)

    monkeypatch.setattr(mellin, "mellin_symbol", counting)
    run()
    monkeypatch.undo()
    return count[0]


class TestBandEngine:
    @pytest.mark.parametrize("seq", [tm3(1), tm4(1),
                                     parse_descriptor("gamma:2.02n+1")],
                             ids=["tm3:r=1", "tm4:r=1", "gamma:2.02n+1"])
    def test_bands_match_one_knot_contours(self, seq):
        lx = _spline_knots(seq)
        log_w, sign = contour_log_densities(seq, lx)
        assert np.all(sign > 0)
        one = np.array([contour_log_density(seq, float(np.exp(v)))[0]
                        for v in lx])
        assert np.max(np.abs(log_w - one)) <= 1e-11

    @pytest.mark.parametrize("seq", [tm3(1), tm4(1),
                                     parse_descriptor("gamma:2.02n+1")],
                             ids=["tm3:r=1", "tm4:r=1", "gamma:2.02n+1"])
    def test_bands_match_fixed_grid_reference(self, seq):
        # an oracle that shares no banding, nesting or acceptance rule with
        # the engine: one saddle contour per knot at four times its points
        rng = np.random.default_rng(8)
        lx = rng.choice(_spline_knots(seq), 12, replace=False)
        log_w, sign = contour_log_densities(seq, lx)
        for v, got, got_sign in zip(lx, log_w, sign):
            x = float(np.exp(v))
            spec = adapted_contour(seq, x)
            want, want_sign = inverse_mellin_log(
                lambda s: mellin_symbol(seq, s), x,
                ContourSpec(spec.c, spec.t_max, 4 * spec.n_points))
            assert got_sign == want_sign
            assert abs(got - want) <= 1e-10

    def test_refinement_evaluates_only_midpoints(self, monkeypatch):
        seq = tm4(1)
        grids = []

        def recording(seq_, s):
            # the window's drop test evaluates its two edges; a grid has
            # at least 64 nodes
            s = np.asarray(s)
            if s.size > 2 and np.any(s.imag != 0.0):
                grids.append(s.imag.copy())
            return mellin_symbol(seq_, s)

        monkeypatch.setattr(mellin, "mellin_symbol", recording)
        log_w, _ = contour_log_density(seq, 1.0)
        assert abs(log_w - meijer_log_density(seq, 0.0)) <= 1e-13
        assert len(grids) >= 2
        first, n = grids[0], grids[0].size - 1
        assert n >= 64 and n & (n - 1) == 0  # 2^k + 1 nodes
        for mids in grids[1:]:
            assert mids.size == n  # one new node per old interval
            n *= 2
        nodes = np.sort(np.concatenate(grids))
        # every node evaluated once, and together they form the finest grid
        assert nodes.size == n + 1
        assert np.allclose(np.diff(nodes), (first[-1] - first[0]) / n,
                           rtol=1e-9)

    def test_forced_wide_band_cancels(self, monkeypatch):
        # one abscissa for the whole knot range leaves the far knots no
        # significant digits; the floor check must refuse, not return noise
        seq = tm3(1)
        lx = _spline_knots(seq)
        monkeypatch.setattr(mellin, "_BAND_LOSS", math.inf)
        with pytest.raises(TruncationError, match="cancels"):
            contour_log_densities(seq, lx)

    def test_unsorted_knots(self):
        seq = tm3(1)
        lx = np.array([2.0, -3.0, 0.5])
        log_w, _ = contour_log_densities(seq, lx)
        for v, got in zip(lx, log_w):
            assert got == pytest.approx(
                contour_log_density(seq, math.exp(v))[0], abs=1e-11)

    @pytest.mark.parametrize("log_x", [-1e200, -1e308])
    def test_far_left_knot_raises_convergence_error(self, log_x):
        # two poles 1e-8 apart leave the series no certified knot, and the
        # band at the pole's clamped saddle needs a grid past max_points;
        # a point count past np.log2's range once ended in a TypeError
        seq = parse_descriptor("gamma:2n+1,2.0000001n+1")
        with pytest.raises(ConvergenceError, match="max_points"):
            contour_log_densities(seq, [log_x])

    @pytest.mark.parametrize("descriptor", ["tm3:r=2", "tm3:r=1", "tm4:r=1",
                                            "gamma:2.02n+1,0.5n+0.7"])
    def test_knot_value_depends_on_the_call_by_a_few_ulps(self, descriptor):
        # a band's partition starts at its first sorted knot, so a band knot
        # evaluated with others and alone differs in its last ulps (at most
        # 12 eps |ln W| here); the saddles and the special functions give a
        # knot the same bits alone, so the partition is the one cause left.
        # This holds that gap, it does not close it
        seq = parse_descriptor(descriptor)
        hi = 25.0 if descriptor.startswith("gamma") else 35.0
        lx = np.arange(-1.5, hi + 0.25, 0.5)
        together, _ = contour_log_densities(seq, lx)
        alone = [contour_log_densities(seq, [v])[0][0] for v in lx]
        gap = np.abs(together - alone) / np.maximum(1.0, np.abs(together))
        assert np.max(gap) <= 64.0 * np.finfo(float).eps

    @pytest.mark.parametrize("log_x", [45.0, 50.0])
    def test_deep_tail_grid_over_max_points_raises(self, log_x):
        # the coarsest grid would hold 1.0e6 (ln x = 45) and 4.2e6 (ln x =
        # 50) intervals; the engine must refuse before allocating it
        with pytest.raises(ConvergenceError, match="max_points"):
            contour_log_density(tm2(1), math.exp(log_x))

    @pytest.mark.parametrize("r,log_x", [(1, 30.0), (2, 69.0)])
    def test_tail_past_the_knot_count_reach_matches_closed_form(self, r,
                                                                log_x):
        # a grid that counted the knot's |ln x| on top of the symbol's
        # phase, which the saddle cancels, refused both (coarsest grids of
        # 524,288 and 2,097,152 intervals)
        log_w, sign = contour_log_densities(tm2(r), [log_x])
        assert sign[0] > 0
        assert log_w[0] == pytest.approx(float(_log_w2(r, np.array(log_x))),
                                         rel=1e-13)

    def test_far_tail_stops_at_the_symbols_rounding(self):
        # each node's phase Im phi rounds to about eps |phi| (1.1e-6 rad
        # here, phi(c) = 4.8e9), so two grids could not agree to _RTOL and
        # the engine raised "did not converge below 1e-10"; fixed grids of
        # 2^8 to 2^14 intervals on the same contour give this value
        log_w, sign = contour_log_densities(tm3(1), [55.0])
        assert sign[0] > 0
        assert log_w[0] == pytest.approx(-274907623.32124484,
                                         abs=np.spacing(274907623.0))

    def test_tail_bands_take_a_fifth_of_the_symbol_points(self, monkeypatch):
        # a band's grid reads its contour alone; counting each band's
        # largest |ln x| as well took 12,526,995 symbol points here
        lx = np.linspace(-3.0, 34.0, 800)
        used = _symbol_points(
            monkeypatch, lambda: contour_log_densities(tm3(1), lx))
        assert used <= 12_526_995 // 5

    def test_interpolant_build_takes_half_the_symbol_points(self,
                                                            monkeypatch):
        # with the knots' |ln x| counted, the build took 13,936 symbol
        # points, 12,316 of them in its seven tail bands (ln x > 7.9)
        used = _symbol_points(
            monkeypatch,
            lambda: weights._density_spline.__wrapped__(tm3(1)))
        assert used <= 13_936 // 2

    @pytest.mark.parametrize("log_x", [10.0, 20.0])
    def test_tail_within_max_points_matches_closed_form(self, log_x):
        x = math.exp(log_x)
        log_w, sign = contour_log_density(tm2(1), x)
        assert sign > 0
        assert log_w == pytest.approx(float(_log_w2(1, np.log(x))),
                                      rel=1e-13)

    def test_vectorized_saddle(self):
        seq = tm3(2)
        xs = np.array([1e-6, 1.0, 1e8])
        got = mellin._saddles(seq, np.log(xs))
        assert got.shape == xs.shape
        for x, c in zip(xs, got):
            assert c == mellin._saddles(seq, np.log([x]))[0]

    @pytest.mark.parametrize("descriptor", ["tm3:r=1", "tm4:r=1",
                                            "gamma:2.02n+1,0.5n+0.7"])
    def test_saddles_of_a_knot_alone_keep_their_bits(self, descriptor):
        # the special functions evaluate each point on its own, so a knot's
        # real and complex saddles do not depend on the knots beside it
        seq = parse_descriptor(descriptor)
        lx = np.linspace(-3.0, 34.0, 800)
        real = mellin._saddles(seq, lx)
        target = lx - 1j * math.pi
        rotated = mellin._complex_saddles(seq, target, real)
        for i in range(lx.size):
            one = slice(i, i + 1)
            assert mellin._saddles(seq, lx[one])[0] == real[i], lx[i]
            assert (mellin._complex_saddles(seq, target[one], real[one])[0]
                    == rotated[i]), lx[i]


def _band_knots(monkeypatch, run):
    """Every ln x that reaches _band_sums while run() runs."""
    seen = []
    band_sums = mellin._band_sums

    def spy(seq, psi, centre, lx):
        seen.append(lx.copy())
        return band_sums(seq, psi, centre, lx)

    monkeypatch.setattr(mellin, "_band_sums", spy)
    run()
    monkeypatch.undo()
    return np.concatenate(seen) if seen else np.empty(0)


_SERIES_LOG_X = [-46.1, -100.0, -300.0, -700.0]
_LOG_1E20 = math.log(1e-20)  # the interpolant's left edge


class TestResidueSeries:
    """Below x = 1e-20 the engine sums the residues left of its contour."""

    def test_factor_past_the_double_range_raises_domain_error(self):
        # ln Gamma(1e306) is past the doubles: the residue series' constant
        # for the factor regular at the other's poles once raised math's
        # raw OverflowError
        seq = gamma_product([(1.0, 1e306), (1.5, 1.0)])
        with pytest.raises(DomainError, match=r"ln Gamma\(1e\+306\) of the "
                                              r"factor .* past the double"):
            principal_solution(seq).log_density(0.0)

    @pytest.mark.parametrize("seq", [tm3(1), tm3(2), tm4(1),
                                     parse_descriptor("gamma:2n+1,n+1")],
                             ids=["tm3:r=1", "tm3:r=2", "tm4:r=1",
                                  "gamma:2n+1,n+1"])
    def test_density_matches_meijer_g(self, monkeypatch, seq):
        lx = np.array(_SERIES_LOG_X)
        banded = _band_knots(monkeypatch,
                             lambda: contour_log_densities(seq, lx))
        assert banded.size == 0
        log_w, sign = contour_log_densities(seq, lx)
        assert np.all(sign > 0)
        for v, got in zip(lx, log_w):
            assert abs(got - meijer_log_density(seq, v)) <= 1e-13

    @pytest.mark.parametrize("r,k", [(3, 1), (5, 2), (7, 3)])
    def test_omega3_matches_meijer_g(self, monkeypatch, r, k):
        # omega3 = sec^{r-1}(theta) Im W3(x sec^r(theta) e^{-i k pi}), held
        # to 1e-13 of |W3| there
        log_sec = -math.log(math.cos(math.pi * k / r))
        lx = np.array(_SERIES_LOG_X) - r * log_sec
        pert = perturbation_tm3(r, k)
        banded = _band_knots(monkeypatch, lambda: pert.log_density(lx))
        assert banded.size == 0
        sign, log_abs = pert.log_density(lx)
        for v, s, got in zip(lx, sign, log_abs):
            log_w = meijer_log_density(tm3(r), v + r * log_sec, k * math.pi)
            modulus = (r - 1) * log_sec + log_w.real
            want = math.sin(log_w.imag)
            assert abs(s * math.exp(got - modulus) - want) <= 1e-13

    @staticmethod
    def _certified(monkeypatch, run):
        """Every ln x that the residue series certified while run() ran."""
        seen = []
        residue_sums = mellin._residue_sums

        def spy(seq, lx, psi):
            scale, total, ok = residue_sums(seq, lx, psi)
            seen.append(lx[ok])
            return scale, total, ok
        monkeypatch.setattr(mellin, "_residue_sums", spy)
        run()
        monkeypatch.undo()
        return np.concatenate(seen)

    @pytest.mark.parametrize("seq", [tm3(1), tm3(2), tm4(1),
                                     parse_descriptor("gamma:2n+1,n+1")],
                             ids=["tm3:r=1", "tm3:r=2", "tm4:r=1",
                                  "gamma:2n+1,n+1"])
    def test_route_matches_meijer_g_up_to_x_1(self, monkeypatch, seq):
        # the series answers every knot it certifies, far above 1e-20;
        # the knots it leaves near x = 1 take the bands
        lx = np.sort(np.random.default_rng(28).uniform(-46.0, 0.0, 16))
        lx = np.append(lx, [-5.0, -1.0])
        log_w, sign = contour_log_densities(seq, lx)
        assert np.all(sign > 0)
        for v, got in zip(lx, log_w):
            assert abs(got - meijer_log_density(seq, v)) <= 1e-13
        certified = self._certified(
            monkeypatch, lambda: contour_log_densities(seq, lx))
        assert np.max(certified) > -5.5

    @pytest.mark.parametrize("r,k", [(3, 1), (5, 2)])
    def test_omega3_route_matches_meijer_g_up_to_x_1(self, monkeypatch, r, k):
        # knots at L = ln x + r ln sec(theta) in [-46, 0], held to 1e-13
        # of |W3| at the rotated argument
        log_sec = -math.log(math.cos(math.pi * k / r))
        big_l = np.sort(np.random.default_rng(r).uniform(-46.0, 0.0, 8))
        lx = big_l - r * log_sec
        pert = perturbation_tm3(r, k)
        sign, log_abs = pert.log_density(lx)
        for v, s, got in zip(big_l, sign, log_abs):
            log_w = meijer_log_density(tm3(r), v, k * math.pi)
            modulus = (r - 1) * log_sec + log_w.real
            assert abs(s * math.exp(got - modulus)
                       - math.sin(log_w.imag)) <= 1e-13
        certified = self._certified(monkeypatch,
                                    lambda: pert.log_density(lx))
        assert np.max(certified) > _LOG_1E20

    def test_sum_past_double_range_not_certified(self):
        # omega3(30, 1)'s knots near ln x = 507: the terms pass 1e304 and
        # |sum| overflows although its parts do not, so "size <= 1e-17 *
        # inf" once ended the series and certified a sum of inf
        lx = np.array([505.9, 515.2, 525.0])
        scale, total, ok = mellin._residue_sums(tm3(30), lx, math.pi)
        assert not np.any(ok)
        scale, total = mellin._contour_sums(tm3(30), lx, math.pi)
        assert np.all(np.isfinite(scale)) and np.all(np.isfinite(total))

    @pytest.mark.parametrize("descriptor", ["gamma:2.02n+1,0.5n+0.7",
                                            "gamma:0.25n+1,0.25n+1"])
    def test_non_integer_multipliers_match_band_sums(self, descriptor):
        # the band sums are the reference just below 1e-20: the Meijer G
        # oracle needs q = 50 for a = 2.02, a G function of 126 parameters
        # that did not finish one point in minutes, and 0.6 s a point for
        # a = 1/4 (q = 4).  Poles 4 apart (a = 1/4) widen the series' span.
        seq = parse_descriptor(descriptor)
        lx = _LOG_1E20 - np.array([1e-9, 0.5, 2.0, 10.0])
        scale, total, ok = mellin._residue_sums(seq, lx, 0.0)
        assert np.all(ok)
        got, _ = mellin._log_values(scale, total)
        want, _ = mellin._log_values(*mellin._banded_sums(seq, lx, 0.0))
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("descriptor", ["gamma:0.5n+1,1.5n+1",
                                            "gamma:2.5n+0.7,2.5n+1.3",
                                            "gamma:0.7n+1,0.6n+1,0.7n+1",
                                            "gamma:0.5n+0.7,1.5n+1"])
    def test_rational_multipliers_match_meijer_g(self, descriptor):
        # the oracle substitutes x = y^{1/q} (q = 2, 2, 10, 2) to reach
        # integer multipliers; the series answers the two left knots and
        # the bands the rest
        seq = parse_descriptor(descriptor)
        lx = np.array([-20.0, -5.0, -1.0, 0.0, 1.0, 3.0])
        log_w, sign = contour_log_densities(seq, lx)
        assert np.all(sign > 0)
        for v, got in zip(lx, log_w):
            assert abs(got - meijer_log_density(seq, v)) <= 1e-13

    def test_rational_oracle_matches_closed_form(self):
        # Gamma(n/2 + 1) is the moment sequence of 2 x e^{-x^2}; the
        # oracle reaches it through Gamma(n + 1) and y = x^2
        seq = parse_descriptor("gamma:0.5n+1")
        for v in (-3.0, 0.0, 1.0):
            want = math.log(2.0) + v - math.exp(2.0 * v)
            assert abs(meijer_log_density(seq, v) - want) <= 1e-14
        with pytest.raises(ValueError, match="ratio of integers"):
            meijer_log_density(parse_descriptor("gamma:3.14159265358979n+1"),
                               0.0)

    def test_near_poles_keep_band_sums(self, monkeypatch):
        # its first two poles are 1e-8 apart: the series would cancel
        # between them, so every knot takes the band sums unchanged
        seq = parse_descriptor("gamma:2n+1,2.0000001n+1")
        lx = np.array([-50.0, -60.0, -80.0])
        banded = _band_knots(monkeypatch,
                             lambda: mellin._contour_sums(seq, lx, 0.0))
        assert np.array_equal(np.sort(banded), np.sort(lx))
        got = mellin._contour_sums(seq, lx, 0.0)
        want = mellin._banded_sums(seq, lx, 0.0)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("log_x", [-1e155, -1e200, -1e308])
    def test_far_left_triple_pole(self, log_x):
        # (ln x)^2 leaves the doubles here; scaled by its top power, the
        # triple pole at s = 0 gives ln W = ln((ln x)^2 / 2)
        log_w, _ = contour_log_densities(tm3(1), [log_x])
        want = 2.0 * math.log(-log_x) - math.log(2.0)
        assert abs(log_w[0] - want) <= 1e-13 * want

    @pytest.mark.parametrize("log_x", [-1e200, -1e308])
    def test_far_left_simple_pole(self, log_x):
        # the triple poles' powers once turned 0 * inf into nan; the simple
        # pole at s = 1/2 gives ln W = -(ln x) / 2
        log_w, _ = contour_log_densities(tm4(1), [log_x])
        assert abs(log_w[0] + log_x / 2.0) <= 1e-15 * abs(log_x / 2.0)

    @pytest.mark.filterwarnings("error")
    def test_far_left_past_the_double_range_is_minus_inf(self):
        # the leading pole s = -3 gives ln W ~ 3 ln x, past -1.8e308 at
        # ln x = -1e308: ln W is -inf (W = 0.0) with no warning; the
        # series once returned nan with a RuntimeWarning there
        seq = parse_descriptor("gamma:0.25n+1,0.25n+1")
        log_w, sign = contour_log_densities(seq, [-1e308, -1e300])
        assert log_w[0] == -math.inf and sign[0] == 1.0
        assert abs(log_w[1] + 3e300) <= 1e-15 * 3e300

    @pytest.mark.parametrize("descriptor", ["tm3:r=1", "tm4:r=1", "tm3:r=3",
                                            "gamma:2.02n+1,0.5n+0.7"])
    def test_pole_table_matches_mpmath(self, descriptor):
        # each pole's leading residue factor K: (-1)^l / (l! a) for a factor
        # with a pole there, Gamma(u) at u = a (p - 1) + b for the others
        # (tm4 and the non-integer pair reach negative non-integer u)
        seq = parse_descriptor(descriptor)
        poles, log_k, sign_k, _ = mellin._residue_poles(seq)
        with mpmath.workdps(30):
            for p, got_log, got_sign in zip(poles, log_k, sign_k):
                want = mpmath.mpf(1)
                for a, b in seq.factors:
                    u = a * (p - 1.0) + b
                    l = -round(u)
                    if l >= 0 and abs(u + l) <= 1e-9:
                        want *= (-1) ** l / (mpmath.factorial(l) * a)
                    else:
                        want *= mpmath.gamma(u)
                want_log = float(mpmath.log(abs(want)))
                assert abs(got_log - want_log) <= 1e-14 * max(1.0, abs(want_log))
                assert got_sign == float(mpmath.sign(want))

    def test_knot_value_does_not_depend_on_the_call(self):
        seq = tm4(1)
        low = np.array([-300.0, -60.0, -47.0])
        alone, _ = contour_log_densities(seq, low)
        # -1e200 is the one knot whose powers of w are scaled
        mixed, _ = contour_log_densities(
            seq, np.concatenate((low, [0.0, 3.0, -1e200])))
        assert np.array_equal(alone, mixed[:3])
        assert np.array_equal(alone, [contour_log_densities(seq, [v])[0][0]
                                      for v in low])

    def test_origin_knots_skip_the_bands(self, monkeypatch):
        # the moment checks' window below the interpolant, an eval below
        # 1e-20, and omega3's n = 0 check reach no band below 1e-20
        from gammamoments import check_moment

        w = principal_solution(tm4(1))
        pert = perturbation_tm3(3, 1)
        runs = [lambda: [check_moment(w, tm4(1), n) for n in range(9)],
                lambda: contour_log_density(tm4(1), 1e-300),
                lambda: check_vanishing(pert, pert.seq, 0)]
        for run in runs:
            banded = _band_knots(monkeypatch, run)
            assert not np.any(banded < _LOG_1E20)

    @pytest.mark.parametrize("seq", [tm3(1), tm4(1)], ids=["tm3:r=1", "tm4:r=1"])
    def test_series_answers_up_to_x_0_1(self, monkeypatch, seq):
        # `eval --x 1e-300,...,0.1` once spent seconds in bands left of the
        # origin: with the interpolant built afresh, the residue series
        # answers every knot at or below x = 0.1 of the build and the call
        monkeypatch.setattr(weights, "_density_spline",
                            weights._density_spline.__wrapped__)
        w = principal_solution(seq)
        xs = [1e-300, 1e-100, 1e-30, 1e-12, 1e-3, 0.1]
        banded = _band_knots(monkeypatch, lambda: w.evaluate(xs))
        assert banded.size and np.min(banded) > math.log(0.1)


def _direct_phase_sum(t, v, lx, block=1 << 17):
    """sum_j v_j e^{-i t_j lx_k}: one exponential per node and knot."""
    out = np.zeros(lx.size, dtype=np.complex128)
    step = max(1, block // lx.size)
    for j in range(0, t.size, step):
        out += np.exp(np.multiply.outer(lx, -1j * t[j:j + step])) @ v[j:j + step]
    return out


class TestPhaseSum:
    """The baby-step/giant-step phase sum against the direct sum."""

    # (knots, nodes, t_max, largest |ln x|): the shapes of spline builds and
    # of omega3's check_vanishing bands
    SHAPES = [(1, 65, 3.0, 0.5), (1, 64, 8.0, 12.0), (7, 129, 5.0, 10.0),
              (101, 513, 11.1, 28.5), (264, 257, 6.7, 16.3),
              (1237, 1025, 11.3, 60.0), (410, 1024, 20.0, 40.6),
              (3060, 4097, 3.6, 60.0), (50, 4096, 101.0, 60.0)]

    @pytest.mark.parametrize("knots,nodes,t_max,log_x", SHAPES)
    def test_matches_direct_sum(self, knots, nodes, t_max, log_x):
        rng = np.random.default_rng(knots * 7919 + nodes)
        # a coarse grid (2^k + 1 nodes from -t_max) or a refinement's
        # midpoints (2^k nodes from -t_max + h/2)
        h = 2.0 * t_max / (nodes - 1 if nodes % 2 else nodes)
        t0 = -t_max if nodes % 2 else -t_max + 0.5 * h
        t = t0 + h * np.arange(nodes)
        lx = np.sort(rng.uniform(-log_x, log_x, knots))
        lx[np.argmax(np.abs(lx))] = math.copysign(log_x, lx[-1])
        v = (np.exp(-0.5 * (6.0 * t / t_max) ** 2 + 1j * rng.uniform(0, 20) * t)
             * (1.0 + 0.1 * rng.standard_normal(nodes)))
        got = mellin._phase_sum(t0, h, v, lx)
        want = _direct_phase_sum(t, v, lx)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.sum(np.abs(v))

    @pytest.mark.parametrize("knots,nodes", [(3060, 4097), (1, 4096),
                                             (300, 129), (3060, 65)])
    def test_chunks_stay_within_block(self, monkeypatch, knots, nodes):
        # every phase matrix of a chunk holds at most _BLOCK entries (the
        # product with the node grid is no larger), and the chunks still
        # add up to the direct sum
        block = 1 << 12
        monkeypatch.setattr(mellin, "_BLOCK", block)
        shapes = []
        unit_phases = mellin._unit_phases

        def spy(lx, angles):
            out = unit_phases(lx, angles)
            shapes.append(out.shape)
            return out

        monkeypatch.setattr(mellin, "_unit_phases", spy)
        lx = np.linspace(-30.0, 30.0, knots)
        v = np.cos(np.arange(nodes)) + 1j
        d = 10.0 / nodes
        got = mellin._phase_sum(-5.0, d, v, lx)
        assert max(rows * cols for rows, cols in shapes) <= block
        assert sum(rows for rows, _ in shapes) == 2 * knots
        want = _direct_phase_sum(-5.0 + d * np.arange(nodes), v, lx)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.sum(np.abs(v))


def _band_inputs(monkeypatch, run):
    """The (ln x, c*, phi*) arguments of every _bands call made by run()."""
    calls = []
    bands = mellin._bands

    def spy(lx, c_star, phi_star):
        calls.append((lx.copy(), c_star.copy(), phi_star.copy()))
        return bands(lx, c_star, phi_star)

    monkeypatch.setattr(mellin, "_bands", spy)
    run()
    monkeypatch.undo()
    return calls


def _slice_max_bands(lx, c_star, phi_star):
    """The band partition by its definition: the largest loss over each slice."""
    own_peak = phi_star - c_star * lx

    def fits(start, stop):
        mid = (start + stop - 1) // 2
        loss = phi_star[mid] - c_star[mid] * lx[start:stop] - own_peak[start:stop]
        return float(np.max(loss)) <= mellin._BAND_LOSS

    out, start = [], 0
    while start < lx.size:
        stop = start + 1
        while stop < lx.size and fits(start, stop + 1):
            stop += 1
        out.append((start, stop))
        start = stop
    return out


class TestBands:
    """_bands tests band ends only; its partition is the slice-max one."""

    @staticmethod
    def _check(lx, c_star, phi_star):
        got = [(b.start, b.stop) for b in mellin._bands(lx, c_star, phi_star)]
        assert got == _slice_max_bands(lx, c_star, phi_star)
        return got

    def test_omega3_vanishing_grids(self, monkeypatch):
        # a 4,097-node first grid keeps the partitions large
        monkeypatch.setattr(verify, "_FIRST_GRID", 4097)
        pert = perturbation_tm3(3, 1)
        series, left = [], []
        residue_sums = mellin._residue_sums

        def spy(seq, lx, psi):
            scale, total, ok = residue_sums(seq, lx, psi)
            series.append(lx.size)
            left.append(np.sort(lx[~ok]))
            return scale, total, ok
        monkeypatch.setattr(mellin, "_residue_sums", spy)
        calls = _band_inputs(monkeypatch,
                             lambda: check_vanishing(pert, pert.seq, 0))
        # the series sees the whole nested 8,193-knot first grid, and the
        # bands see exactly the knots it leaves uncertified, call by call
        assert series[:1] == [8193]
        band_knots = [c[0] for c in calls]
        assert len(band_knots) == sum(l.size > 0 for l in left)
        assert all(np.array_equal(got, want) for got, want
                   in zip(band_knots, [l for l in left if l.size]))
        for call in calls:
            self._check(*call)
        bands = self._check(*calls[0])
        assert len(bands) > 1

    @pytest.mark.parametrize("seq", [tm3(1), tm4(1),
                                     parse_descriptor("gamma:2.02n+1")],
                             ids=["tm3:r=1", "tm4:r=1", "gamma:2.02n+1"])
    def test_interpolant_knots(self, monkeypatch, seq):
        lx = _spline_knots(seq)
        (call,) = _band_inputs(monkeypatch,
                               lambda: contour_log_densities(seq, lx))
        assert len(self._check(*call)) > 1


class TestConvolution:
    def test_exponential_square(self):
        # e^{-t} convolved with itself has Mellin transform Gamma(s)^2
        for x in (0.25, 1.0, 4.0):
            (got,) = mellin_convolve_many(lambda v: np.exp(-v),
                                          lambda v: np.exp(-v), [x])
            want = 2.0 * sps.k0(2.0 * math.sqrt(x))
            assert got == pytest.approx(want, rel=1e-8)

    def test_positivity_preserved(self):
        xs = np.logspace(-3, 3, 25)
        vals = mellin_convolve_many(lambda v: w1(2.0, v),
                                    lambda v: w1(3.0, v), xs)
        assert np.all(vals > 0.0)

    def test_scalar_matches_vector_path(self):
        xs = np.array([0.5, 1.0, 2.0])
        vec = mellin_convolve_many(lambda v: w1(2.0, v),
                                   lambda v: w1(4.0, v), xs)
        for x, v in zip(xs, vec):
            (one,) = mellin_convolve_many(lambda t: w1(2.0, t),
                                          lambda t: w1(4.0, t), [x])
            assert one == pytest.approx(v, rel=1e-10)

    def test_wide_x_range_single_call(self):
        xs = np.array([1e-12, 1e-3, 1.0, 1e4, 1e8])
        vals = mellin_convolve_many(lambda v: w1(2.0, v),
                                    lambda v: w1(2.0, v), xs)
        assert np.all(np.isfinite(vals))
        assert np.all(vals >= 0.0)

    def test_rejects_nonpositive_x(self):
        with pytest.raises(DomainError):
            mellin_convolve_many(lambda v: np.exp(-v), lambda v: np.exp(-v),
                                 [-1.0])
