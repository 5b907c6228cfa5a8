"""Principal weight functions: closed forms, interpolated contour densities,
origin/tail behaviour, and the convolution cross-check."""

import math

import numpy as np
import pytest

import gammamoments.weights as weights
from gammamoments import (ConstraintError, ConvergenceError, DomainError,
                          TruncationError, bessel_k0, contour_density,
                          contour_log_densities, parse_descriptor,
                          principal_solution, tm1, tm2, tm3, tm4, w1, w2, w3,
                          w4, w4_via_convolution, weight_tm1, weight_tm2,
                          weight_tm3, weight_tm4, weight_w1)

TWO_K0_2 = 2.0 * 0.1138938727495334  # 2 K0(2), frozen with mpmath


class TestClosedForms:
    def test_w1_formula(self):
        for q, x in [(2, 0.5), (4, 1.0), (6, 7.0)]:
            want = math.exp(-x ** (1.0 / q)) / (q * x ** ((q - 1.0) / q))
            assert w1(q, x) == pytest.approx(want, rel=1e-14)

    def test_w2_formula(self):
        for r, x in [(1, 1.0), (2, 0.5), (3, 4.0)]:
            want = (2.0 * bessel_k0(2.0 * x ** (1.0 / (2.0 * r)))
                    / (r * x ** ((r - 1.0) / r)))
            assert w2(r, x) == pytest.approx(want, rel=1e-13)

    def test_w2_frozen_at_one(self):
        assert w2(1, 1.0) == pytest.approx(TWO_K0_2, rel=1e-13)

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            w1(2, 0.0)
        with pytest.raises(DomainError):
            w1(0.5, 1.0)
        with pytest.raises(ConstraintError):
            w2(0, 1.0)


class TestLogArgument:
    @pytest.mark.parametrize("factory,r", [(weight_tm1, 2), (weight_tm2, 3),
                                           (weight_tm3, 1)])
    def test_nonfinite_log_x_raises(self, factory, r):
        w = factory(r)
        for bad in (-math.inf, math.inf, math.nan):
            with pytest.raises(DomainError):
                w.log_density(np.array([0.0, bad]))

    @pytest.mark.parametrize("x", [0.0, -1.0, math.inf, math.nan])
    def test_evaluate_checks_x(self, x):
        with pytest.raises(DomainError):
            weight_tm1(2).evaluate(np.array([1.0, x]))

    def test_closed_forms_beyond_double_range(self):
        # ln W at ln x = +-2000, where x itself is 0 or inf in doubles
        lx = np.array([-2000.0, 2000.0])
        want1 = -math.log(40.0) - (39.0 / 40.0) * lx - np.exp(lx / 40.0)
        got1 = weight_tm1(20).log_density(lx)
        assert np.allclose(got1, want1, rtol=1e-15, atol=0.0)
        # W2(40): K0(z) ~ -ln(z/2) - Euler gamma at z = 2 e^{-25}
        got2 = weight_tm2(40).log_density(lx[:1])[0]
        k0 = 25.0 - 0.5772156649015329
        want2 = math.log(2.0 / 40.0) + (39.0 / 40.0) * 2000.0 + math.log(k0)
        assert got2 == pytest.approx(want2, rel=1e-14)
        assert np.all(np.isfinite(weight_tm2(40).log_density(lx)))


class TestWeightObjects:
    def test_tm1_metadata(self):
        w = weight_tm1(2)
        assert w.alpha0 == pytest.approx(-3.0 / 4.0)
        assert w.growth == (1.0, 1.0 / 4.0)
        assert w.tail_certified

    def test_tm2_metadata(self):
        w = weight_tm2(3)
        assert w.alpha0 == pytest.approx(-2.0 / 3.0)
        assert w.growth == (2.0, 1.0 / 6.0)

    def test_contour_backed_not_tail_certified(self):
        assert not weight_tm3(1).tail_certified
        assert not weight_tm4(1).tail_certified

    def test_principal_solution_dispatch(self):
        for seq, factory in [(tm1(2), weight_tm1), (tm2(2), weight_tm2),
                             (tm3(1), weight_tm3), (tm4(1), weight_tm4)]:
            assert principal_solution(seq).name == factory(seq.r).name

    def test_evaluate_matches_log_density(self):
        w = weight_tm2(2)
        xs = np.logspace(-3, 3, 11)
        assert np.allclose(w.evaluate(xs), np.exp(w.log_density(np.log(xs))),
                           rtol=1e-15)


class TestOriginExponent:
    def test_alpha0_slope_fit_tm1(self):
        # ln W ~ alpha0 ln x near the origin; tm1 is a pure power there
        w = weight_tm1(2)
        xs = np.logspace(-14, -12, 12)
        slope, _ = np.polyfit(np.log(xs), w.log_density(np.log(xs)), 1)
        assert slope == pytest.approx(w.alpha0, abs=0.01)

    def test_alpha0_slope_fit_tm2(self):
        # the K0 origin behaviour adds a ln ln(1/x) correction ~ 1/ln(1/x)
        w = weight_tm2(3)
        xs = np.logspace(-14, -12, 12)
        slope, _ = np.polyfit(np.log(xs), w.log_density(np.log(xs)), 1)
        assert slope == pytest.approx(w.alpha0, abs=0.05)

    def test_alpha0_slope_fit_spline(self):
        w = weight_tm4(1)
        xs = np.logspace(-14, -12, 12)
        slope, _ = np.polyfit(np.log(xs), w.log_density(np.log(xs)), 1)
        # K0-type log factor perturbs the pure power slightly
        assert slope == pytest.approx(w.alpha0, abs=0.05)


class TestSplineDensities:
    @pytest.mark.parametrize("r,x", [(1, 0.5), (1, 50.0), (2, 3.0)])
    def test_spline_matches_direct_contour_w3(self, r, x):
        direct = w3(r, x)
        spline = weight_tm3(r).evaluate(np.float64(x))
        assert spline == pytest.approx(direct, rel=1e-8)

    @pytest.mark.parametrize("r,x", [(1, 0.2), (2, 10.0)])
    def test_spline_matches_direct_contour_w4(self, r, x):
        direct = w4(r, x)
        spline = weight_tm4(r).evaluate(np.float64(x))
        assert spline == pytest.approx(direct, rel=1e-8)

    def test_positive_on_wide_grid(self):
        w = weight_tm3(2)
        xs = np.logspace(-18, 10, 400)
        assert np.all(np.isfinite(w.log_density(np.log(xs))))

    def test_beyond_window_raises(self):
        w = weight_tm3(1)
        with pytest.raises(TruncationError):
            w.log_density(np.float64(math.log(1e40)))


_CONTOUR_SEQS = pytest.mark.parametrize(
    "seq", [tm3(1), tm4(1), parse_descriptor("gamma:2.02n+1")],
    ids=["tm3:r=1", "tm4:r=1", "gamma:2.02n+1"])


def _counting_engine(monkeypatch):
    """Patch the engine the interpolant calls; returns knots per call."""
    calls = []
    engine = weights.contour_log_densities

    def counted(seq, log_x, *args, **kwargs):
        calls.append(np.size(log_x))
        return engine(seq, log_x, *args, **kwargs)
    monkeypatch.setattr(weights, "contour_log_densities", counted)
    return calls


class TestPanelInterpolant:
    @_CONTOUR_SEQS
    def test_matches_engine_across_window(self, seq):
        interp = weights._density_spline(seq)
        edges = interp.edges
        rng = np.random.default_rng(6)
        lx = np.concatenate([0.5 * (edges[1:] + edges[:-1]),
                             rng.uniform(edges[0], edges[-1], 300),
                             edges[[0, -1]]])
        want, sign = contour_log_densities(seq, lx)
        assert np.all(sign > 0)
        got = weights._spline_log_evaluate(seq, lx)
        assert np.max(np.abs(got - want)) <= 1e-10
        assert 0.0 < interp.error <= 1e-10

    @_CONTOUR_SEQS
    def test_clamp_follows_edge_slope(self, seq):
        interp = weights._density_spline(seq)
        lo = interp.edges[0]
        assert lo == pytest.approx(math.log(1e-20), abs=1e-12)
        h = 1e-3
        (w_lo, w_plus), _ = contour_log_densities(seq, np.array([lo, lo + h]))
        (w_minus,), _ = contour_log_densities(seq, np.array([lo - h]))
        assert interp.edge_slope() == pytest.approx(
            (w_plus - w_minus) / (2.0 * h), abs=1e-6)
        lx = lo - np.array([1e-6, 1.0, 30.0])
        got = weights._spline_log_evaluate(seq, lx)
        assert np.allclose(got, w_lo + interp.edge_slope() * (lx - lo),
                           rtol=0.0, atol=1e-10)

    @_CONTOUR_SEQS
    def test_build_makes_one_engine_call(self, seq, monkeypatch):
        calls = _counting_engine(monkeypatch)
        interp = weights._density_spline.__wrapped__(seq)
        assert calls == [interp.nodes.size]

    def test_rejected_panels_are_halved(self, monkeypatch):
        # one panel over the whole window leaves large trailing coefficients;
        # halving must recover the accuracy, one engine call per round
        seq = tm3(1)
        monkeypatch.setattr(weights, "_PANEL_WIDTH", 100.0)
        calls = _counting_engine(monkeypatch)
        interp = weights._density_spline.__wrapped__(seq)
        assert len(calls) > 1 and calls[0] == weights._DEGREE + 1
        assert interp.edges.size - 1 > 1
        assert np.all(np.diff(interp.edges) > 0.0)
        lx = np.random.default_rng(3).uniform(interp.edges[0],
                                              interp.edges[-1], 200)
        want, _ = contour_log_densities(seq, lx)
        assert np.max(np.abs(interp(lx) - want)) <= 1e-10
        monkeypatch.setattr(weights, "_MAX_SPLITS", 1)
        with pytest.raises(ConvergenceError):
            weights._density_spline.__wrapped__(seq)


class TestDualRoute:
    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
    def test_w4_contour_vs_convolution(self, x):
        direct = w4(1, x)
        conv = w4_via_convolution(1, x)
        assert conv == pytest.approx(direct, rel=1e-7)

    def test_w4_r2(self):
        direct = w4(2, 1.0)
        conv = w4_via_convolution(2, 1.0)
        assert conv == pytest.approx(direct, rel=1e-7)


class TestGenericW1:
    def test_half_integer_index(self):
        w = weight_w1(3.0)
        x = 2.0
        want = math.exp(-x ** (1.0 / 3.0)) / (3.0 * x ** (2.0 / 3.0))
        assert w.evaluate(np.float64(x)) == pytest.approx(want, rel=1e-14)

    def test_moments_are_gamma(self):
        # int x^n w1(q, x) dx = Gamma(qn + 1)
        import scipy.integrate
        q = 3.0
        for n in (0, 1, 2):
            val, _ = scipy.integrate.quad(
                lambda t, n=n: t ** (q * n) * math.exp(-t) * q / q,
                0, 200.0, limit=200)
            assert val == pytest.approx(math.gamma(q * n + 1.0), rel=1e-8)
