"""Principal weight functions: closed forms, interpolated contour densities,
origin/tail behaviour, and the Meijer G cross-check."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.special

import gammamoments.weights as weights
from gammamoments import (ConstraintError, ConvergenceError, DomainError,
                          GammomentsError, TruncationError, WeightFunction,
                          check_moment, contour_log_densities,
                          gamma_product, parse_descriptor, principal_solution,
                          tm1, tm2, tm3, tm4, w1, w2, w3, w4)
from gammamoments.verify import _PASS_TOL
from oracles import meijer_log_density

TWO_K0_2 = 2.0 * 0.1138938727495334  # 2 K0(2), frozen with mpmath


class TestClosedForms:
    def test_w1_formula(self):
        for q, x in [(2, 0.5), (4, 1.0), (6, 7.0)]:
            want = math.exp(-x ** (1.0 / q)) / (q * x ** ((q - 1.0) / q))
            assert w1(q, x) == pytest.approx(want, rel=1e-14)

    def test_w2_formula(self):
        for r, x in [(1, 1.0), (2, 0.5), (3, 4.0)]:
            want = (2.0 * scipy.special.k0(2.0 * x ** (1.0 / (2.0 * r)))
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
    @pytest.mark.parametrize("seq", [tm1(2), tm2(3), tm3(1)],
                             ids=["weight_tm1-2", "weight_tm2-3",
                                  "weight_tm3-1"])
    def test_nonfinite_log_x_raises(self, seq):
        w = principal_solution(seq)
        for bad in (-math.inf, math.inf, math.nan):
            with pytest.raises(DomainError):
                w.log_density(np.array([0.0, bad]))

    @pytest.mark.parametrize("x", [0.0, -1.0, math.inf, math.nan])
    def test_evaluate_checks_x(self, x):
        with pytest.raises(DomainError):
            principal_solution(tm1(2)).evaluate(np.array([1.0, x]))

    def test_closed_forms_beyond_double_range(self):
        # ln W at ln x = +-2000, where x itself is 0 or inf in doubles
        lx = np.array([-2000.0, 2000.0])
        want1 = -math.log(40.0) - (39.0 / 40.0) * lx - np.exp(lx / 40.0)
        got1 = principal_solution(tm1(20)).log_density(lx)
        assert np.allclose(got1, want1, rtol=1e-15, atol=0.0)
        # W2(40): K0(z) ~ -ln(z/2) - Euler gamma at z = 2 e^{-25}
        w2_40 = principal_solution(tm2(40))
        got2 = w2_40.log_density(lx[:1])[0]
        k0 = 25.0 - 0.5772156649015329
        want2 = math.log(2.0 / 40.0) + (39.0 / 40.0) * 2000.0 + math.log(k0)
        assert got2 == pytest.approx(want2, rel=1e-14)
        assert np.all(np.isfinite(w2_40.log_density(lx)))


class TestWeightObjects:
    def test_tm1_metadata(self):
        w = principal_solution(tm1(2))
        assert w.alpha0 == pytest.approx(-3.0 / 4.0)
        assert w.growth == (1.0, 1.0 / 4.0)
        assert w.tail_certified

    def test_tm2_metadata(self):
        w = principal_solution(tm2(3))
        assert w.alpha0 == pytest.approx(-2.0 / 3.0)
        assert w.growth == (2.0, 1.0 / 6.0)

    def test_contour_backed_not_tail_certified(self):
        assert not principal_solution(tm3(1)).tail_certified
        assert not principal_solution(tm4(1)).tail_certified

    def test_principal_solution_dispatch(self):
        # one constructor: seq.family picks the density, and a closed form
        # certifies the tail of the first two families only
        for text, certified in [("tm1:r=2", True), ("gamma:2.02n+1", True),
                                ("tm2:r=2", True), ("gamma:3n+1,3n+1", True),
                                ("tm3:r=1", False), ("tm4:r=1", False),
                                ("gamma:2.5n+1,2.5n+1", False)]:
            w = principal_solution(parse_descriptor(text))
            assert w.tail_certified == certified, text
        # every spelling of a family gets the same density
        lx = np.linspace(-5.0, 5.0, 11)
        for named, gamma in [("tm1:r=2", "gamma:4n+1"),
                             ("tm2:r=3", "gamma:3n+1,3n+1")]:
            got, want = (principal_solution(parse_descriptor(t)).log_density(lx)
                         for t in (gamma, named))
            assert np.array_equal(got, want), named

    def test_endpoint_laws_read_from_seq(self):
        # alpha0 and growth are properties of seq, not fields that could
        # disagree with it
        names = {f.name for f in dataclasses.fields(WeightFunction)}
        assert names == {"seq", "log_density", "tail_certified"}
        moved = dataclasses.replace(principal_solution(tm2(3)), seq=tm2(4))
        assert (moved.alpha0, moved.growth) == (-0.75, (2.0, 1.0 / 8.0))

    def test_evaluate_matches_log_density(self):
        w = principal_solution(tm2(2))
        xs = np.logspace(-3, 3, 11)
        assert np.allclose(w.evaluate(xs), np.exp(w.log_density(np.log(xs))),
                           rtol=1e-15)


class TestOriginExponent:
    def test_alpha0_slope_fit_tm1(self):
        # ln W ~ alpha0 ln x near the origin; tm1 is a pure power there
        w = principal_solution(tm1(2))
        xs = np.logspace(-14, -12, 12)
        slope, _ = np.polyfit(np.log(xs), w.log_density(np.log(xs)), 1)
        assert slope == pytest.approx(w.alpha0, abs=0.01)

    def test_alpha0_slope_fit_tm2(self):
        # the K0 origin behaviour adds a ln ln(1/x) correction ~ 1/ln(1/x)
        w = principal_solution(tm2(3))
        xs = np.logspace(-14, -12, 12)
        slope, _ = np.polyfit(np.log(xs), w.log_density(np.log(xs)), 1)
        assert slope == pytest.approx(w.alpha0, abs=0.05)

    def test_alpha0_slope_fit_spline(self):
        w = principal_solution(tm4(1))
        xs = np.logspace(-14, -12, 12)
        slope, _ = np.polyfit(np.log(xs), w.log_density(np.log(xs)), 1)
        # K0-type log factor perturbs the pure power slightly
        assert slope == pytest.approx(w.alpha0, abs=0.05)


class TestSplineDensities:
    @pytest.mark.parametrize("r,x", [(1, 0.5), (1, 50.0), (2, 3.0)])
    def test_spline_matches_direct_contour_w3(self, r, x):
        direct = w3(r, x)
        spline = principal_solution(tm3(r)).evaluate(np.float64(x))
        assert spline == pytest.approx(direct, rel=1e-8)

    @pytest.mark.parametrize("r,x", [(1, 0.2), (2, 10.0)])
    def test_spline_matches_direct_contour_w4(self, r, x):
        direct = w4(r, x)
        spline = principal_solution(tm4(r)).evaluate(np.float64(x))
        assert spline == pytest.approx(direct, rel=1e-8)

    def test_positive_on_wide_grid(self):
        w = principal_solution(tm3(2))
        xs = np.logspace(-18, 10, 400)
        assert np.all(np.isfinite(w.log_density(np.log(xs))))

    def test_far_tail_raises_convergence_error(self):
        # past the window the engine answers, and at x = 1e40 its saddle
        # search cannot bracket
        w = principal_solution(tm3(1))
        with pytest.raises(ConvergenceError, match="ln x = 92.1034"):
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
    def test_outside_window_matches_engine(self, seq):
        # below x = 1e-20 and past ln W = -320 the engine itself answers;
        # points inside the window in the same call keep the interpolant's
        # values exactly
        interp = weights._density_spline(seq)
        lo, hi = interp.edges[0], interp.edges[-1]
        assert lo == pytest.approx(math.log(1e-20), abs=1e-12)
        outside = np.array([lo - 1.0, -100.0, -230.0, -690.0, hi + 1.0,
                            *np.log([1e-30, 1e-100, 1e-300])])
        inside = np.linspace(lo, hi, 7)
        want, _ = contour_log_densities(seq, outside)
        got = weights._spline_log_evaluate(
            seq, np.concatenate([outside, inside]))
        assert np.max(np.abs(got[:outside.size] - want)) <= 1e-10
        assert np.array_equal(got[outside.size:], interp(inside))

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
        # the message names the narrowest panel that failed: the window
        # (60.06 wide) halved once, not _PANEL_WIDTH / 2
        monkeypatch.setattr(weights, "_MAX_SPLITS", 1)
        with pytest.raises(ConvergenceError, match=r"panels 30\.0304 wide"):
            weights._density_spline.__wrapped__(seq)

    @pytest.mark.parametrize("text,panels", [
        ("tm3:r=1", 8), ("tm3:r=2", 10), ("tm3:r=3", 10), ("tm3:r=7", 7),
        ("tm3:r=40", 6), ("tm4:r=1", 9), ("tm4:r=38", 6), ("tm4:r=60", 5),
        ("gamma:2n+1,n+1", 8), ("gamma:0.3n+1,0.3n+1", 8)])
    def test_representable_windows_keep_the_absolute_stop(self, text, panels):
        # the stop test relaxes to ln W's rounding, 64 eps max|ln W|, only
        # on panels where |ln W| > about 704; these windows stay below it,
        # so they keep their 1e-11 estimate, on panels max(8, A) wide
        interp = weights._density_spline(parse_descriptor(text))
        assert interp.edges.size - 1 == panels
        assert interp.error <= 1e-11


def _random_products(count, seed):
    """2-4 factors Gamma(a n + b), a log-uniform on [0.01, 5000] and b
    uniform on [0.1, 50]."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = rng.integers(2, 5)
        a = np.exp(rng.uniform(math.log(0.01), math.log(5000.0), m))
        yield gamma_product(zip(a, rng.uniform(0.1, 50.0, m)))


class TestInterpolantFuzz:
    """Seeded random products: each interpolant builds and reproduces its
    moments and the engine, or its build raises a GammomentsError."""

    @pytest.mark.parametrize("seq", _random_products(12, seed=41),
                             ids=lambda seq: seq.descriptor())
    def test_builds_or_refuses(self, seq):
        try:
            interp = weights._density_spline(seq)
        except GammomentsError:
            return
        w = principal_solution(seq)
        for n in (0, 3):
            assert check_moment(w, seq, n).rel_error <= _PASS_TOL
        lx = np.random.default_rng(5).uniform(interp.edges[0],
                                              interp.edges[-1], 5)
        want, _ = contour_log_densities(seq, lx)
        assert np.all(np.abs(interp(lx) - want)
                      <= 1e-12 * np.maximum(1.0, np.abs(want)))


class TestInitialPanels:
    """Initial panels are max(8, A) wide, A = sum a_j: the window, 46.05 +
    A ln(320/g) in ln x with g >= 1, holds at most 12 of them, so the
    build's first engine call takes at most 12 panels' Chebyshev points.
    Panels 8 wide once took 33,726 knots at tm3:r=580."""

    @pytest.mark.parametrize(
        "seq", [*map(parse_descriptor, ["tm3:r=580", "tm4:r=1000",
                                        "tm3:r=1500", "gamma:900n+1,600n+1"]),
                *_random_products(12, seed=41)],
        ids=lambda seq: seq.descriptor())
    def test_first_call_takes_at_most_twelve_panels(self, seq, monkeypatch):
        calls = _counting_engine(monkeypatch)
        weights._density_spline.__wrapped__(seq)
        assert 0 < calls[0] <= 12 * (weights._DEGREE + 1)


class TestNegativeDensityRefused:
    """The engine refuses a non-positive principal density for every caller."""

    @pytest.fixture
    def negated(self, monkeypatch):
        import gammamoments.mellin as mellin
        sums = mellin._contour_sums

        def negative(*args, **kwargs):
            scale, total = sums(*args, **kwargs)
            return scale, -total
        return lambda: monkeypatch.setattr(mellin, "_contour_sums", negative)

    def test_build(self, negated):
        negated()
        with pytest.raises(TruncationError, match="evaluated negative"):
            weights._density_spline.__wrapped__(tm3(1))

    def test_lookup_outside_window(self, negated):
        seq = tm3(1)
        lo = weights._density_spline(seq).edges[0]
        negated()
        with pytest.raises(TruncationError, match="evaluated negative"):
            weights._spline_log_evaluate(seq, np.array([lo + 1.0, lo - 1.0]))

    def test_convolve(self, negated):
        from gammamoments import cli
        args = cli.build_parser().parse_args(
            ["convolve", "--seq-a", "tm3:r=1", "--seq-b", "tm1:r=1",
             "--x", "1"])
        negated()
        with pytest.raises(TruncationError, match="evaluated negative"):
            args.func(args)


class TestDualRoute:
    """Contour densities against mpmath's Meijer G, a route that shares
    nothing with the engine (tests/oracles.py)."""

    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
    def test_w4_contour_vs_meijer_g(self, x):
        want = meijer_log_density(tm4(1), math.log(x))
        assert abs(math.log(w4(1, x)) - want) <= 1e-13

    def test_w4_r2(self):
        want = meijer_log_density(tm4(2), 0.0)
        assert abs(math.log(w4(2, 1.0)) - want) <= 1e-13

    @pytest.mark.parametrize("text,seed", [("tm3:r=1", 1), ("tm3:r=2", 2),
                                           ("tm4:r=1", 3),
                                           ("gamma:2n+1,n+1", 4),
                                           ("tm3:r=3", 5), ("tm4:r=3", 6),
                                           ("tm3:r=7", 7)])
    def test_engine_and_interpolant_vs_meijer_g(self, text, seed):
        seq = parse_descriptor(text)
        rng = np.random.default_rng(seed)
        log_x = rng.uniform(math.log(1e-12), math.log(1e3), 6)
        want = np.array([meijer_log_density(seq, v) for v in log_x])
        engine, _ = contour_log_densities(seq, log_x)
        interpolant = principal_solution(seq).log_density(log_x)
        assert np.max(np.abs(engine - want)) <= 1e-13
        assert np.max(np.abs(interpolant - want)) <= 1e-13


_SINGLE_FACTORS = pytest.mark.parametrize(
    "text", ["gamma:2.5n+0.7", "gamma:3n+2", "gamma:2.02n+0.5",
             "gamma:0.5n+1", "gamma:1.5n+3.25"])


class TestSingleFactor:
    """Gamma(an + b) for any a, b > 0 has the closed-form density
    x^{b/a - 1} e^{-x^{1/a}} / a (substitute u = x^{1/a})."""

    @_SINGLE_FACTORS
    def test_formula(self, text):
        seq = parse_descriptor(text)
        (a, b), = seq.factors
        w = principal_solution(seq)
        assert w.tail_certified
        assert w.alpha0 == (b - a) / a
        for x in (1e-6, 0.3, 2.0, 50.0, 1e4):
            want = x ** (b / a - 1.0) * math.exp(-x ** (1.0 / a)) / a
            assert w.evaluate(np.float64(x)) == pytest.approx(want, rel=1e-13)

    @_SINGLE_FACTORS
    def test_moments_without_interpolant(self, text, monkeypatch):
        def no_spline(seq):
            raise AssertionError(f"interpolant built for {seq.descriptor()}")
        monkeypatch.setattr(weights, "_density_spline", no_spline)
        seq = parse_descriptor(text)
        w = principal_solution(seq)
        for n in range(9):
            assert check_moment(w, seq, n).rel_error <= 1e-12, n

    def test_unit_offset_is_w1_bit_for_bit(self):
        # the exponent (b - q)/q at b = 1 rounds as -(q - 1)/q does
        us = np.linspace(-30.0, 30.0, 61)
        for text, q in (("gamma:2.02n+1", 2.02), ("tm1:r=2", 4),
                        ("gamma:3n+1", 3.0)):
            w = principal_solution(parse_descriptor(text))
            want = -np.log(q) - ((q - 1.0) / q) * us - np.exp(us / q)
            assert np.array_equal(w.log_density(us), want), text


class TestGenericW1:
    def test_half_integer_index(self):
        w = principal_solution(gamma_product([(3.0, 1.0)]))
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
