"""Contour engine: closed-form transforms, saddle shifting, convolution."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special as sps

import gammamoments.mellin as mellin
import gammamoments.verify as verify
from gammamoments import (ConstraintError, ContourSpec, ConvergenceError,
                          DomainError, TruncationError, adapted_contour,
                          check_vanishing, contour_log_densities,
                          contour_log_density, inverse_mellin_log,
                          mellin_convolve_many, mellin_symbol,
                          parse_descriptor, perturbation_tm3, tm2, tm3, tm4,
                          w1, w2)
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
            s = np.asarray(s)
            if s.size > 1 and np.any(s.imag != 0.0):
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

    @pytest.mark.parametrize("log_x", [45.0, 50.0])
    def test_deep_tail_grid_over_max_points_raises(self, log_x):
        # the coarsest grid would hold 3.4e7 (ln x = 45) and 1.3e8 (ln x =
        # 50) intervals; the engine must refuse before allocating it
        with pytest.raises(ConvergenceError, match="max_points"):
            contour_log_density(tm2(1), math.exp(log_x))

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
        calls = _band_inputs(monkeypatch,
                             lambda: check_vanishing(pert, pert.seq, 0))
        sizes = [c[0].size for c in calls]
        assert sizes[:2] == [4097, 4096]
        for call in calls:
            self._check(*call)
        # the nested 8,193-knot grid: saddles are per knot, so merging the
        # two calls gives the arguments of one call on the whole grid
        merged = [np.concatenate(parts) for parts in zip(calls[0], calls[1])]
        order = np.argsort(merged[0], kind="stable")
        bands = self._check(*(part[order] for part in merged))
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
