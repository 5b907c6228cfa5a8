"""Moment-verification harness: analytic identities and plumbing checks."""

import math

import numpy as np
import pytest
import scipy.integrate

import gammamoments.verify as verify
from gammamoments import (ConstraintError, ConvergenceError, check_moment,
                          check_vanishing, perturbation_tm1,
                          perturbation_tm2, perturbation_tm3,
                          principal_solution, tm1, tm2, weight_tm1,
                          weight_tm2)


class TestClosedFormMoments:
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_tm1_u_substituted_identity(self, r):
        # after u = x^{1/2r} the integral is Gamma(2rn + 1) exactly, so the
        # harness must agree with log-gamma to near machine precision
        w = weight_tm1(r)
        seq = tm1(r)
        for n in range(0, 9):
            res = check_moment(w, seq, n)
            assert res.rel_error <= 1e-10
            assert res.log_integral == pytest.approx(
                math.lgamma(2 * r * n + 1.0), rel=1e-12, abs=1e-10)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_tm2_moments(self, r):
        w = weight_tm2(r)
        seq = tm2(r)
        for n in range(0, 9):
            assert check_moment(w, seq, n).rel_error <= 1e-6

    def test_normalization(self):
        res = check_moment(weight_tm2(2), tm2(2), 0)
        assert res.log_target == 0.0
        assert res.rel_error <= 1e-10


class TestHarnessPlumbing:
    def test_substitution_invariance(self):
        # same integrals straight in x-space via scipy, with the origin
        # singularity handled by quad's algebraic-endpoint machinery
        for r in (1, 2):
            w = weight_tm1(r)
            seq = tm1(r)
            for n in (0, 2, 4):
                res = check_moment(w, seq, n)
                f = lambda x, n=n: x ** n * float(w.evaluate(np.float64(x)))
                # truncate once the exponential factor has decayed by ~60
                # e-folds past the peak; log-spaced breakpoints keep quad
                # honest across the many decades the integrand spans
                x_hi = (2.0 * r * n + 60.0) ** (2 * r)
                head, _ = scipy.integrate.quad(f, 0.0, 1.0, limit=400)
                tail, _ = scipy.integrate.quad(
                    f, 1.0, x_hi, limit=400,
                    points=list(np.geomspace(1.0, x_hi, 30)[1:-1]))
                assert math.log(head + tail) == pytest.approx(
                    res.log_integral, abs=1e-6)

    def test_tolerance_halving_stability(self):
        w = weight_tm2(2)
        seq = tm2(2)
        a = check_moment(w, seq, 3, rtol=1e-9)
        b = check_moment(w, seq, 3, rtol=5e-10)
        assert abs(a.log_integral - b.log_integral) < 1e-8

    def test_node_cap_enforced(self):
        with pytest.raises(ConvergenceError):
            check_moment(weight_tm1(1), tm1(1), 0, rtol=0.0, node_cap=2000)

    def test_rejects_negative_n(self):
        with pytest.raises(ConstraintError):
            check_moment(weight_tm1(1), tm1(1), -1)
        with pytest.raises(ConstraintError):
            check_vanishing(perturbation_tm1(2, 1), tm1(2), -3)

    @pytest.mark.parametrize("seq", [tm1(2), tm2(3)], ids=["tm1:r=2", "tm2:r=3"])
    def test_nodes_used_counts_evaluations(self, seq):
        import dataclasses
        base = principal_solution(seq)
        sizes = []

        def counted(x):
            sizes.append(np.size(x))
            return base.log_evaluate(x)
        res = check_moment(dataclasses.replace(base, log_evaluate=counted),
                           seq, 4)
        assert res.nodes_used == sum(sizes)
        # the window scan: 33 probes, then one point per step; then the
        # 257-node grid and, per refinement, only its new midpoints
        grids = sizes[sizes.index(257):]
        assert sizes[0] == 33 and set(sizes[1:-len(grids)]) == {1}
        assert len(grids) >= 2
        assert grids == [257] + [256 << k for k in range(len(grids) - 1)]
        assert res.log_integral == check_moment(base, seq, 4).log_integral

    def test_result_fields(self):
        res = check_moment(weight_tm1(2), tm1(2), 4)
        assert res.n == 4
        assert res.nodes_used <= 200_000
        assert res.passed


class TestVanishing:
    def test_omega1_vanishes(self):
        pert = perturbation_tm1(2, 1)
        for n in range(0, 9):
            assert check_vanishing(pert, pert.seq, n).rel_error <= 1e-6

    def test_omega2_vanishes(self):
        pert = perturbation_tm2(3, 1)
        for n in range(0, 9):
            assert check_vanishing(pert, pert.seq, n).rel_error <= 1e-6

    @staticmethod
    def _grid_sizes(pert, n):
        import dataclasses
        sizes = []

        def counted(x):
            sizes.append(np.size(x))
            return pert.evaluate(x)
        res = check_vanishing(dataclasses.replace(pert, evaluate=counted),
                              pert.seq, n)
        return sizes, res

    def test_refinement_evaluates_only_midpoints(self):
        sizes, res = self._grid_sizes(perturbation_tm1(2, 1), 0)
        # the first grid, then per refinement only its new midpoints
        first = verify._FIRST_GRID
        assert sizes == [first] + [(first - 1) << k
                                   for k in range(len(sizes) - 1)]
        assert res.nodes_used == sum(sizes)

    def test_refines_past_first_refinement(self):
        # this integrand needs a third grid: the stop test, not the first
        # grid's size, decides where nested doubling ends
        _, res = self._grid_sizes(perturbation_tm1(2, 1), 0)
        assert res.nodes_used == 4 * (verify._FIRST_GRID - 1) + 1
        assert res.rel_error <= 1e-6

    @pytest.mark.parametrize("family,r,n", [
        ("tm1", 8, 0), ("tm1", 8, 7), ("tm2", 9, 7), ("tm2", 9, 8),
        ("tm3", 7, 7), ("tm2", 12, 8)])
    def test_large_r_stays_finite(self, family, r, n):
        # in linear scale x underflowed to 0 at the window's left edge
        # (tm1:r=8, n=0) or x^{n+1} overflowed to inf (r = 7..9); a left
        # edge set by the envelope's linear term alone cut tm2:r=12 at 3e-6
        make = {"tm1": perturbation_tm1, "tm2": perturbation_tm2,
                "tm3": perturbation_tm3}[family]
        pert = make(r, 1)
        res = check_vanishing(pert, pert.seq, n)
        assert math.isfinite(res.log_integral)
        assert res.rel_error <= (1e-5 if family == "tm3" else 1e-6)

    @pytest.mark.parametrize("bad", [(math.inf,), (-math.inf,), (math.nan,),
                                     (math.inf, -math.inf)])
    def test_non_finite_integrand_raises(self, bad):
        # raised on the first grid, not after refining to the node cap, and
        # +inf and -inf in two panels never reach math.fsum
        import dataclasses
        base = perturbation_tm1(2, 1)

        def spoiled(x):
            vals = np.array(base.evaluate(x), dtype=float)
            vals[[vals.size // (i + 2) for i in range(len(bad))]] = bad
            return vals
        with pytest.raises(ConvergenceError, match="not finite"):
            check_vanishing(dataclasses.replace(base, evaluate=spoiled),
                            base.seq, 0)

    def test_matches_large_first_grid(self, monkeypatch):
        # oracle: the same checks started on a 4,097-node grid.  The result
        # carries |I| / rho(n) only, so the magnitudes are compared.
        perts = [perturbation_tm1(2, 1), perturbation_tm1(3, 2),
                 perturbation_tm2(3, 1), perturbation_tm2(5, 2),
                 perturbation_tm3(3, 1)]
        small = [[check_vanishing(p, p.seq, n).rel_error for n in range(9)]
                 for p in perts]
        monkeypatch.setattr(verify, "_FIRST_GRID", 4097)
        for pert, got in zip(perts, small):
            for n in range(9):
                ref = check_vanishing(pert, pert.seq, n)
                assert ref.nodes_used >= 8193
                assert abs(got[n] - ref.rel_error) <= 1e-12

    def test_amplitude_scaling_invariance(self):
        # scaling omega by a constant scales the integral linearly, so the
        # ratio to rho(n) scales the same way: check via a wrapped copy
        base = perturbation_tm1(2, 1)
        import dataclasses
        scaled = dataclasses.replace(
            base, evaluate=lambda x: 100.0 * base.evaluate(x))
        a = check_vanishing(base, base.seq, 2)
        b = check_vanishing(scaled, base.seq, 2)
        assert b.rel_error == pytest.approx(100.0 * a.rel_error, rel=1e-3)
