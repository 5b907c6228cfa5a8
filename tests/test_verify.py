"""Moment-verification harness: analytic identities and plumbing checks."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special

import gammamoments.verify as verify
from gammamoments import (ConstraintError, ConvergenceError, RefusesError,
                          WeightFunction, check_moment,
                          check_vanishing, full_report, gamma_product,
                          parse_descriptor,
                          perturbation, perturbation_tm1, perturbation_tm2,
                          perturbation_tm3, principal_solution, tm1, tm2,
                          tm3, tm4)


class TestClosedFormMoments:
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_tm1_u_substituted_identity(self, r):
        # after u = x^{1/2r} the integral is Gamma(2rn + 1) exactly, so the
        # harness must agree with log-gamma to near machine precision
        seq = tm1(r)
        w = principal_solution(seq)
        for n in range(0, 9):
            res = check_moment(w, seq, n)
            assert res.rel_error <= 1e-10
            assert res.log_integral == pytest.approx(
                math.lgamma(2 * r * n + 1.0), rel=1e-12, abs=1e-10)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_tm2_moments(self, r):
        seq = tm2(r)
        w = principal_solution(seq)
        for n in range(0, 9):
            assert check_moment(w, seq, n).rel_error <= 1e-10

    def test_normalization(self):
        res = check_moment(principal_solution(tm2(2)), tm2(2), 0)
        assert res.log_target == 0.0
        assert res.rel_error <= 1e-10

    @pytest.mark.parametrize("b", [41, 101])
    def test_tail_prefactor_widens_window(self, b):
        # rho(n) = n! Gamma(n + b) has W = 2 x^{nu/2} K_nu(2 sqrt x), nu = b - 1:
        # W ~ Gamma(nu) at the origin (alpha0 = 0) but ~ x^{(b - 1.5)/2}
        # e^{-2 sqrt x} in the tail, so a right edge set by alpha0 alone
        # cuts the integral (b = 101: 5e-6 to 3e-5 at n = 0..8)
        nu = b - 1.0

        def log_w(log_x):
            z = 2.0 * np.exp(0.5 * log_x)
            with np.errstate(over="ignore", divide="ignore"):
                log_k = np.log(scipy.special.kve(nu, z)) - z
            # where K_nu overflows, its small-z series to (z/2)^4
            small = ~np.isfinite(log_k)
            xs = np.exp(log_x[small])
            log_k[small] = (math.lgamma(nu) - math.log(2.0)
                            - 0.5 * nu * log_x[small]
                            + np.log1p(-xs / (nu - 1.0) + xs * xs
                                       / (2.0 * (nu - 1.0) * (nu - 2.0))))
            return math.log(2.0) + 0.5 * nu * log_x + log_k
        seq = gamma_product([(1, 1), (1, b)])
        w = WeightFunction(seq, log_w, tail_certified=True)
        assert (w.alpha0, w.growth) == (0.0, (2.0, 0.5))
        assert seq.tail_exponent == pytest.approx((b - 1.5) / 2.0)
        for n in range(9):
            assert check_moment(w, seq, n).rel_error <= 1e-10

    @pytest.mark.parametrize("seq", [tm1(20), tm1(30), tm1(40), tm1(58),
                                     tm1(200), tm2(40)],
                             ids=lambda seq: seq.descriptor())
    def test_large_r_window_leaves_double_range(self, seq):
        # the window in v = p ln x spans ln x below the smallest double
        # (where a cut of the window lost tm1:r=30 7.5e-6 at n = 0) and
        # past ln x = 709 (where W at x = inf raised DomainError for
        # tm1:r=58 at n = 2); densities evaluated in ln x need neither
        w = principal_solution(seq)
        for n in range(3):
            assert check_moment(w, seq, n).rel_error <= 1e-12


class TestInterpolatedMoments:
    @pytest.mark.parametrize("desc", ["tm3:r=2", "tm3:r=3", "tm4:r=2"])
    def test_moments_through_n8(self, desc):
        # tm3:r=3 at n = 7 and tm4:r=2 at n = 8 once raised
        # TruncationError: a window walked out in 0.5 steps of ln u passed
        # the interpolant's end although the integrand had decayed before it
        seq = parse_descriptor(desc)
        w = principal_solution(seq)
        for n in range(9):
            assert check_moment(w, seq, n).rel_error <= 1e-10

    @pytest.mark.parametrize("desc", ["tm3:r=2", "tm4:r=2", "tm3:r=3",
                                      "tm3:r=1", "tm4:r=1"])
    def test_n0_below_interpolant_window(self, desc):
        # at n = 0 the window reaches below x = 1e-20, where ln W once
        # followed the interpolant's edge slope and lost tm3's (ln x)^2
        # factor (2.7e-7 on tm3:r=3); the engine answers there now
        seq = parse_descriptor(desc)
        assert check_moment(principal_solution(seq), seq, 0).rel_error <= 1e-13

    @pytest.mark.parametrize("n", [45, 50])
    def test_moments_past_interpolant_window(self, n):
        # at these n the envelope window of tm3:r=1 ends beyond ln W = -320,
        # where the interpolant stops and the engine takes over
        res = check_moment(principal_solution(tm3(1)), tm3(1), n)
        assert res.rel_error <= 1e-12


class TestHarnessPlumbing:
    def test_substitution_invariance(self):
        # same integrals straight in x-space via scipy, with the origin
        # singularity handled by quad's algebraic-endpoint machinery
        for r in (1, 2):
            seq = tm1(r)
            w = principal_solution(seq)
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

    def test_node_cap_enforced(self, monkeypatch):
        # this moment settles on the second grid, 257 + 256 evaluations;
        # one evaluation less leaves the second grid unstarted
        first = verify._FIRST_GRID
        seq = tm1(1)
        w = principal_solution(seq)
        monkeypatch.setattr(verify, "_NODE_CAP", 2 * first - 1)
        assert check_moment(w, seq, 0).nodes_used == 2 * first - 1
        monkeypatch.setattr(verify, "_NODE_CAP", 2 * first - 2)
        with pytest.raises(ConvergenceError, match="did not stabilize"):
            check_moment(w, seq, 0)

    def test_rejects_negative_n(self):
        with pytest.raises(ConstraintError):
            check_moment(principal_solution(tm1(1)), tm1(1), -1)
        with pytest.raises(ConstraintError):
            check_vanishing(perturbation_tm1(2, 1), tm1(2), -3)

    @pytest.mark.parametrize("seq", [tm1(2), tm2(3)], ids=["tm1:r=2", "tm2:r=3"])
    def test_nodes_used_counts_evaluations(self, seq):
        import dataclasses
        base = principal_solution(seq)
        sizes = []

        def counted(log_x):
            sizes.append(np.size(log_x))
            return base.log_density(log_x)
        res = check_moment(dataclasses.replace(base, log_density=counted),
                           seq, 4)
        assert res.nodes_used == sum(sizes)
        # the 257- and 513-node grids in one call, then per refinement only
        # its new midpoints; nothing else evaluates ln W
        assert len(sizes) >= 1
        assert sizes == [513] + [512 << k for k in range(len(sizes) - 1)]
        assert res.log_integral == check_moment(base, seq, 4).log_integral

    def test_mismatched_density_fails_without_error(self):
        # I / rho(n) = 10! / 2000! underflows to 0 in units of rho(n): the
        # check must still return and fail, not raise from ln 0
        res = check_moment(principal_solution(tm1(1)), tm1(200), 5)
        assert res.rel_error == 1.0 and not res.passed

    def test_overflowing_density_fails_without_error(self):
        # e^800 W has I / rho(n) = e^800, past the double range in units of
        # rho(n): the check fails with rel_error inf, and full_report
        # refuses the density rather than raising ConvergenceError
        import dataclasses
        base = principal_solution(tm2(2))
        w = dataclasses.replace(
            base, log_density=lambda log_x: base.log_density(log_x) + 800.0)
        res = check_moment(w, tm2(2), 3)
        assert res.rel_error == math.inf and not res.passed
        with pytest.raises(RefusesError, match="n=0"):
            full_report(tm2(2), w)

    def test_result_fields(self):
        res = check_moment(principal_solution(tm1(2)), tm1(2), 4)
        assert res.n == 4
        assert res.nodes_used <= 200_000
        assert res.passed


def _split_in_two(log_density):
    """log_density evaluated on the two halves of each call, piece by piece."""
    def split(log_x):
        log_x = np.asarray(log_x)
        half = log_x.size // 2
        parts = [log_density(log_x[:half]), log_density(log_x[half:])]
        if isinstance(parts[0], tuple):  # a perturbation: (sign, ln |omega|)
            return tuple(np.concatenate(pair) for pair in zip(*parts))
        return np.concatenate(parts)
    return split


class TestSplitCalls:
    """A closed form is pointwise, so how a check groups its evaluations
    (two grids in the first call, midpoints after) cannot change a value."""

    @pytest.mark.parametrize("seq", [tm1(2), tm2(3)], ids=["tm1:r=2", "tm2:r=3"])
    def test_check_moment(self, seq):
        import dataclasses
        w = principal_solution(seq)
        split = dataclasses.replace(w, log_density=_split_in_two(w.log_density))
        for n in range(9):
            assert check_moment(split, seq, n) == check_moment(w, seq, n)

    @pytest.mark.parametrize("make", [perturbation_tm1, perturbation_tm2],
                             ids=["omega1", "omega2"])
    def test_check_vanishing(self, make):
        import dataclasses
        pert = make(3, 1)
        split = dataclasses.replace(pert,
                                    log_density=_split_in_two(pert.log_density))
        for n in range(9):
            assert (check_vanishing(split, pert.seq, n)
                    == check_vanishing(pert, pert.seq, n))


class TestVanishing:
    def test_omega1_vanishes(self):
        pert = perturbation_tm1(2, 1)
        for n in range(0, 9):
            assert check_vanishing(pert, pert.seq, n).rel_error <= 1e-10

    def test_omega2_vanishes(self):
        pert = perturbation_tm2(3, 1)
        for n in range(0, 9):
            assert check_vanishing(pert, pert.seq, n).rel_error <= 1e-10

    @staticmethod
    def _grid_sizes(pert, n):
        import dataclasses
        sizes = []

        def counted(log_x):
            sizes.append(np.size(log_x))
            return pert.log_density(log_x)
        res = check_vanishing(dataclasses.replace(pert, log_density=counted),
                              pert.seq, n)
        return sizes, res

    def test_refinement_evaluates_only_midpoints(self):
        sizes, res = self._grid_sizes(perturbation_tm1(2, 1), 0)
        # the first two grids in one call, then per refinement only its new
        # midpoints
        first = verify._FIRST_GRID
        assert sizes == [2 * first - 1] + [(2 * first - 2) << k
                                           for k in range(len(sizes) - 1)]
        assert res.nodes_used == sum(sizes)

    def test_refines_past_first_refinement(self):
        # this integrand needs a third grid: the stop test, not the first
        # grid's size, decides where nested doubling ends
        _, res = self._grid_sizes(perturbation_tm1(2, 1), 0)
        assert res.nodes_used == 4 * (verify._FIRST_GRID - 1) + 1
        assert res.rel_error <= 1e-10

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
        assert res.rel_error <= 1e-10

    @pytest.mark.parametrize("r,ns", [(30, (7, 8)), (40, (4, 5, 6, 7, 8))])
    def test_omega3_large_r(self, r, ns):
        # each once raised ConvergenceError, "integrand is not finite": the
        # residue series certified omega3 sums whose modulus overflowed
        pert = perturbation_tm3(r, 1)
        for n in ns:
            assert check_vanishing(pert, pert.seq, n).rel_error <= 1e-10

    @pytest.mark.parametrize("family,r", [("tm1", 20), ("tm1", 30),
                                          ("tm1", 40), ("tm2", 40)])
    def test_large_r_window_reaches_the_origin(self, family, r):
        # evaluated at x, omega cut the window where x underflows, at
        # ln x = ln(2.2e-308): rel_error was 1.6e-9, 3.9e-7 and 5.6e-6 for
        # tm1 at r = 20, 30, 40 and 2.6e-8 for tm2 at r = 40
        make = {"tm1": perturbation_tm1, "tm2": perturbation_tm2}[family]
        pert = make(r, 1)
        assert check_vanishing(pert, pert.seq, 0).rel_error <= 1e-12

    @pytest.mark.parametrize("bad", [(math.inf,), (-math.inf,), (math.nan,),
                                     (math.inf, -math.inf)])
    def test_non_finite_integrand_raises(self, bad):
        # raised on the first grid, not after refining to the node cap, and
        # +inf and -inf in two panels never reach math.fsum
        import dataclasses
        base = perturbation_tm1(2, 1)

        def spoiled(log_x):
            # omega = +-inf is (+-1, inf) in log form, nan is (nan, nan)
            sign, log_abs = (np.array(a, dtype=float)
                             for a in base.log_density(log_x))
            at = [sign.size // (i + 2) for i in range(len(bad))]
            sign[at], log_abs[at] = np.sign(bad), np.abs(bad)
            return sign, log_abs
        with pytest.raises(ConvergenceError, match="not finite"):
            check_vanishing(dataclasses.replace(base, log_density=spoiled),
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

        def scaled_log(log_x):
            sign, log_abs = base.log_density(log_x)
            return sign, log_abs + math.log(100.0)
        scaled = dataclasses.replace(base, log_density=scaled_log)
        a = check_vanishing(base, base.seq, 2)
        b = check_vanishing(scaled, base.seq, 2)
        assert b.rel_error == pytest.approx(100.0 * a.rel_error, rel=1e-3)


class TestAccuracySweep:
    """Every check holds far inside the pass threshold: a seeded sample of
    densities and perturbations, with each family's worst rel_error held
    about ten times above what it measures, so a loss of a few digits
    fails here although `passed` would still hold."""

    WORST = {"tm1": 1e-12, "tm2": 1e-12, "tm3": 1e-12, "tm4": 3e-12,
             "omega1": 1e-13, "omega2": 1e-14, "omega3": 3e-14,
             "gamma": 1e-12}

    def test_worst_error_per_family(self):
        rng = np.random.default_rng(2024)
        worst = dict.fromkeys(self.WORST, 0.0)
        for name, make in (("tm1", tm1), ("tm2", tm2), ("tm3", tm3),
                           ("tm4", tm4)):
            for r in rng.choice(np.arange(1, 9), 3, replace=False):
                seq = make(int(r))
                w = principal_solution(seq)
                for n in rng.choice(9, 4, replace=False):
                    worst[name] = max(worst[name],
                                      check_moment(w, seq, int(n)).rel_error)
                if name != "tm4" and r >= 3:
                    pert, key = perturbation(seq, 1), "omega" + name[-1]
                    for n in rng.choice(9, 2, replace=False):
                        res = check_vanishing(pert, seq, int(n))
                        worst[key] = max(worst[key], res.rel_error)
        for _ in range(6):
            seq = gamma_product(
                [(round(float(rng.uniform(0.5, 3.0)), 2),
                  round(float(rng.uniform(0.3, 4.0)), 2))
                 for _ in range(int(rng.integers(1, 3)))])
            w = principal_solution(seq)
            for n in (0, 4):
                worst["gamma"] = max(worst["gamma"],
                                     check_moment(w, seq, n).rel_error)
        assert all(worst[key] > 0.0 for key in worst), worst
        assert {key: worst[key] <= bound
                for key, bound in self.WORST.items()} == dict.fromkeys(
                    self.WORST, True), worst
