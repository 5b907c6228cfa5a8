"""Uniqueness criteria: growth-rate test, tail-integral test, and the
log-convexity converse, plus the combined report."""

import dataclasses
import json
import math

import mpmath
import numpy as np
import pytest

from gammamoments import (RefusesError, carleman, check_moment,
                          converse_carleman, full_report, gamma_product, krein,
                          parse_descriptor, principal_solution, tm1, tm2, tm3,
                          tm4)


class TestCarleman:
    def test_divergent_for_factorial_growth(self):
        res = carleman(tm1(1))
        assert res.verdict == "Divergent"

    def test_divergent_for_double_gamma_r1(self):
        assert carleman(tm2(1)).verdict == "Divergent"

    @pytest.mark.parametrize("seq", [tm1(2), tm1(3), tm2(2), tm2(3)])
    def test_convergent_for_fast_growth(self, seq):
        assert carleman(seq).verdict == "Convergent"

    def test_limit_ratio_near_e_over_two(self, monkeypatch):
        # for (2n)! the scaled roots n * a_n approach e/2
        import gammamoments.criteria as crit

        monkeypatch.setattr(crit, "_CARLEMAN_N_MAX", 400)
        res = carleman(tm1(1))
        assert res.n_a_n_limit == pytest.approx(2.718281828 / 2.0, rel=0.02)

    def test_terms_monotone_decreasing_when_convergent(self):
        res = carleman(tm1(2))
        values = [a for _, a in res.terms]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_verdict_from_sum_a_near_critical(self):
        # A = 2.02: a_n ~ n^{-1.01}, but the fitted slope (-0.9986) sits on
        # the divergent side of -1; the verdict must follow A exactly
        res = carleman(parse_descriptor("gamma:2.02n+1"))
        assert res.verdict == "Convergent"
        assert res.fitted_decay_exponent == pytest.approx(-1.0, abs=0.05)
        assert carleman(parse_descriptor("gamma:1.98n+1")).verdict == "Divergent"

    @pytest.mark.parametrize("seq", [tm1(1), tm2(1), tm2(3), tm3(2), tm4(2),
                                     parse_descriptor("gamma:2.02n+1"),
                                     parse_descriptor("gamma:0.5n+30")])
    def test_consistent_fit_adds_no_note(self, monkeypatch, seq):
        import gammamoments.criteria as crit

        for n_max in (50, 200, 400):
            monkeypatch.setattr(crit, "_CARLEMAN_N_MAX", n_max)
            c1 = carleman(seq)
            # Stirling: the slope of ln a_n against ln n over n >= n_lo is
            # -A/2 minus sum_j [(b_j - 1/2)(1 - ln(a_j n)) - ln(2 pi)/2] / 2n
            # + O(1/n^2); twice that sum's size at n_lo bounds the rest on
            # these inputs
            n_lo = n_max // 2
            bound = sum(abs(b - 0.5) * abs(1.0 - math.log(a * n_lo))
                        + 0.5 * math.log(2.0 * math.pi)
                        for a, b in seq.factors) / n_lo
            assert abs(c1.fitted_decay_exponent + seq.sum_a / 2.0) <= bound

    def test_sum_a_below_two_in_binary_divergent(self):
        # floats carry their own binary values: 0.7 + 0.6 + 0.7 sums to
        # just below 2 exactly, so the sum diverges
        seq = gamma_product([(0.7, 1.0), (0.6, 1.0), (0.7, 1.0)])
        assert seq.sum_a != 2.0 and seq.sum_a == pytest.approx(2.0)
        assert carleman(seq).verdict == "Divergent"

    @pytest.mark.parametrize("text,verdict", [
        ("gamma:0.7n+1,0.6n+1,0.7n+1", "Divergent"),
        ("gamma:2/3n+1,4/3n+1", "Divergent"),
        ("gamma:2.0000000000000001n+1", "Convergent")])
    def test_verdict_from_typed_multipliers(self, text, verdict):
        # the decimals as typed sum to exactly 2 (or just above it), where
        # the float sums read 1.9999999999999998 (or 2.0)
        assert carleman(parse_descriptor(text)).verdict == verdict


# interpolated products whose tail sample meets W >= 1
_LARGE_B = ["gamma:1.2n+5,1.2n+5", "gamma:1n+6,1n+6,1n+6",
            "gamma:0.5n+3,0.5n+3,0.5n+3,0.5n+3,0.5n+3"]


def _krein_w1(a):
    """(pi/2)(1/cos(pi/a) + ln a), the Krein integral of W1(a, b), at 30
    digits for the binary a."""
    with mpmath.workdps(30):
        a = mpmath.mpf(a)
        return float(mpmath.pi / 2 * (1 / mpmath.cos(mpmath.pi / a)
                                      + mpmath.log(a)))


class TestKrein:
    @pytest.mark.parametrize("seq,verdict", [
        (tm1(1), "Infinite"),
        (tm2(1), "Infinite"),
        (tm1(2), "Finite"),
        (tm2(3), "Finite"),
    ], ids=["seq0-weight_tm1-Infinite", "seq1-weight_tm2-Infinite",
            "seq2-weight_tm1-Finite", "seq3-weight_tm2-Finite"])
    def test_closed_form_verdicts(self, seq, verdict):
        assert krein(principal_solution(seq)).verdict == verdict

    @pytest.mark.parametrize("q", [2.0, 4.0, 6.0, 8.0])
    def test_fitted_tail_exponent(self, q):
        # -ln W1(q, x) ~ x^{1/q} so the logarithm-squared integrand decays
        # like x^{2/q}; the fitted exponent must recover it
        res = krein(principal_solution(gamma_product([(q, 1.0)])))
        assert res.growth_exponent == pytest.approx(2.0 / q, abs=0.02)

    def test_spline_backed_weights_undecided(self):
        # A decides C2 for interpolated densities as for closed forms
        assert krein(principal_solution(tm3(2))).verdict == "Finite"
        assert krein(principal_solution(tm4(2))).verdict == "Finite"

    @pytest.mark.parametrize("text", ["tm3:r=1", "tm4:r=1",
                                      "gamma:2.02n+1,0.5n+0.7"])
    def test_interpolated_tail_finite(self, text):
        # A = 3, 4 and 2.52 > 2: a finite main term plus the remainder
        import gammamoments.criteria as crit

        seq = parse_descriptor(text)
        res = krein(principal_solution(seq))
        assert res.verdict == "Finite"
        assert math.isfinite(res.integral_estimate)
        assert res.integral_estimate > 0.0
        assert res.growth_exponent == pytest.approx(
            2.0 / seq.sum_a, abs=crit._KREIN_FIT_TOL)

    @pytest.mark.parametrize("text", [
        "gamma:0.7n+1,0.6n+1,0.7n+1", "gamma:0.001n+1", "tm3:r=2", "tm4:r=2",
        "gamma:2.02n+1,0.5n+0.7", "gamma:2n+1,n+1", "tm3:r=1", "tm4:r=1",
        *_LARGE_B])
    def test_growth_exponent_within_5e_3_of_two_over_a(self, text):
        # the slope of ln(d/du[-ln W(e^{2u})] + 2b) cancels the tail law's
        # constant and its -2bu term, which a straight fit of ln(-ln W)
        # carried as a bias of 0.02-0.2 on these sequences; the large-b
        # products have W >= 1 in the window, where a guard once left NaN
        seq = parse_descriptor(text)
        res = krein(principal_solution(seq))
        assert abs(res.growth_exponent - 2.0 / seq.sum_a) <= 5e-3

    @pytest.mark.parametrize("text", ["gamma:2/3n+1,4/3n+1",
                                      "gamma:1.1n+1,0.9n+1"])
    def test_sum_a_two_infinite(self, text):
        res = krein(principal_solution(parse_descriptor(text)))
        assert (res.verdict, res.integral_estimate) == ("Infinite", math.inf)

    def test_float_critical_exponent_finite(self):
        # the float multiplier reads 2.0 while the typed A exceeds 2: the
        # tail law's 1 - 2/A comes from the exact A, not from 1 - 2p = 0
        res = krein(principal_solution(
            parse_descriptor("gamma:2.0000000000000001n+1")))
        assert res.verdict == "Finite"
        assert math.isfinite(res.integral_estimate)

    @pytest.mark.parametrize("text,verdict", [
        ("gamma:2.5n+0.7", "Finite"), ("gamma:3n+2", "Finite"),
        ("gamma:2.02n+0.5", "Finite"), ("gamma:0.5n+1", "Infinite"),
        ("gamma:0.1n+1", "Infinite"), ("gamma:0.4n+1", "Infinite"),
        ("gamma:0.45n+1", "Infinite"), ("gamma:0.4n+2", "Infinite")])
    def test_single_factor_decided(self, text, verdict):
        # one factor Gamma(an + b) has a closed form for every b, so its
        # tail law is certified: beta = 2/a decides C2.  For small a the
        # fit window narrows with the steep tail law, which kept it where
        # W < 1 (0.1n+1, 0.4n+2) and its exponent near 2/a (0.4n+1, 0.45n+1)
        w = principal_solution(parse_descriptor(text))
        assert krein(w).verdict == verdict

    def test_offset_leaves_estimate_unchanged(self):
        # -ln W(x^2) = x^{2/a} - 2((b - a)/a) ln x + ln a, and
        # int_0^inf ln x/(1 + x^2) dx = 0, so the integral is free of b
        half, one = (krein(principal_solution(parse_descriptor(text)))
                     for text in ("gamma:2.02n+0.5", "gamma:2.02n+1"))
        assert half.integral_estimate == pytest.approx(
            one.integral_estimate, rel=1e-15, abs=0)

    @pytest.mark.parametrize("make", [tm1, tm2],
                             ids=["weight_tm1", "weight_tm2"])
    def test_infinite_verdict_skips_quadrature(self, make, monkeypatch):
        import gammamoments.criteria as crit

        def no_quad(*args, **kwargs):
            raise AssertionError("quadrature on a certified divergent tail")
        monkeypatch.setattr(crit, "_nested_grids", no_quad)
        w = principal_solution(make(1))
        calls = []

        def counted(log_x):
            calls.append(np.size(log_x))
            return w.log_density(log_x)
        res = krein(dataclasses.replace(w, log_density=counted))
        assert res.verdict == "Infinite"
        assert res.integral_estimate == math.inf
        assert calls == [48]  # the tail fit only

    # int_0^inf -ln W(x^2)/(1+x^2) dx.  W1(a, b): -ln W1(x^2) = x^{2/a}
    # + 2(1 - b/a) ln x + ln a, and int_0^inf x^c/(1+x^2) dx =
    # (pi/2)/cos(pi c/2), so the integral is (pi/2)(1/cos(pi/a) + ln a),
    # taken at 30 digits for the binary a (in doubles, cos(pi/2.02) alone
    # is 8e-15 off).  W2: mpmath.quad at 30 digits with mpmath.besselk,
    # breakpoints 1e-6, 1e-3, 0.1, 1, 10, 100, 1e3, 1e4, 1e6.
    @pytest.mark.parametrize("seq,want", [
        (tm1(2), _krein_w1(4)),
        (tm1(20), _krein_w1(40)),
        (gamma_product([(2.02, 1.0)]), _krein_w1(2.02)),
        (gamma_product([(3.0, 0.5)]), _krein_w1(3)),
        (tm2(2), 4.7295081870556520),
        (tm2(3), 4.5424150106142334),
    ], ids=["W1(2)", "W1(20)", "W1(2.02)", "W1(3, 0.5)", "W2(2)", "W2(3)"])
    def test_finite_estimate_matches_exact_value(self, seq, want):
        res = krein(principal_solution(seq))
        assert res.verdict == "Finite"
        assert res.integral_estimate == pytest.approx(want, rel=1e-14, abs=0)

    # main term plus the remainder summed by the trapezoid rule at
    # h = 1/8 on u = ln x in [-40, 19.5], where its integrand is below 2e-14
    # (h = 1/4 gives the same double); -ln W from meijer_log_density up to
    # ln x = 14 (tm3:r=1) and 20 (tm4:r=1), from the direct engine beyond
    @pytest.mark.parametrize("text,want", [
        ("tm3:r=1", 7.607979335831571), ("tm4:r=1", 5.1436318407741055)])
    def test_interpolated_estimate_matches_reference(self, text, want):
        res = krein(principal_solution(parse_descriptor(text)))
        assert res.integral_estimate == pytest.approx(want, rel=1e-10, abs=0)


class TestNumpyFreeRules:
    """The criteria's own least-squares slope, held to NumPy's
    LAPACK-backed polyfit as a reference."""

    def test_slope_matches_polyfit(self):
        import gammamoments.criteria as crit

        rng = np.random.default_rng(7)
        x = np.sort(rng.uniform(-3.0, 40.0, 48))
        y = 0.66 * x + np.log1p(x * x) + rng.normal(0.0, 0.1, 48)
        assert crit._slope(x, y) == pytest.approx(
            float(np.polyfit(x, y, 1)[0]), rel=1e-12)


class TestConverseCarleman:
    def test_requires_convergent_first_criterion(self, monkeypatch):
        # A = 2: the Carleman sum diverges, so C3 cannot fire; the verdict
        # comes from A before the tail is sampled
        import gammamoments.criteria as crit

        def no_scan(w):
            raise AssertionError("convexity check with a divergent sum")
        monkeypatch.setattr(crit, "_tail_sample", no_scan)
        res = converse_carleman(tm1(1), principal_solution(tm1(1)))
        assert res.verdict == "Inconclusive"
        assert math.isnan(res.convexity_margin) and math.isnan(res.y_prime)

    @pytest.mark.parametrize("r", [2, 3])
    def test_nonunique_for_fast_growth(self, r):
        res = converse_carleman(tm1(r), principal_solution(tm1(r)))
        assert res.verdict == "NonUnique"
        assert res.convexity_margin > 0.0

    @pytest.mark.parametrize("seq", [tm2(2), tm3(2)],
                             ids=["tm2(2)", "tm3(2)"])
    def test_cross_check_reads_the_tail_sample(self, seq):
        # a 2,001-point scan from y = -10 once reported y' = -9.96 here,
        # its grid's first interior point, below the sampled tail
        import gammamoments.criteria as crit

        w = principal_solution(seq)
        calls = []

        def counted(log_x):
            calls.append(np.size(log_x))
            return w.log_density(log_x)
        res = converse_carleman(seq, dataclasses.replace(
            w, log_density=counted))
        assert sum(calls) <= 48
        y = 2.0 * crit._tail_sample(w)[0]
        assert res.convexity_margin > 0.0
        assert 0.0 < y[0] < res.y_prime < y[-1]

    def test_no_inconclusive_error(self):
        # C3 follows A, so no error class reports an undecided C3
        import gammamoments

        names = [n for n in dir(gammamoments) if n.startswith("Inconclusive")]
        assert names == []


class TestFullReport:
    @pytest.mark.parametrize("seq,overall", [
        (tm1(1), "Unique"), (tm2(1), "Unique"),
        (tm1(2), "NonUnique"), (tm1(3), "NonUnique"),
        (tm2(2), "NonUnique"), (tm2(3), "NonUnique"),
        (tm3(2), "NonUnique"), (tm4(2), "NonUnique"),
    ])
    def test_overall_verdicts(self, seq, overall):
        report = full_report(seq, principal_solution(seq))
        assert report.overall == overall

    def test_refuses_mismatched_pair(self):
        with pytest.raises(RefusesError):
            full_report(tm1(2), principal_solution(tm1(1)))

    def test_refuses_where_a_moment_check_fails(self):
        # W (1 + 1e-5) misses every moment by 1e-5: MomentCheckResult.passed
        # is False, so the report refuses it (a 1e-4 gate of its own once
        # let it through)
        seq = tm2(2)
        w = principal_solution(seq)
        scaled = dataclasses.replace(
            w, log_density=lambda log_x: w.log_density(log_x)
            + math.log1p(1e-5))
        for n in range(7):
            res = check_moment(scaled, seq, n)
            assert res.rel_error == pytest.approx(1e-5, rel=1e-6)
            assert not res.passed
        with pytest.raises(RefusesError, match="n=0"):
            full_report(seq, scaled)

    @pytest.mark.parametrize("text,want", [("tm2:r=2", 3896),
                                           ("gamma:2.02n+1", 3768)])
    def test_tail_sample_evaluated_once(self, text, want):
        # krein and converse_carleman read one 48-point tail sample; each
        # once took its own, 48 evaluations more per report
        seq = parse_descriptor(text)
        w = principal_solution(seq)
        sizes = []

        def counted(log_x):
            sizes.append(np.size(log_x))
            return w.log_density(log_x)
        full_report(seq, dataclasses.replace(w, log_density=counted))
        assert sizes.count(48) == 1
        assert sum(sizes) == want

    @pytest.mark.parametrize("text", ["gamma:0.026n+10.73",
                                      "gamma:0.05n+20,0.05n+0.05"])
    def test_slow_carleman_decay_adds_no_note(self, text):
        # at small A and large b the fit over n = 100..200 is far from its
        # limit -A/2 (0.0491 against -0.0130 for the first); a note once
        # read that as log-moments off their gamma product, though these
        # are exact
        seq = parse_descriptor(text)
        report = full_report(seq, principal_solution(seq))
        assert not any("decay exponent" in n for n in report.notes)

    def test_report_serializable(self):
        report = full_report(tm1(2), principal_solution(tm1(2)))
        payload = report.to_dict()
        back = json.loads(json.dumps(payload))
        assert back["overall"] == "NonUnique"
        assert back["c1"]["verdict"] == "Convergent"
        assert back["c2"] == payload["c2"]
        assert back["c3"] == payload["c3"]

    def test_indeterminate_gamma_product_not_unique(self):
        seq = parse_descriptor("gamma:2.02n+1")
        report = full_report(seq, principal_solution(seq))
        assert report.c1.verdict == "Convergent"
        assert report.overall != "Unique"

    @pytest.mark.parametrize("gamma,named", [
        ("gamma:4n+1", "tm1:r=2"), ("gamma:2n+1,2n+1", "tm2:r=2"),
        ("gamma:n+1,n+1,n+1", "tm3:r=1"), ("gamma:2n+1,n+1,n+1", "tm4:r=1"),
    ])
    def test_gamma_descriptor_reports_as_named_kind(self, gamma, named):
        # the family is read off the factor list: the same moment problem
        # gets the same density, verdicts and notes however it is spelled
        reports = [full_report(seq, principal_solution(seq))
                   for seq in map(parse_descriptor, (gamma, named))]
        assert reports[0].to_dict() == reports[1].to_dict()
        if named[:3] in ("tm1", "tm2"):
            assert reports[0].c2.verdict == "Finite"

    def test_fit_window_above_one_leaves_c2_undecided(self):
        # an interpolated tail with A = 0.6: d/du[-ln W(e^{2u})] + 2b is
        # not positive in the fit window, which leaves a NaN exponent and
        # a note; A decides C2
        seq = parse_descriptor("gamma:0.3n+1,0.3n+1")
        report = full_report(seq, principal_solution(seq))
        assert report.c1.verdict == "Divergent"
        assert report.c2.verdict == "Infinite"
        assert math.isnan(report.c2.growth_exponent)
        assert any("fitting window" in note for note in report.notes)
        assert report.overall == "Unique"

    def test_krein_fit_off_two_over_a_adds_note(self):
        # W1(4) with e^{2(ln x - 60)} added to -ln W past ln x = 60: the
        # fit window (ln x in [65.7, 73.7]) sees a steeper law than 2/A
        # = 1/2, and the fit is noted; the moments and verdicts are W1's
        seq = tm1(2)
        w = principal_solution(seq)

        def steep_tail(log_x):
            extra = np.expm1(2.0 * np.maximum(np.asarray(log_x) - 60.0, 0.0))
            return w.log_density(log_x) - extra
        report = full_report(seq, dataclasses.replace(
            w, log_density=steep_tail))
        assert (report.c2.verdict, report.overall) == ("Finite", "NonUnique")
        assert report.c2.growth_exponent > 0.55
        assert any("Krein growth exponent" in n and "2/A = 0.5000" in n
                   for n in report.notes)

    @pytest.mark.parametrize("text", ["gamma:0.7n+1,0.6n+1,0.7n+1",
                                      "gamma:0.001n+1"])
    def test_krein_fit_on_the_tail_law_adds_no_note(self, text):
        # a straight fit of ln(-ln W) once read 1.0637 (A = 2) and 2000.197
        # (A = 0.001) here and noted a disagreement with 2/A; the verdicts
        # follow A either way
        seq = parse_descriptor(text)
        report = full_report(seq, principal_solution(seq))
        assert (report.c2.verdict, report.overall) == ("Infinite", "Unique")
        assert not any("Krein" in n for n in report.notes)

    @pytest.mark.parametrize("text", _LARGE_B)
    def test_large_b_fit_adds_no_window_note(self, text):
        # W >= 1 in the fit window once gave a NaN exponent and the note
        # "density exceeds 1 in the fitting window"
        seq = parse_descriptor(text)
        report = full_report(seq, principal_solution(seq))
        assert math.isfinite(report.c2.growth_exponent)
        assert not any("fitting window" in n for n in report.notes)

    def test_spline_reports_note_extrapolation(self):
        report = full_report(tm3(3), principal_solution(tm3(3)))
        assert any("extrapolat" in note for note in report.notes)
        assert report.c2.verdict == "Finite"
        assert not any("builds no perturbation" in n for n in report.notes)

    @pytest.mark.parametrize("text,noted", [
        pytest.param(text, noted, id=text) for text, noted in [
            ("tm4:r=2", True), ("tm3:r=3", True),
            ("gamma:0.3n+1,0.3n+1", False), ("tm3:r=2", False),
            ("tm4:r=1", False)]])
    def test_extrapolation_note_only_where_class_builds(self, text, noted):
        # the note speaks of this density's perturbation family, so it
        # needs one: a NonUnique verdict and a star factor a* > 2 (k = 1).
        # tm4:r=2 and gamma:0.3n+1,0.3n+1 once got "class builds no
        # perturbation for this factor list"; tm3:r=2 once got this note
        seq = parse_descriptor(text)
        report = full_report(seq, principal_solution(seq))
        assert not any("builds no perturbation" in n for n in report.notes)
        assert any("extrapolat" in note for note in report.notes) == noted

    @pytest.mark.parametrize("seq,overall", [(tm1(2), "NonUnique"),
                                             (tm3(2), "NonUnique")])
    def test_inconclusive_converse_carleman(self, seq, overall):
        # a narrow bump added to -ln W(e^y) in the middle of the tail
        # sample makes psi concave there: the cross-check fails, yet
        # C3 and the overall verdict follow A (> 2)
        import gammamoments.criteria as crit

        w = principal_solution(seq)
        y = 2.0 * crit._tail_sample(w)[0]
        y_bump, width = 0.5 * (y[0] + y[-1]), 0.25

        def concave_tail(log_x):
            bump = np.exp(-0.5 * ((np.asarray(log_x) - y_bump) / width) ** 2)
            return w.log_density(log_x) - 1e12 * bump
        report = crit.full_report(
            seq, dataclasses.replace(w, log_density=concave_tail))
        assert report.c3.verdict == "NonUnique"
        assert math.isnan(report.c3.y_prime)
        assert math.isnan(report.c3.convexity_margin)
        assert any("convexity cross-check" in n for n in report.notes)
        assert report.overall == overall
