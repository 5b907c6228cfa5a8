"""Uniqueness criteria: growth-rate test, tail-integral test, and the
log-convexity converse, plus the combined report."""

import dataclasses
import json
import math

import numpy as np
import pytest

from gammamoments import (ConsistencyError, ConstraintError, RefusesError,
                          UndecidedError, carleman, converse_carleman,
                          full_report, gamma_product, krein,
                          parse_descriptor, principal_solution, tm1, tm2,
                          tm3, tm4, weight_tm1, weight_tm2, weight_w1)


class TestCarleman:
    def test_divergent_for_factorial_growth(self):
        res = carleman(tm1(1))
        assert res.verdict == "Divergent"

    def test_divergent_for_double_gamma_r1(self):
        assert carleman(tm2(1)).verdict == "Divergent"

    @pytest.mark.parametrize("seq", [tm1(2), tm1(3), tm2(2), tm2(3)])
    def test_convergent_for_fast_growth(self, seq):
        assert carleman(seq).verdict == "Convergent"

    def test_limit_ratio_near_e_over_two(self):
        # for (2n)! the scaled roots n * a_n approach e/2
        res = carleman(tm1(1), n_max=400)
        assert res.n_a_n_limit == pytest.approx(2.718281828 / 2.0, rel=0.02)

    def test_terms_monotone_decreasing_when_convergent(self):
        res = carleman(tm1(2))
        values = [a for _, a in res.terms]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_rejects_short_runs(self):
        with pytest.raises(ConstraintError):
            carleman(tm1(2), n_max=30)

    def test_verdict_from_sum_a_near_critical(self):
        # A = 2.02: a_n ~ n^{-1.01}, but the fitted slope (-0.9986) sits on
        # the divergent side of -1; the verdict must follow A exactly
        res = carleman(parse_descriptor("gamma:2.02n+1"))
        assert res.verdict == "Convergent"
        assert res.fitted_decay_exponent == pytest.approx(-1.0, abs=0.05)
        assert carleman(parse_descriptor("gamma:1.98n+1")).verdict == "Divergent"

    def test_inconsistent_fit_adds_note(self, monkeypatch):
        # log-moments growing 1.5 times too fast fit a decay exponent of
        # about -1.5 A/2; the verdict still follows A
        import gammamoments.criteria as crit

        seq = tm1(2)
        consistent = crit.full_report(seq, weight_tm1(2))
        assert not any("decay exponent" in n for n in consistent.notes)
        true_log_moment = crit.log_moment
        monkeypatch.setattr(crit, "log_moment",
                            lambda s, n: 1.5 * true_log_moment(s, n))
        report = crit.full_report(seq, weight_tm1(2))
        assert report.c1.verdict == consistent.c1.verdict == "Convergent"
        assert report.overall == consistent.overall
        assert any("decay exponent" in n and "-A/2 = -2.0000" in n
                   for n in report.notes)

    @pytest.mark.parametrize("seq", [tm1(1), tm2(1), tm2(3), tm3(2), tm4(2),
                                     parse_descriptor("gamma:2.02n+1"),
                                     parse_descriptor("gamma:0.5n+30")])
    def test_consistent_fit_adds_no_note(self, seq):
        import gammamoments.criteria as crit

        for n_max in (50, 200, 400):
            c1 = carleman(seq, n_max=n_max)
            assert (abs(c1.fitted_decay_exponent + seq.sum_a / 2.0)
                    <= crit._decay_tolerance(seq, n_max // 2))

    def test_sum_a_at_two_within_rounding_undecided(self):
        seq = gamma_product([(0.7, 1.0), (0.6, 1.0), (0.7, 1.0)])
        assert seq.sum_a != 2.0 and seq.sum_a == pytest.approx(2.0)
        with pytest.raises(UndecidedError):
            carleman(seq)


class TestKrein:
    @pytest.mark.parametrize("seq,factory,verdict", [
        (tm1(1), weight_tm1, "Infinite"),
        (tm2(1), weight_tm2, "Infinite"),
        (tm1(2), weight_tm1, "Finite"),
        (tm2(3), weight_tm2, "Finite"),
    ])
    def test_closed_form_verdicts(self, seq, factory, verdict):
        assert krein(factory(seq.r)).verdict == verdict

    @pytest.mark.parametrize("q", [2.0, 4.0, 6.0, 8.0])
    def test_fitted_tail_exponent(self, q):
        # -ln W1(q, x) ~ x^{1/q} so the logarithm-squared integrand decays
        # like x^{2/q}; the fitted exponent must recover it
        res = krein(weight_w1(q))
        assert res.growth_exponent == pytest.approx(2.0 / q, abs=0.02)

    def test_spline_backed_weights_undecided(self):
        assert krein(principal_solution(tm3(2))).verdict == "Undecided"
        assert krein(principal_solution(tm4(2))).verdict == "Undecided"

    @pytest.mark.parametrize("factory", [weight_tm1, weight_tm2])
    def test_infinite_verdict_skips_quadrature(self, factory, monkeypatch):
        import gammamoments.criteria as crit

        def no_quad(*args, **kwargs):
            raise AssertionError("quadrature on a certified divergent tail")
        monkeypatch.setattr(crit, "_krein_body", no_quad)
        w = factory(1)
        calls = []

        def counted(log_x):
            calls.append(np.size(log_x))
            return w.log_density(log_x)
        res = krein(dataclasses.replace(w, log_density=counted))
        assert res.verdict == "Infinite"
        assert res.integral_estimate == math.inf
        assert calls == [48]  # the tail fit only

    # int_0^{1e4} -ln W(x^2)/(1+x^2) dx, frozen from mpmath.quad at 30
    # digits with breakpoints 1e-6, 1e-3, 0.1, 1, 10, 100, 1000 (W2 through
    # mpmath.besselk)
    KREIN_BODY = {"W1(2)": 4.3773573789361107723,
                  "W2(3)": 4.5343673151807016412}

    @pytest.mark.parametrize("w,parent", [(weight_tm1(2), 4.397357390267509),
                                          (weight_tm2(3), 4.540830624289193)])
    def test_finite_estimate_unchanged(self, w, parent):
        # parent: the estimate of the former scipy.integrate.quad body; the
        # estimate may move only toward the mpmath body plus the same
        # analytic tail C X^{beta-1}/(1-beta), C fitted at the top of the
        # evaluable range
        import gammamoments.criteria as crit

        res = krein(w)
        assert res.verdict == "Finite"
        beta = 2.0 * w.growth[1]
        u_top = crit._tail_limit(w)
        c_coef = (float(-w.log_density(np.float64(2.0 * u_top)))
                  * math.exp(-beta * u_top))
        tail = c_coef * 1e4 ** (beta - 1.0) / (1.0 - beta)
        want = self.KREIN_BODY[w.name] + tail
        assert abs(res.integral_estimate - want) <= abs(parent - want)
        assert res.integral_estimate == pytest.approx(want, rel=1e-14)


class TestConverseCarleman:
    def test_requires_convergent_first_criterion(self):
        with pytest.raises(ConstraintError):
            converse_carleman(tm1(1), weight_tm1(1))

    @pytest.mark.parametrize("r", [2, 3])
    def test_nonunique_for_fast_growth(self, r):
        res = converse_carleman(tm1(r), weight_tm1(r))
        assert res.verdict == "NonUnique"
        assert res.convexity_margin > 0.0


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
            full_report(tm1(2), weight_tm1(1))

    def test_report_serializable(self):
        report = full_report(tm1(2), weight_tm1(2))
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
    ])
    def test_gamma_descriptor_reports_as_named_kind(self, gamma, named):
        # the closed form is read off the factor list: the same moment
        # problem gets the same certified tail, so the same verdicts
        reports = [full_report(seq, principal_solution(seq))
                   for seq in map(parse_descriptor, (gamma, named))]
        assert reports[0].to_dict() == reports[1].to_dict()
        assert reports[0].c2.verdict == "Finite"

    def test_undecided_carleman_serialized(self, monkeypatch):
        import gammamoments.criteria as crit

        def undecided(seq, n_max=200):
            raise UndecidedError("forced for the serialization test")
        monkeypatch.setattr(crit, "carleman", undecided)
        payload = crit.full_report(tm1(2), weight_tm1(2)).to_dict()
        assert payload["c1"]["verdict"] == "Undecided"
        assert payload["overall"] == "Undecided"
        assert payload["c3"]["verdict"] == "Inconclusive"

    def test_spline_reports_note_extrapolation(self):
        report = full_report(tm3(2), principal_solution(tm3(2)))
        assert any("extrapolat" in note for note in report.notes)
        assert report.c2.verdict == "Undecided"

    def test_consistency_guard(self, monkeypatch):
        # a divergent growth test together with a finite tail integral is
        # contradictory; force the clash by faking the tail-integral result
        import gammamoments.criteria as crit
        fake = crit.KreinResult("Finite", 1.0, 0.5)
        monkeypatch.setattr(crit, "krein", lambda w: fake)
        with pytest.raises(ConsistencyError):
            crit.full_report(tm1(1), weight_tm1(1))
