"""Uniqueness criteria: growth-rate test, tail-integral test, and the
log-convexity converse, plus the combined report."""

import dataclasses
import json
import math

import numpy as np
import pytest

from gammamoments import (ConsistencyError, ConstraintError,
                          InconclusiveError, RefusesError, UndecidedError,
                          carleman, converse_carleman, full_report,
                          gamma_product, krein, parse_descriptor,
                          principal_solution, tm1, tm2, tm3, tm4)


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
        consistent = crit.full_report(seq, principal_solution(seq))
        assert not any("decay exponent" in n for n in consistent.notes)
        true_log_moment = crit.log_moment
        monkeypatch.setattr(crit, "log_moment",
                            lambda s, n: 1.5 * true_log_moment(s, n))
        report = crit.full_report(seq, principal_solution(seq))
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
        assert krein(principal_solution(tm3(2))).verdict == "Undecided"
        assert krein(principal_solution(tm4(2))).verdict == "Undecided"

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
            one.integral_estimate, rel=0, abs=1e-9)

    @pytest.mark.parametrize("make", [tm1, tm2],
                             ids=["weight_tm1", "weight_tm2"])
    def test_infinite_verdict_skips_quadrature(self, make, monkeypatch):
        import gammamoments.criteria as crit

        def no_quad(*args, **kwargs):
            raise AssertionError("quadrature on a certified divergent tail")
        monkeypatch.setattr(crit, "_krein_body", no_quad)
        w = principal_solution(make(1))
        calls = []

        def counted(log_x):
            calls.append(np.size(log_x))
            return w.log_density(log_x)
        res = krein(dataclasses.replace(w, log_density=counted))
        assert res.verdict == "Infinite"
        assert res.integral_estimate == math.inf
        assert calls == [48]  # the tail fit only

    # int_0^inf -ln W(x^2)/(1+x^2) dx.  W1(q): -ln W1(q, x^2) = x^{2/q}
    # + 2(1 - 1/q) ln x + ln q, and int_0^inf x^a/(1+x^2) dx =
    # (pi/2)/cos(pi a/2), so the integral is (pi/2)(1/cos(pi/q) + ln q).
    # W2: mpmath.quad at 20 digits with mpmath.besselk, breakpoints 1e-6,
    # 1e-3, 0.1, 1, 10, 100, 1e3, 1e4, 1e6.  The tail past X = 1e4 once
    # kept only g X^{beta-1}/(1-beta), which left W1(2) low by 1.67e-3.
    @pytest.mark.parametrize("seq,want,rel", [
        (tm1(2), math.pi / 2 * (1 / math.cos(math.pi / 4) + math.log(4)),
         1e-9),
        (tm1(20), math.pi / 2 * (1 / math.cos(math.pi / 40) + math.log(40)),
         1e-9),
        (gamma_product([(2.02, 1.0)]),
         math.pi / 2 * (1 / math.cos(math.pi / 2.02) + math.log(2.02)), 1e-9),
        (tm2(2), 4.729508187052865, 1e-7),
        (tm2(3), 4.542415010614233, 1e-7),
    ], ids=["W1(2)", "W1(20)", "W1(2.02)", "W2(2)", "W2(3)"])
    def test_finite_estimate_matches_exact_value(self, seq, want, rel):
        res = krein(principal_solution(seq))
        assert res.verdict == "Finite"
        assert res.integral_estimate == pytest.approx(want, rel=rel)


class TestConverseCarleman:
    def test_requires_convergent_first_criterion(self):
        with pytest.raises(ConstraintError):
            converse_carleman(tm1(1), principal_solution(tm1(1)))

    @pytest.mark.parametrize("r", [2, 3])
    def test_nonunique_for_fast_growth(self, r):
        res = converse_carleman(tm1(r), principal_solution(tm1(r)))
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
            full_report(tm1(2), principal_solution(tm1(1)))

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

    def test_undecided_carleman_serialized(self, monkeypatch):
        import gammamoments.criteria as crit

        def undecided(seq, n_max=200):
            raise UndecidedError("forced for the serialization test")
        monkeypatch.setattr(crit, "carleman", undecided)
        seq = tm1(2)
        payload = crit.full_report(seq, principal_solution(seq)).to_dict()
        assert payload["c1"]["verdict"] == "Undecided"
        assert payload["overall"] == "Undecided"
        assert payload["c3"]["verdict"] == "Inconclusive"

    def test_fit_window_above_one_leaves_c2_undecided(self):
        # an interpolated tail with A = 0.6: the Krein fit window meets
        # W >= 1, which makes C2 Undecided with a note, while C1 decides
        seq = parse_descriptor("gamma:0.3n+1,0.3n+1")
        report = full_report(seq, principal_solution(seq))
        assert report.c1.verdict == "Divergent"
        assert report.c2.verdict == "Undecided"
        assert math.isnan(report.c2.growth_exponent)
        assert any("fitting window" in note for note in report.notes)
        assert report.overall == "Unique"

    def test_spline_reports_note_extrapolation(self):
        report = full_report(tm3(2), principal_solution(tm3(2)))
        assert any("extrapolat" in note for note in report.notes)
        assert report.c2.verdict == "Undecided"
        assert not any("builds no perturbation" in n for n in report.notes)

    @pytest.mark.parametrize("text", ["tm4:r=2", "gamma:0.3n+1,0.3n+1"])
    def test_no_family_notes_no_perturbation(self, text):
        # these once got the third family's note, that their perturbation
        # family extrapolates the closed-form construction
        seq = parse_descriptor(text)
        report = full_report(seq, principal_solution(seq))
        assert "class builds no perturbation for this factor list" in \
            report.notes
        assert not any("extrapolat" in note for note in report.notes)

    @pytest.mark.parametrize("seq,overall", [(tm1(2), "NonUnique"),
                                             (tm3(2), "Undecided")])
    def test_inconclusive_converse_carleman(self, seq, overall, monkeypatch):
        # C3 falls back to Inconclusive with a note; the overall verdict
        # then rests on C2 (Finite for tm1, Undecided for tm3)
        import gammamoments.criteria as crit

        def inconclusive(seq, w, c1=None):
            raise InconclusiveError("forced for the fallback test")
        monkeypatch.setattr(crit, "converse_carleman", inconclusive)
        report = crit.full_report(seq, principal_solution(seq))
        assert "forced for the fallback test" in report.notes
        assert report.c3.verdict == "Inconclusive"
        assert report.overall == overall

    def test_consistency_guard(self, monkeypatch):
        # a divergent growth test together with a finite tail integral is
        # contradictory; force the clash by faking the tail-integral result
        import gammamoments.criteria as crit
        fake = crit.KreinResult("Finite", 1.0, 0.5)
        monkeypatch.setattr(crit, "krein", lambda w: fake)
        with pytest.raises(ConsistencyError):
            crit.full_report(tm1(1), principal_solution(tm1(1)))
