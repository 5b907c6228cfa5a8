"""End-to-end acceptance suite.

Each numbered test prints one pass/fail line summarizing a deliverable-level
requirement; together they exercise every layer of the package at its
advertised tolerances.
"""

import math

import numpy as np
import pytest
import scipy.special

from gammamoments import (WeightFunction, carleman, check_moment,
                          check_vanishing, class_member, contour_log_density,
                          full_report, omega2, omega2_via_convolution,
                          parse_descriptor, perturbation_tm1,
                          perturbation_tm2, perturbation_tm3,
                          principal_solution, tm1, tm2, tm3, tm4, w4)
from oracles import meijer_log_density


def _report(label, worst, tol, passed):
    status = "PASS" if passed else "FAIL"
    print(f"\n[{status}] {label}: worst {worst:.3e} (tolerance {tol:.0e})")


def test_01_closed_form_moment_reproduction():
    """TM1/TM2, r in {1,2,3}, n = 0..8: relative error <= 1e-6."""
    worst = 0.0
    for seq_of in (tm1, tm2):
        for r in (1, 2, 3):
            seq = seq_of(r)
            w = principal_solution(seq)
            for n in range(9):
                worst = max(worst, check_moment(w, seq, n).rel_error)
    ok = worst <= 1e-6
    _report("closed-form moment reproduction (TM1/TM2, r<=3, n<=8)",
            worst, 1e-6, ok)
    assert ok


def test_02_quadrature_family_moment_reproduction():
    """TM3/TM4, r in {1,2}, n = 0..5: relative error <= 1e-5."""
    worst = 0.0
    for seq_of in (tm3, tm4):
        for r in (1, 2):
            seq = seq_of(r)
            w = principal_solution(seq)
            for n in range(6):
                worst = max(worst, check_moment(w, seq, n).rel_error)
    ok = worst <= 1e-5
    _report("contour-density moment reproduction (TM3/TM4, r<=2, n<=5)",
            worst, 1e-5, ok)
    assert ok


def test_03_vanishing_moments():
    """All perturbation families integrate against x^n to ~zero, n = 0..8."""
    cases = [
        (perturbation_tm1(2, 1), 1e-6),
        (perturbation_tm1(3, 2), 1e-6),
        (perturbation_tm2(3, 1), 1e-6),
        (perturbation_tm2(5, 2), 1e-6),
        (perturbation_tm3(3, 1), 1e-5),
    ]
    ok = True
    worst = 0.0
    for pert, tol in cases:
        fam_worst = max(check_vanishing(pert, pert.seq, n).rel_error
                        for n in range(9))
        worst = max(worst, fam_worst)
        ok = ok and fam_worst <= tol
    _report("vanishing moments (omega1/omega2/omega3, n<=8)", worst, 1e-5, ok)
    assert ok


def test_04_closed_form_vs_convolution_perturbation():
    """omega2 closed form vs its Mellin-convolution construction <= 1e-5."""
    worst = 0.0
    for r, k in ((3, 1), (5, 1)):
        for x in (0.5, 1.0, 5.0):
            a = omega2(r, k, x)
            b = float(omega2_via_convolution(r, k, np.array([x]))[0])
            worst = max(worst, abs(b - a) / abs(a))
    ok = worst <= 1e-5
    _report("omega2 closed form vs convolution route", worst, 1e-5, ok)
    assert ok


def test_05_nonuniqueness_demonstration():
    """Two distinct nonnegative densities sharing the (4n)! moments."""
    seq, k = tm1(2), 1
    xs = np.logspace(-8, 5, 4000)
    members = {}
    for eps in (0.5, -0.5):
        vals = class_member(seq, k, eps, xs)
        assert np.all(vals >= 0.0)
        members[eps] = vals
    gap = float(np.max(np.abs(members[0.5] - members[-0.5])))
    assert gap >= 1e-3

    def log_member(x, e):
        # the member touches zero where the sine factor vanishes at
        # amplitude 1; -inf is the correct logarithm there
        with np.errstate(divide="ignore"):
            return np.log(class_member(seq, k, e, x))

    worst = 0.0
    for eps in (0.5, -0.5):
        member = WeightFunction(
            seq=seq,
            log_density=lambda log_x, e=eps: log_member(np.exp(log_x), e),
            tail_certified=True)
        for n in range(9):
            worst = max(worst, check_moment(member, seq, n).rel_error)
    ok = worst <= 1e-6
    _report("non-uniqueness demo: eps=+/-0.5 members reproduce (4n)!",
            worst, 1e-6, ok)
    assert ok


def test_06_criteria_table():
    """The abstract's verdicts: tm1 and tm2 are unique at r = 1 only, and
    tm3, tm4 and [(rn)!]^4 are non-unique at every r."""
    rows = [(seq_of(r), "Unique" if seq_of in (tm1, tm2) and r == 1
             else "NonUnique")
            for seq_of in (tm1, tm2, tm3, tm4) for r in range(1, 7)]
    rows += [(parse_descriptor(f"gamma:{r}n+1,{r}n+1,{r}n+1,{r}n+1"),
              "NonUnique") for r in (1, 2, 3)]
    parts = {
        "tm1:r=1": {"c1": "Divergent"},
        "tm2:r=1": {"c1": "Divergent"},
        "tm1:r=2": {"c2": "Finite", "c3": "NonUnique"},
        "tm2:r=2": {"c2": "Finite", "c3": "NonUnique"},
        "tm3:r=2": {"c2": "Undecided", "c3": "NonUnique"},
        "tm4:r=2": {"c2": "Undecided", "c3": "NonUnique"},
    }
    wrong = []
    for seq, overall in rows:
        report = full_report(seq, principal_solution(seq))
        want = parts.get(seq.descriptor(), {})
        got = {key: getattr(report, key).verdict for key in want}
        if report.overall != overall or got != want:
            wrong.append((seq.descriptor(), report.overall, got))
    ok = not wrong

    # scaled Carleman terms n * a_n for (2n)! approach e/2
    limit = carleman(tm1(1), n_max=400).n_a_n_limit
    ratio_err = abs(limit - math.e / 2.0) / (math.e / 2.0)
    ok = ok and ratio_err <= 0.02
    _report("criteria table verdicts + n*a_n -> e/2", ratio_err, 2e-2, ok)
    assert ok, wrong


def test_07_oracle_equivalences():
    """Independent routes to the same numbers agree at stated tolerances."""
    # inverse Mellin of Gamma(s)^2 (moments (n!)^2) against 2 K0(2 sqrt(x))
    seq = parse_descriptor("gamma:n+1,n+1")
    worst_a = 0.0
    for x in (0.25, 1.0, 4.0, 9.0):
        got = math.exp(contour_log_density(seq, x)[0])
        want = 2.0 * scipy.special.k0(2.0 * math.sqrt(x))
        worst_a = max(worst_a, abs(got - want) / want)

    # contour path vs mpmath's Meijer G for the triple-gamma density, in ln W
    worst_b = 0.0
    for x in (0.1, 1.0, 10.0):
        want = meijer_log_density(tm4(1), math.log(x))
        worst_b = max(worst_b, abs(math.log(w4(1, x)) - want))

    # u-substituted TM1 moments against the log-gamma closed form
    worst_c = 0.0
    for r in (1, 2, 3):
        seq = tm1(r)
        w = principal_solution(seq)
        for n in range(9):
            res = check_moment(w, seq, n)
            want = math.lgamma(2 * r * n + 1.0)
            worst_c = max(worst_c,
                          abs(res.log_integral - want) / max(1.0, abs(want)))

    ok = worst_a <= 1e-8 and worst_b <= 1e-13 and worst_c <= 1e-10
    _report("oracle equivalences (Bessel / Meijer G / log-gamma)",
            max(worst_a, worst_b, worst_c), 1e-8, ok)
    assert ok


def test_08_property_suite():
    """Run the property-based invariants (>= 100 generated cases each)."""
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "tests/test_properties.py", "-q",
         "--no-header", "-p", "no:cacheprovider"],
        capture_output=True, text=True)
    ok = proc.returncode == 0
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout else ""
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] property-based invariant suite: {tail}")
    assert ok, proc.stdout + proc.stderr
