"""Command-line interface: output formats, determinism, exit codes."""

import contextlib
import csv
import gc
import io
import json
import math
import os
import random
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

import gammamoments.classes as classes
import gammamoments.cli as cli
import gammamoments.mellin as mellin
import gammamoments.weights as weights
from gammamoments import (class_member, contour_log_densities,
                          parse_descriptor, principal_solution, tm2, tm3, tm4)
from gammamoments.cli import main
from gammamoments.verify import _PASS_TOL
from oracles import meijer_log_density


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestJsonOutput:
    def test_eval_round_trips(self, capsys):
        code, out, _ = run(capsys, "eval", "--seq", "tm1:r=2",
                           "--x", "0.5,1,2")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["command"] == "eval"
        assert len(payload["points"]) == 3
        assert all(p["density"] > 0 for p in payload["points"])

    @pytest.mark.parametrize("seq,n", [("tm4:r=2", "8"), ("tm3:r=3", "7")])
    def test_moments_interpolated_high_n(self, capsys, seq, n):
        # both once exited 3: the moment window passed the interpolant's end
        code, out, _ = run(capsys, "moments", "--seq", seq, "--n", n)
        assert code == 0
        assert json.loads(out)["results"][0]["rel_error"] <= 1e-5

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_moments_large_r(self, capsys):
        # the moment window reaches ln x > 709: x once overflowed to inf
        # and the density raised DomainError (exit 1)
        code, out, err = run(capsys, "moments", "--seq", "tm1:r=58",
                             "--n", "2")
        assert code == 0, err
        assert json.loads(out)["results"][0]["rel_error"] <= 1e-12

    def test_moments_report_small_errors(self, capsys):
        code, out, _ = run(capsys, "moments", "--seq", "tm2:r=1",
                           "--n", "0..4")
        assert code == 0
        payload = json.loads(out)
        assert [r["n"] for r in payload["results"]] == [0, 1, 2, 3, 4]
        assert all(r["rel_error"] <= 1e-6 for r in payload["results"])

    def test_criteria_verdict_fields(self, capsys):
        code, out, _ = run(capsys, "criteria", "--seq", "tm1:r=2")
        assert code == 0
        payload = json.loads(out)
        assert payload["overall"] == "NonUnique"
        assert payload["c1"]["verdict"] == "Convergent"
        assert len(payload["c1"]["terms"]) == 10

    def test_criteria_indeterminate_gamma_product(self, capsys):
        # A = 2.02 > 2: the Carleman sum converges, so never "Unique"
        code, out, _ = run(capsys, "criteria", "--seq", "gamma:2.02n+1")
        payload = json.loads(out)
        assert payload["c1"]["verdict"] == "Convergent"
        assert payload["c3"]["verdict"] == "NonUnique"
        assert (payload["overall"], code) == ("NonUnique", 0)

    def test_criteria_typed_sum_a_two_unique(self, capsys):
        # the decimals sum to exactly 2, the floats to 1.9999999999999998:
        # once exit 2, Undecided
        code, out, err = run(capsys, "criteria", "--seq",
                             "gamma:0.7n+1,0.6n+1,0.7n+1")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["overall"] == "Unique"
        assert payload["c1"]["verdict"] == "Divergent"
        assert payload["c2"]["verdict"] == "Infinite"

    @pytest.mark.parametrize("seq,c2", [
        ("tm3:r=1", "Finite"), ("tm4:r=1", "Finite"),
        ("gamma:2.02n+1,0.5n+0.7", "Finite"), ("gamma:2/3n+1,4/3n+1", "Infinite"),
        ("gamma:0.3n+1,0.3n+1", "Infinite"), ("gamma:0.001n+1", "Infinite"),
        ("gamma:0.1n+1", "Infinite")])
    def test_criteria_c2_from_sum_a(self, capsys, seq, c2):
        # C2 was Undecided for each: no closed form, or A = 2 in floats; a
        # steep single-factor tail (0.1n+1) once put the Krein fit where
        # W >= 1
        code, out, _ = run(capsys, "criteria", "--seq", seq)
        payload = json.loads(out)
        assert (code, payload["c2"]["verdict"]) == (0, c2)
        assert payload["overall"] == ("NonUnique" if c2 == "Finite"
                                      else "Unique")

    def test_criteria_float_critical_multiplier(self):
        # the multiplier reads 2.0 as a float but exceeds 2 as typed; a
        # tail law divided by 1 - 2p = 0 once ended in a traceback
        proc = _entry("criteria", "--seq", "gamma:2.0000000000000001n+1")
        assert proc.returncode == 0
        assert b"Traceback" not in proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["c1"]["verdict"] == "Convergent"
        assert payload["c2"]["verdict"] == "Finite"
        assert math.isfinite(payload["c2"]["integral_estimate"])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("seq", ["tm1:r=20", "tm1:r=40", "tm1:r=200",
                                     "tm2:r=40", "tm4:r=38", "tm4:r=60"])
    def test_criteria_large_r(self, capsys, seq):
        # Krein once squared x past the double range and the moment window
        # was cut at the smallest double: exit 1 with a DomainError; the
        # interpolant's window edge (320/g)^A once overflowed at A >= 152
        code, out, err = run(capsys, "criteria", "--seq", seq)
        assert code == 0, err
        assert json.loads(out)["overall"] == "NonUnique"

    @pytest.mark.parametrize("argv,want", [
        (["eval", "--seq", "tm4:r=38"], 0),
        (["moments", "--seq", "tm4:r=38"], 0),
        (["eval", "--seq", "tm4:r=60"], 1),
    ], ids=["eval-tm4:r=38", "moments-tm4:r=38", "eval-tm4:r=60"])
    def test_interpolant_window_at_large_a(self, capsys, argv, want):
        # the window edge (320/g)^A raised a raw OverflowError at A >= 152;
        # at tm4:r=60 the default grid itself leaves the double range
        code, _, err = run(capsys, *argv)
        assert code == want, err
        assert ("default grid would end at" in err) == bool(want)

    def test_criteria_full_terms(self, capsys):
        code, out, _ = run(capsys, "criteria", "--seq", "tm1:r=2",
                           "--full-terms")
        assert code == 0
        assert len(json.loads(out)["c1"]["terms"]) == 200

    @pytest.mark.parametrize("named,gamma,amplitude", [
        ("tm1:r=2", "gamma:4n+1", ["--eps", "0.5"]),
        ("tm2:r=3", "gamma:3n+1,3n+1", ["--gamma", "1.0"]),
        ("tm3:r=3", "gamma:3n+1,3n+1,3n+1", ["--gamma", "0.1"]),
    ], ids=["tm1", "tm2", "tm3"])
    def test_class_same_for_every_spelling(self, capsys, named, gamma,
                                           amplitude):
        # the family is read off the factor list; a gamma spelling of tm2
        # once exited 1 with "supports tm1/tm2/tm3 sequences, got gamma"
        payloads = []
        for seq in (named, gamma):
            code, out, err = run(capsys, "class", "--seq", seq, "--k", "1",
                                 *amplitude)
            assert code == 0, err
            payload = json.loads(out)
            assert payload.pop("seq") == seq
            payloads.append(payload)
        assert payloads[0] == payloads[1]

    @pytest.mark.parametrize("seq,x,want", [
        ("tm1:r=40", "5e-324", "inf"), ("tm3:r=40", "5e-324", "inf"),
        ("gamma:2/3n+2/3", "1.7e308", 0.0)])
    def test_eval_past_double_range(self, capsys, seq, x, want):
        # W near 1e317 (tm1:r=40) is past the double range and prints inf;
        # x^{3/2} overflows to a W of 0.0; both once warned of an overflow
        code, out, err = run(capsys, "eval", "--seq", seq, "--x", x)
        assert (code, err) == (0, "")
        assert json.loads(out)["points"][0]["density"] == want

    @pytest.mark.parametrize("seq,flag", [("tm1:r=40", "--eps"),
                                          ("tm2:r=40", "--gamma")])
    def test_class_member_past_double_range(self, capsys, seq, flag):
        # W and omega are inf at 5e-324, and inf + amplitude * inf once
        # printed "member": "nan"; 1 + amplitude omega/W is positive, so the
        # member is inf, and the finite point is base + amplitude * omega
        code, out, err = run(capsys, "class", "--seq", seq, "--k", "1",
                             f"{flag}=-0.5", "--x", "5e-324,1")
        assert (code, err) == (0, "")
        far, one = json.loads(out)["points"]
        assert (far["base"], far["member"]) == ("inf", "inf")
        assert one["member"] == one["base"] - 0.5 * one["omega"]

    def test_nonfinite_floats_encoded_as_strings(self, capsys):
        # tm1:r=1 yields an infinite tail integral; strict JSON parsers
        # must still accept the document
        _, out, _ = run(capsys, "criteria", "--seq", "tm1:r=1")
        payload = json.loads(out, parse_constant=pytest.fail)
        assert payload["c2"]["integral_estimate"] == "inf"


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run(capsys, "eval", "--seq", "tm2:r=2")
        _, second, _ = run(capsys, "eval", "--seq", "tm2:r=2")
        assert first == second

    def test_find_gamma_max_with_seed(self, capsys):
        for seed in ("42", "7"):
            _, first, _ = run(capsys, "class", "--seq", "tm2:r=3", "--k", "1",
                              "--find-gamma-max", "--mc-seed", seed)
            _, second, _ = run(capsys, "class", "--seq", "tm2:r=3", "--k",
                               "1", "--find-gamma-max", "--mc-seed", seed)
            assert first == second
            mc = json.loads(first)["monte_carlo"]
            assert mc["nonnegative"] is True and mc["min_value"] >= 0.0

    def test_recheck_searches_once(self, capsys, monkeypatch):
        # the recheck once went through class_member, whose amplitude
        # check ran the search again for the bound just certified
        calls = []
        search = classes.find_gamma_max
        monkeypatch.setattr(
            classes, "find_gamma_max",
            lambda pert: calls.append((pert.r, pert.k)) or search(pert))
        code, out, _ = run(capsys, "class", "--seq", "tm2:r=3", "--k", "1",
                           "--find-gamma-max", "--mc-seed", "42")
        assert code == 0
        assert calls == [(3, 1)]
        # the record one class_member call on the whole sorted sample gives
        bound = search(classes.perturbation_tm2(3, 1))
        rng = random.Random(42)
        lo, hi = math.log(1e-8), math.log(1e6)
        u = np.array([rng.random() for _ in range(20000)])
        xs = np.sort(np.exp(lo + (hi - lo) * u))
        member = class_member(tm2(3), 1, bound, xs)
        assert json.loads(out)["monte_carlo"] == {
            "seed": 42, "nonnegative": bool(np.all(member >= 0.0)),
            "min_value": float(np.min(member))}

    def test_recheck_nonfinite_member_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(classes.Perturbation, "evaluate",
                            lambda self, x: np.full(np.shape(x), np.nan))
        code, out, err = run(capsys, "class", "--seq", "tm2:r=3", "--k", "1",
                             "--find-gamma-max", "--mc-seed", "42")
        assert (code, out) == (3, "")
        assert "not finite" in err

    @pytest.mark.parametrize("k,end", [("1", 3.0126), ("-1", 1.1547)])
    def test_find_gamma_max_tm3(self, capsys, k, end):
        # tm3 takes tm2's search; it once exited 1, "applies to tm2"
        code, out, err = run(capsys, "class", "--seq", "tm3:r=3", "--k", k,
                             "--find-gamma-max", "--mc-seed", "7")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["gamma_max"] / payload["safety_factor"] == \
            pytest.approx(end, abs=1e-3)
        assert payload["monte_carlo"]["nonnegative"] is True

    def test_find_gamma_max_tm1_names_its_rule(self, capsys):
        code, out, err = run(capsys, "class", "--seq", "tm1:r=2", "--k", "1",
                             "--find-gamma-max")
        assert (code, out) == (1, "")
        assert "|eps| < 1" in err

    def test_mc_seed_needs_find_gamma_max(self, capsys):
        # the seed was once ignored, and the call exited 0 with no recheck
        code, out, err = run(capsys, "class", "--seq", "tm2:r=3", "--k", "1",
                             "--gamma", "1.0", "--mc-seed", "5", "--x", "1")
        assert (code, out) == (1, "")
        assert "--mc-seed applies only with --find-gamma-max" in err

    @pytest.mark.parametrize("r,want", [("9", 1.178), ("40", 1.023)])
    def test_find_gamma_max_large_r(self, capsys, r, want):
        code, out, err = run(capsys, "class", "--seq", f"tm2:r={r}", "--k",
                             "1", "--find-gamma-max")
        assert code == 0
        assert "Traceback" not in err
        assert json.loads(out)["gamma_max"] == pytest.approx(want, abs=1e-3)

    def test_find_gamma_max_beyond_double_precision(self, capsys):
        # the decay rate of omega/W rounds to 0 at r = 1e9: once a
        # ZeroDivisionError
        code, out, err = run(capsys, "class", "--seq", "tm2:r=1000000000",
                             "--k", "1", "--find-gamma-max")
        assert (code, out) == (3, "")
        assert "does not decay" in err


class TestCsvOutput:
    def test_moments_table(self, capsys):
        code, out, _ = run(capsys, "moments", "--seq", "tm1:r=1",
                           "--n", "0..3", "--table")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "log_integral", "log_target", "rel_error",
                           "nodes_used"]
        assert len(rows) == 5
        assert float(rows[1][3]) <= 1e-9

    @pytest.mark.parametrize("argv,key", [
        (["eval", "--seq", "tm1:r=1", "--x", "0.5,2"], "points"),
        (["moments", "--seq", "tm1:r=1", "--n", "0..2"], "results"),
        (["class", "--seq", "tm1:r=2", "--k", "1", "--eps", "0.5",
          "--x", "1,10"], "points"),
        (["convolve", "--seq-a", "tm1:r=1", "--seq-b", "tm2:r=1",
          "--x", "1"], "points"),
    ], ids=["eval", "moments", "class", "convolve"])
    def test_csv_rows_are_the_json_records(self, capsys, argv, key):
        # one table writer: floats by repr and ints plain in both formats
        _, as_json, _ = run(capsys, *argv)
        code, as_csv, _ = run(capsys, *argv, "--emit", "csv")
        assert code == 0
        header, *rows = csv.reader(io.StringIO(as_csv))
        records = json.loads(as_json)[key]
        assert sorted(header) == sorted(records[0])
        assert rows == [[repr(rec[h]) for h in header] for rec in records]

    def test_eval_csv(self, capsys):
        code, out, _ = run(capsys, "eval", "--seq", "tm1:r=1",
                           "--x", "1,2", "--emit", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["x", "density"]
        assert len(rows) == 3


class TestFileOutput:
    def test_output_flag_writes_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run(capsys, "moments", "--seq", "tm1:r=1",
                           "--n", "0", "--output", str(target))
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text())
        assert payload["command"] == "moments"

    @pytest.mark.parametrize("argv", [
        ["class", "--seq", "tm2:r=3", "--k", "1", "--find-gamma-max"],
        ["moments", "--seq", "tm1:r=1", "--n", "0", "--emit", "csv"],
    ], ids=["json", "csv"])
    def test_unwritable_output_exits_1(self, capsys, tmp_path, argv):
        # a missing directory once ended in a FileNotFoundError traceback
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, *argv, "--output", str(target))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert not target.parent.exists()


class TestExitCodes:
    def test_usage_error_on_bad_amplitude(self, capsys):
        code, out, err = run(capsys, "class", "--seq", "tm1:r=2", "--k", "1",
                             "--eps", "1.5")
        assert code == 1
        assert out == ""
        assert "eps" in err

    def test_wrong_amplitude_flag_names_the_right_one(self, capsys):
        code, out, err = run(capsys, "class", "--seq", "tm1:r=2", "--k", "1",
                             "--gamma", "0.1")
        assert code == 1
        assert out == ""
        assert "--eps" in err

    def test_usage_error_on_bad_descriptor(self, capsys):
        code, _, err = run(capsys, "eval", "--seq", "tm9:r=1")
        assert code == 1
        assert "error" in err

    def test_usage_error_on_constraint(self, capsys):
        code, _, _ = run(capsys, "class", "--seq", "tm2:r=2", "--k", "1",
                         "--find-gamma-max")
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["eval"],  # missing --seq
        ["eval", "--seq", "tm1:r=1", "--bogus"],
        ["eval", "--seq", "tm1:r=1", "--contour-c", "1"],  # removed option
        ["eval", "--seq", "tm1:r=1", "--x", "1,abc"],
        ["moments", "--seq", "tm1:r=1", "--n", "a..b"],
        ["moments", "--seq", "tm1:r=1", "--n", "1..2..3"],
        # b <= 0: Gamma(0) moments once divided by zero in the moment
        # window, and eval once exited 0
        ["moments", "--seq", "gamma:1n+0", "--n", "0..1"],
        ["criteria", "--seq", "gamma:1n+0"],
        ["eval", "--seq", "gamma:1n+0"],
        # default grids past the double range once raised OverflowError
        ["eval", "--seq", "tm1:r=99999999999"],
        ["class", "--seq", "tm1:r=99999999999", "--k", "1", "--eps", "0.5"],
        ["convolve", "--seq-a", "tm1:r=99999999999", "--seq-b", "tm1:r=1"],
        # NaN amplitudes once printed "member": "nan" and exited 0
        ["class", "--seq", "tm1:r=2", "--k", "1", "--eps", "nan"],
        ["class", "--seq", "tm3:r=3", "--k", "1", "--gamma", "nan"],
        # every family refuses a non-finite amplitude by one check; a tm2
        # NaN once searched the bound of k = -1 before it was refused
        ["class", "--seq", "tm2:r=3", "--k", "1", "--gamma", "nan"],
        ["class", "--seq", "tm1:r=2", "--k", "1", "--eps", "inf"],
        ["class", "--seq", "tm2:r=3", "--k", "1", "--gamma", "inf"],
        ["class", "--seq", "tm3:r=3", "--k", "1", "--gamma=-inf"],
        # a zero denominator in a descriptor once raised ZeroDivisionError
        ["eval", "--seq", "gamma:1/0n+1"],
        ["eval", "--seq", "gamma:2n+1/0"],
        # each once exited 0: with "results": [], and with members of
        # -25806 and -13785
        ["moments", "--seq", "tm1:r=1", "--n", "5..2"],
        ["class", "--seq", "tm3:r=3", "--k", "1", "--gamma", "1e6",
         "--x", "0.5,1"],
        # W + gamma omega < 0 as x -> 0, where omega3 / W3 tends to
        # sin(2 pi / 3) = 0.866: both once exited 0
        ["class", "--seq", "tm3:r=3", "--k", "1", "--gamma", "-1.5"],
        ["class", "--seq", "tm3:r=3", "--k", "1", "--gamma", "-1.16",
         "--x", "1e-300,1e-8,1"],
        # omega3 / W3 = -0.3319 at ln x ~ 3.37, between the default grid's
        # points, so the member is negative there: it once exited 0
        ["class", "--seq", "tm3:r=3", "--k", "1", "--gamma", "3.013"],
        # the tm2 bounds hold at the ratio's x -> 0 limit (1.041 for (5, 2))
        # and for gamma < 0 (1.143 for (3, -1))
        ["class", "--seq", "tm2:r=5", "--k", "2", "--gamma", "2.29"],
        ["class", "--seq", "tm2:r=3", "--k", "1", "--gamma", "-2.3"],
        # reports that have no table once printed JSON for --emit csv
        ["criteria", "--seq", "tm1:r=1", "--emit", "csv"],
        ["class", "--seq", "tm2:r=3", "--k", "1", "--find-gamma-max",
         "--emit", "csv"],
        # a negative seed once ended in numpy's ValueError traceback
        ["class", "--seq", "tm2:r=3", "--k", "1", "--find-gamma-max",
         "--mc-seed", "-1"],
        ["class", "--seq", "tm2:r=3", "--gamma", "1.0"],
        ["class", "--seq", "tm1:r=2", "--k", "1", "--find-gamma-max"],
        ["eval", "--seq", "gamma:0n+1"],
        # every entry that takes x raises DomainError outside (0, inf)
        *([cmd, *seq, "--x", x]
          for cmd, *seq in (["eval", "--seq", "tm3:r=1"],
                            ["class", "--seq", "tm2:r=3", "--k", "1",
                             "--gamma", "1.0"],
                            ["convolve", "--seq-a", "tm1:r=1",
                             "--seq-b", "tm2:r=1"])
          for x in ("0", "inf", "nan")),
        # options that were dropped without a word: an empty --x fell back
        # to the default grid and an empty --output to stdout, and class
        # ignored the other family's amplitude and every member option
        # with --find-gamma-max
        ["eval", "--seq", "tm1:r=2", "--x", ""],
        ["class", "--seq", "tm2:r=3", "--k", "1", "--gamma", "1.0",
         "--x", ""],
        ["convolve", "--seq-a", "tm1:r=1", "--seq-b", "tm2:r=1", "--x", ""],
        ["criteria", "--seq", "tm1:r=1", "--output", ""],
        ["class", "--seq", "tm2:r=3", "--k", "1", "--gamma", "1.0",
         "--eps", "0.5"],
        ["class", "--seq", "tm3:r=3", "--k", "1", "--gamma", "1.0",
         "--eps", "0.5"],
        ["class", "--seq", "tm1:r=2", "--k", "1", "--eps", "0.5",
         "--gamma", "1.0"],
        *(["class", "--seq", "tm2:r=3", "--k", "1", "--find-gamma-max",
           flag, value]
          for flag, value in (("--eps", "0.5"), ("--gamma", "1.0"),
                              ("--x", "1"))),
    ], ids=["missing-seq", "unknown-option", "contour-c", "bad-x",
            "bad-n-range", "bad-n-split", "moments-b0", "criteria-b0",
            "eval-b0", "eval-grid-overflow", "class-grid-overflow",
            "convolve-grid-overflow", "tm1-eps-nan", "tm3-gamma-nan",
            "tm2-gamma-nan", "tm1-eps-inf", "tm2-gamma-inf", "tm3-gamma-inf",
            "zero-denominator-a", "zero-denominator-b",
            "reversed-n-range", "tm3-member-negative",
            "tm3-origin-limit-default-grid", "tm3-origin-limit-deep-x",
            "tm3-body-default-grid",
            "tm2-origin-limit-bound", "tm2-negative-bound",
            "criteria-csv",
            "find-gamma-max-csv", "mc-seed-negative", "class-no-k",
            "find-gamma-max-tm1", "eval-a0",
            *(f"{cmd}-x-{x}" for cmd in ("eval", "class", "convolve")
              for x in ("0", "inf", "nan")),
            *(f"{cmd}-x-empty" for cmd in ("eval", "class", "convolve")),
            "output-empty",
            "tm2-eps", "tm3-eps", "tm1-gamma",
            *(f"find-gamma-max-{flag}" for flag in ("eps", "gamma", "x"))])
    def test_usage_errors_exit_1(self, capsys, argv):
        # argparse's own code for bad arguments is 2, which _Parser turns
        # into 1; any other exception would escape main as a traceback
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "error" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("seq,flag,value", [
        ("tm2:r=3", "--gamma", "-1e-3"), ("tm1:r=2", "--eps", "-5e-1")])
    def test_negative_amplitude_after_flag(self, capsys, seq, flag, value):
        # argparse reads "-1e-3" as an option unless it is joined to its flag
        common = ["class", "--seq", seq, "--k", "1", "--x", "1"]
        joined = run(capsys, *common, f"{flag}={value}")
        spaced = run(capsys, *common, flag, value)
        assert joined[0] == 0
        assert spaced == joined

    def test_minus_inf_amplitude_names_finiteness(self, capsys):
        # a negative special value after the flag once lost it to argparse
        code, out, err = run(capsys, "class", "--seq", "tm2:r=3", "--k", "1",
                             "--gamma", "-inf", "--x", "1")
        assert (code, out) == (1, "")
        assert "finite amplitude" in err

    @pytest.mark.parametrize("argv", [
        ["criteria", "--seq", "tm1:r=1"],
        ["class", "--seq", "tm2:r=3", "--k", "1", "--find-gamma-max"]])
    def test_emit_json_still_accepted(self, capsys, argv):
        assert run(capsys, *argv, "--emit", "json")[0] == 0

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_0(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0
        assert capsys.readouterr().out

    def test_numeric_failure_exit(self, capsys, monkeypatch):
        from gammamoments import ConvergenceError

        def fake(w, seq, n, **kw):
            raise ConvergenceError("forced for the exit-code test")
        monkeypatch.setattr(cli, "check_moment", fake)
        code, _, err = run(capsys, "moments", "--seq", "tm1:r=1", "--n", "0")
        assert code == 3
        assert "numeric failure" in err

    def test_convolve_rejects_nonpositive_x(self, capsys):
        code, out, err = run(capsys, "convolve", "--seq-a", "tm1:r=1",
                             "--seq-b", "tm2:r=1", "--x", "1,0")
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_class_convolution_member(self, capsys):
        code, out, _ = run(capsys, "class", "--seq", "tm1:r=2", "--k", "1",
                           "--eps", "0.5", "--x", "1,10")
        assert code == 0
        payload = json.loads(out)
        for point in payload["points"]:
            assert point["member"] == pytest.approx(
                point["base"] + 0.5 * point["omega"], rel=1e-12)


    @pytest.mark.parametrize("seq,flag,amplitude,log_w", [
        ("tm1:r=2", "--eps", 0.5, "_log_w1"),
        ("tm2:r=3", "--gamma", 1.0, "_log_w2"),
    ])
    def test_class_member_from_printed_columns(self, capsys, monkeypatch,
                                               seq, flag, amplitude, log_w):
        # member = base + amplitude * omega from the two columns: the
        # closed form is evaluated once for base and once, at the rotated
        # point, for omega; the amplitude search (|gamma| > 0.99) reads
        # omega / W off the same log forms, and its calls are not the
        # columns'
        calls = []
        true_log_w = getattr(weights, log_w)
        monkeypatch.setattr(weights, log_w,
                            lambda *a: calls.append(a) or true_log_w(*a))
        search = classes.find_gamma_max

        def searched(pert):
            start = len(calls)
            bound = search(pert)
            del calls[start:]
            return bound
        monkeypatch.setattr(classes, "find_gamma_max", searched)
        code, out, _ = run(capsys, "class", "--seq", seq, "--k", "1", flag,
                           str(amplitude))
        assert code == 0
        assert len(calls) == 2
        for point in json.loads(out)["points"]:
            assert point["member"] == (point["base"]
                                       + amplitude * point["omega"])


    def test_class_names_first_negative_x(self, capsys, monkeypatch):
        # the member is positive at 0.001 and negative at 0.5 and 1; a
        # bound of inf lets the amplitude reach the pointwise check
        monkeypatch.setattr(classes, "find_gamma_max", lambda pert: math.inf)
        code, out, err = run(capsys, "class", "--seq", "tm3:r=3", "--k", "1",
                             "--gamma", "1e6", "--x", "0.001,0.5,1")
        assert (code, out) == (1, "")
        assert "negative at x = 0.5 " in err


class TestEndpointLaws:
    @pytest.mark.parametrize("seq", ["tm2:r=1", "tm3:r=1"])
    def test_alpha0_prints_positive_zero(self, capsys, seq):
        # -(r-1)/r once printed "alpha0": -0.0 at r = 1
        code, out, _ = run(capsys, "eval", "--seq", seq, "--x", "1")
        assert code == 0
        assert '"alpha0": 0.0,' in out


class TestConvolve:
    def test_matches_frozen_w4(self, capsys):
        code, out, _ = run(capsys, "convolve", "--seq-a", "tm1:r=1",
                           "--seq-b", "tm2:r=1", "--x", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["points"][0]["convolution"] == pytest.approx(
            0.12293692982559143, rel=1e-7)

    def test_no_subcommand_convolves(self, capsys, monkeypatch):
        # every subcommand gets its densities from a closed form or the
        # contour engine; the convolution integral is an oracle only
        def boom(*args, **kwargs):
            raise AssertionError("Mellin convolution called")
        for name in ("mellin_convolve_many", "_convolve_chunk"):
            monkeypatch.setattr(mellin, name, boom)
            assert not hasattr(cli, name)
        argvs = [
            ["eval", "--seq", "tm3:r=1"],
            ["moments", "--seq", "tm4:r=1", "--n", "0..2"],
            ["criteria", "--seq", "tm1:r=2"],
            ["class", "--seq", "tm3:r=3", "--k", "1", "--gamma", "0.1",
             "--x", "0.5,2"],
            ["convolve", "--seq-a", "tm1:r=1", "--seq-b", "tm2:r=1"],
            ["convolve", "--seq-a", "tm1:r=1", "--seq-b", "tm2:r=3"],
        ]
        for argv in argvs:
            code, _, err = run(capsys, *argv)
            assert (code, err) == (0, ""), " ".join(argv)

    @pytest.mark.parametrize("seq_a,seq_b", [
        ("tm3:r=1", "tm1:r=1"), ("tm4:r=1", "tm2:r=1"),
        ("gamma:2.5n+1", "tm1:r=1"), ("tm1:r=1", "tm2:r=3"),
        ("tm3:r=1", "tm3:r=1"), ("tm4:r=1", "tm4:r=1"), ("tm1:r=1", "tm2:r=1"),
    ])
    def test_contour_factor_pairs(self, capsys, seq_a, seq_b):
        # the convolution route refused the first four: a spline factor's
        # window ends before the integrand does, or the quadrature never
        # settles.  The default grid once ended where ln W ~ -300 for a
        # tail coefficient of 1, past the double range of the real tail,
        # and printed up to 25 zeros
        code, out, _ = run(capsys, "convolve", "--seq-a", seq_a,
                           "--seq-b", seq_b)
        assert code == 0
        vals = np.array([p["convolution"] for p in json.loads(out)["points"]])
        assert vals.size == 200
        assert np.all(np.isfinite(vals) & (vals > 0.0))

    def test_pair_stays_within_its_node_budget(self, capsys, monkeypatch):
        # this pair once spent seconds in the convolution integral; on the
        # engine its default grid evaluates the symbol at 10,467 nodes,
        # and 2^15 is the budget
        nodes = []
        line_symbol = mellin._line_symbol

        def counted(seq, psi, s):
            nodes.append(np.size(s))
            return line_symbol(seq, psi, s)
        monkeypatch.setattr(mellin, "_line_symbol", counted)
        code, _, _ = run(capsys, "convolve", "--seq-a", "tm1:r=1",
                         "--seq-b", "tm2:r=3")
        assert code == 0
        assert 0 < sum(nodes) <= 2 ** 15

    def test_default_grid_matches_tm4(self, capsys):
        # W1(1) * W2(1) is W4(1): the product of (2n)! and (n!)^2
        code, out, _ = run(capsys, "convolve", "--seq-a", "tm1:r=1",
                           "--seq-b", "tm2:r=1")
        assert code == 0
        points = json.loads(out)["points"]
        xs = np.array([p["x"] for p in points])
        vals = np.array([p["convolution"] for p in points])
        log_w, sign = contour_log_densities(tm4(1), np.log(xs))
        assert np.all(sign > 0)
        normal = vals >= np.finfo(float).tiny
        assert np.max(np.abs(np.log(vals[normal]) - log_w[normal])) <= 1e-12
        assert np.all(log_w[~normal] < np.log(np.finfo(float).tiny))


class TestClassTm3:
    def test_omega3_evaluated_once(self, capsys, monkeypatch):
        # once for the printed columns; gamma = 0.1 is within every
        # amplitude bound (>= 0.99), so no search scans omega3 / W3
        calls = []
        contour_sums = classes._contour_sums

        def counted(*args, **kwargs):
            calls.append(args)
            return contour_sums(*args, **kwargs)
        monkeypatch.setattr(classes, "_contour_sums", counted)
        code, out, _ = run(capsys, "class", "--seq", "tm3:r=3", "--k", "1",
                           "--gamma", "0.1")
        assert code == 0
        assert len(calls) == 1
        points = json.loads(out)["points"]
        xs = np.array([p["x"] for p in points])
        member = np.array([p["member"] for p in points])
        assert np.array_equal(member, class_member(tm3(3), 1, 0.1, xs))


def _python(*args, **kwargs):
    """Run `python args` on this checkout's package; capture stderr."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    kwargs.setdefault("stdout", subprocess.PIPE)
    kwargs.setdefault("timeout", 300)
    return subprocess.run([sys.executable, *args], env=env,
                          stderr=subprocess.PIPE, **kwargs)


def _entry(*argv, **kwargs):
    """`python -m gammamoments.cli argv`, which calls main() with no argv."""
    return _python("-m", "gammamoments.cli", *argv, **kwargs)


class TestProgramEntry:
    """The program entry freezes the heap before exit and turns a closed
    stdout into exit 1; neither changes what a call prints or returns."""

    def test_factor_past_the_double_range_exits_1(self):
        # a factor offset of 1e306 spelled in digits: ln Gamma(1e306) is
        # past the doubles, and math.lgamma's OverflowError once escaped
        # as a traceback; it is a usage error (exit 1) with a message
        proc = _entry("eval", "--seq", "gamma:1n+1" + "0" * 306 + ",1.5n+1",
                      "--x", "1")
        err = proc.stderr.decode()
        assert proc.returncode == 1, err
        assert proc.stdout == b""
        assert "Traceback" not in err
        assert err.startswith("error: ln Gamma(1e+306) of the factor")

    @pytest.mark.parametrize("argv,want", [
        (["eval", "--seq", "tm1:r=2"], 0),
        (["moments", "--seq", "tm1:r=1", "--n", "5..2"], 1),
        (["class", "--seq", "tm2:r=1000000000", "--k", "1",
          "--find-gamma-max"], 3),
    ], ids=["ok", "usage", "numeric"])
    def test_same_exit_code_and_stdout_as_in_process(self, capsys, argv,
                                                     want):
        code, out, _ = run(capsys, *argv)
        proc = _entry(*argv)
        assert (code, proc.returncode) == (want, want)
        assert proc.stdout == out.encode("utf-8")
        assert b"Traceback" not in proc.stderr

    def test_output_file_is_complete(self, tmp_path):
        target = tmp_path / "f.json"
        proc = _entry("moments", "--seq", "tm2:r=3", "--n", "0..8",
                      "--output", str(target))
        assert (proc.returncode, proc.stdout) == (0, b"")
        with open(target, encoding="utf-8") as fh:
            results = json.load(fh)["results"]
        assert [r["n"] for r in results] == list(range(9))

    @pytest.mark.parametrize("argv", [
        ["eval", "--seq", "tm3:r=1"],
        ["moments", "--seq", "tm1:r=2", "--n", "0"],
    ], ids=["large", "small"])
    def test_closed_stdout_exits_1_without_traceback(self, argv):
        # a BrokenPipeError traceback once ended such a call
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = _entry(*argv, stdout=write_end)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert b"Traceback" not in proc.stderr
        assert b"BrokenPipeError" not in proc.stderr

    def test_entry_freezes_in_process_call_does_not(self, capsys):
        code, _, _ = run(capsys, "eval", "--seq", "tm1:r=2", "--x", "1")
        assert (code, gc.get_freeze_count()) == (0, 0)
        # positive control: main() with no argv freezes the heap
        probe = ("import gc, sys; from gammamoments import cli; "
                 "sys.argv[1:] = ['eval', '--seq', 'tm1:r=2', '--x', '1']; "
                 "code = cli.main(); "
                 "print(code, gc.get_freeze_count() > 0, file=sys.stderr)")
        assert _python("-c", probe).stderr.split() == [b"0", b"True"]


_DEEP_TAIL = """
import math, gammamoments as gm
try:
    gm.contour_log_density(gm.tm2(1), math.exp(50))
except gm.ConvergenceError:
    pass
else:
    raise SystemExit("no ConvergenceError at ln x = 50")
"""


class TestWallTime:
    """Calls that once ran for many seconds finish within their bound in a
    fresh interpreter, with no cache warmed by another test; running past
    it raises subprocess.TimeoutExpired."""

    @pytest.mark.parametrize("seconds,argv", [
        (10, ["eval", "--seq", "tm4:r=1", "--x", "1e-300,1e-100,1e-30"]),
        (10, ["eval", "--seq", "tm3:r=1", "--x", "1e-30,1e-12,1e-3,0.1"]),
        (10, ["moments", "--seq", "tm4:r=1", "--n", "0"]),
        (20, ["convolve", "--seq-a", "tm1:r=1", "--seq-b", "tm2:r=3"]),
    ], ids=["eval-tm4", "eval-tm3", "moments-tm4", "convolve"])
    def test_call_within_bound(self, seconds, argv):
        proc = _entry(*argv, timeout=seconds)
        assert proc.returncode == 0, proc.stderr

    def test_deep_tail_refuses_within_bound(self):
        # a grid over max_points is refused before it is allocated
        proc = _python("-c", _DEEP_TAIL, timeout=20)
        assert proc.returncode == 0, proc.stderr


class TestGeneralProducts:
    """`class` builds a member for every product whose star factor (the
    first with the largest multiplier a*) has a* > 2|k|."""

    @pytest.mark.parametrize("seq", ["tm4:r=2", "gamma:2.5n+0.7,2.5n+1.3"])
    def test_member_past_the_families(self, capsys, seq):
        # both once exited 1: "needs one gamma factor, or two or three
        # equal factors"
        code, out, err = run(capsys, "class", "--seq", seq, "--k", "1",
                             "--gamma", "1.0")
        assert (code, err) == (0, "")
        points = json.loads(out, parse_constant=pytest.fail)["points"]
        assert len(points) == 200
        for p in points:
            assert p["member"] == p["base"] + p["omega"] and p["member"] >= 0

    def test_find_gamma_max_for_a_power(self, capsys):
        code, out, err = run(capsys, "class", "--seq",
                             "gamma:3n+1,3n+1,3n+1,3n+1", "--k", "1",
                             "--find-gamma-max", "--mc-seed", "7")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["gamma_max"] == pytest.approx(3.33753, abs=1e-5)
        assert payload["monte_carlo"]["nonnegative"] is True

    def test_star_factor_at_most_2k_refused(self, capsys):
        code, out, err = run(capsys, "class", "--seq", "tm4:r=1", "--k", "1",
                             "--gamma", "0.1")
        assert (code, out) == (1, "")
        assert err == ("error: omega rotates its factor Gamma(an + b) by k "
                       "pi/a, so it needs a > 2|k| (a=2, tm4:r=1, k=1)\n")

    @pytest.mark.parametrize("argv,want", [
        (["--x", "1"], "tm4:r=2 class members require --gamma"),
        (["--gamma", "0.5", "--eps", "0.1"],
         "tm4:r=2 class members take --gamma, not --eps")])
    def test_amplitude_messages_name_the_descriptor(self, capsys, argv,
                                                    want):
        # the family is None here; the messages once printed "None class
        # members require --gamma"
        code, out, err = run(capsys, "class", "--seq", "tm4:r=2", "--k", "1",
                             *argv)
        assert (code, out, err) == (1, "", f"error: {want}\n")


class TestFuzzRegressions:
    """Defects the seeded CLI fuzz (TestFuzz) found, one test each."""

    def test_x_list_starting_negative_is_a_domain_error(self, capsys):
        # argparse took "-1,30" for an option: SystemExit and a two-line
        # usage message instead of the domain error
        code, out, err = run(capsys, "eval", "--seq", "tm1:r=2", "--x",
                             "-1,30")
        assert (code, out) == (1, "")
        assert err == "error: x must satisfy 0 < x < inf, got -1.0\n"

    @pytest.mark.parametrize("cmd", [["moments", "--n", "0"], ["criteria"]])
    def test_offset_lost_beside_its_multiplier_refused(self, capsys, cmd):
        # (b - a)/a rounds to -1 at a = 5e21, b = 2.5: the moment window
        # once divided by zero (ZeroDivisionError traceback)
        code, out, err = run(capsys, cmd[0], "--seq",
                             "gamma:5000000000000000000000n+2.5", *cmd[1:])
        assert (code, out) == (1, "")
        assert err.startswith("error: gamma factor offset must be > 0 and "
                              "(b - a)/a > -1")

    @pytest.mark.parametrize("argv", [
        ["criteria", "--seq",
         "gamma:0.5n+3,5000000000000000000000n+5000000000000000000000"],
        ["eval", "--seq", "tm3:r=1500", "--x", "1"]], ids=["A=5e21", "A=4500"])
    def test_interpolant_window_too_wide_refused(self, capsys, argv):
        # A = 5e21: np.linspace once raised "Maximum allowed size exceeded";
        # tm3:r=1500 once built for 111 s in 767 MB before its panels failed,
        # and then a 1,024-panel cap refused both windows at once.  Now
        # panels are max(8, A) wide, so no window takes more than 12:
        # tm3:r=1500 builds in 5, and only the engine refuses the A = 5e21
        # product, at its tail
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        if argv[0] == "eval":
            assert (code, err) == (0, "")
            density = json.loads(out)["points"][0]["density"]
            want, _ = contour_log_densities(tm3(1500), 0.0)
            assert abs(math.log(density) - want[0]) <= 1e-10
        else:
            assert (code, out) == (3, "")
            assert err.startswith("numeric failure: ") and err.count("\n") == 1
            assert "needs a coarsest grid of" in err
            assert time.perf_counter() - start < 2.0

    def test_saddle_bracket_beyond_double_resolution_refused(self, capsys):
        # the rightmost pole 1 - b/a = -3.8e21 absorbs the bracket's first
        # width, so the saddle search once doubled 0 forever
        seq = "gamma:1.3n+5000000000000000000000"
        code, out, err = run(capsys, "convolve", "--seq-a", seq,
                             "--seq-b", seq)
        assert (code, out) == (3, "")
        assert "no double lies 1e-9 right of pole -3.84615e+21" in err

    def test_test_pole_on_a_pole_of_another_factor(self, capsys):
        # the poles 1 - (2/3 + 1) and 1 - 5/3 differ by rounding only, so
        # Gamma(3n+1) was taken at its pole -4: math.lgamma's ValueError
        code, out, err = run(capsys, "eval", "--seq",
                             "gamma:1n+2/3,1n+1,3n+1", "--x", "1e-13,1")
        assert (code, err) == (0, "")
        seq = parse_descriptor("gamma:1n+2/3,1n+1,3n+1")
        for point in json.loads(out)["points"]:
            want = meijer_log_density(seq, math.log(point["x"]))
            assert abs(math.log(point["density"]) - want) <= 1e-13


class TestInterpolantReach:
    """Windows the interpolant once refused (exit 3) now build: tm3:r=580
    had 30 panels 8 wide whose trailing sums, 1.0-1.2e-11 where |ln W| is
    near 8,000, were ln W's own rounding; tm4:r=1000's window was wider
    than 1,024 panels of 8 (panels max(8, A) wide build both in 5); and
    the small multipliers of the third product put |ln W| near 9,470 at
    x = 1e-20.  Each runs in one process, so its calls share one
    interpolant."""

    @pytest.mark.parametrize("seq", ["tm3:r=580", "tm4:r=1000",
                                     "gamma:0.092n+19.02,0.031n+10.74"])
    def test_eval_moments_criteria(self, capsys, seq):
        for cmd in (["eval", "--x", "1"], ["criteria"],
                    ["moments", "--n", "0..8"]):
            code, out, err = run(capsys, cmd[0], "--seq", seq, *cmd[1:])
            assert (code, err) == (0, ""), cmd
        results = json.loads(out)["results"]
        assert [r["n"] for r in results] == list(range(9))
        assert max(r["rel_error"] for r in results) <= _PASS_TOL

    def test_class_member(self, capsys):
        code, out, err = run(capsys, "class", "--seq", "tm3:r=580", "--k",
                             "1", "--gamma", "0.5", "--x", "1,10")
        assert (code, err) == (0, "")
        points = json.loads(out)["points"]
        assert [p["x"] for p in points] == [1.0, 10.0]
        assert all(p["member"] > 0 for p in points)


class TestEngineReach:
    """Points past the interpolant's window where the engine once refused
    (exit 3): its tail grid counted the knot's |ln x| on top of the
    symbol's phase, which the saddle cancels.  W underflows to 0.0 at
    both, so ln W is held to the tail law ln C + b ln x - g x^p, whose
    next term is about 1/sigma, sigma = (x/h)^(1/A), h = prod a^a."""

    @pytest.mark.parametrize("seq,x", [
        ("tm3:r=1", "1e18"), ("gamma:0.092n+19.02,0.031n+10.74", "10"),
        # its nested grids could not agree to 1e-10 below the rounding of
        # the symbol's phase, and it exited 3 after 2.5 s
        ("tm3:r=1", "1e24")])
    def test_eval_within_the_tail_law(self, capsys, seq, x):
        code, out, err = run(capsys, "eval", "--seq", seq, "--x", x)
        assert (code, err) == (0, "")
        assert json.loads(out)["points"][0]["density"] == 0.0
        s, log_x = parse_descriptor(seq), math.log(float(x))
        got = float(principal_solution(s).log_density(np.array([log_x]))[0])
        law = (s.tail_log_constant + s.tail_exponent * log_x
               - s.tail_coefficient * math.exp(s.tail_power * log_x))
        log_h = sum(a * math.log(a) for a, _ in s.factors)
        sigma = math.exp((log_x - log_h) / s.sum_a)
        rounding = 64.0 * np.finfo(float).eps * abs(law)
        assert abs(got - law) <= 1.0 / sigma + rounding


# the value ranges of ROADMAP item 15: valid and invalid numbers alike
_R = ["0", "-1", "2.5", "1", "2", "3", "40", "1e9", "x", ""]
_VALID = ["1", "2", "3", "4", "2/3", "0.5", "2.5", "1/3", "0.7", "1.3"]
_NUMBERS = _VALID + ["0", "-1", "nan", "inf", "1e300", "1e-300", "7/0",
                     "5000000000000000000000"]
_XS = ["0", "-1", "nan", "inf", "5e-324", "1.7e308", "1e18", "1e-4", "0.5",
       "1", "2", "30", "", "x"]
_AMPLITUDES = ["0", "0.5", "-0.5", "0.99", "1", "-1", "1e6", "nan", "inf",
               "-inf", "2.5", "-1e-3", "1e-300"]
_NS = ["0", "0..8", "3", "-1", "2..1", "0..3", "x", "1..2", "40"]


@st.composite
def _descriptor(draw, kinds=("tm", "any")):
    """tmN:r=<r>, or a gamma list of 1-4 factors whose numbers come from
    _NUMBERS, or for `class` all from _VALID, so that most of its lists
    reach the rotated route."""
    kind = draw(st.sampled_from(kinds))
    if kind == "tm":
        return f"tm{draw(st.integers(1, 4))}:r={draw(st.sampled_from(_R))}"
    pool = _VALID if kind == "valid" else _NUMBERS
    terms = [f"{draw(st.sampled_from(pool))}n+{draw(st.sampled_from(pool))}"
             for _ in range(draw(st.integers(1, 4)))]
    return "gamma:" + ",".join(terms)


@st.composite
def _argv(draw):
    cmd = draw(st.sampled_from(["eval", "moments", "criteria", "class",
                                "convolve"]))
    if cmd == "convolve":
        argv = [cmd, "--seq-a", draw(_descriptor()),
                "--seq-b", draw(_descriptor())]
    else:
        kinds = (("valid", "tm", "any", "valid") if cmd == "class"
                 else ("tm", "any"))
        argv = [cmd, "--seq", draw(_descriptor(kinds))]
    if cmd == "moments":
        argv += ["--n", draw(st.sampled_from(_NS))]
    if cmd == "class":
        # hypothesis favours the first entry of a list: k = 1 is admissible
        argv += ["--k", draw(st.sampled_from(["1", "-1", "2", "0", "-2"]))]
        # a recheck costs 20,000 evaluations of omega, so it is drawn less
        mode = draw(st.sampled_from(["amplitude"] * 3 + ["find"] * 2
                                    + ["recheck"]))
        if mode != "amplitude":
            argv += ["--find-gamma-max"]
            if mode == "recheck":
                argv += ["--mc-seed", str(draw(st.integers(0, 9)))]
            return argv
        argv += [draw(st.sampled_from(["--gamma", "--eps", "--gamma"])),
                 draw(st.sampled_from(_AMPLITUDES))]
    if cmd in ("eval", "class", "convolve") and draw(st.booleans()):
        xs = draw(st.lists(st.sampled_from(_XS), min_size=1, max_size=4))
        argv += ["--x", ",".join(xs)]
    return argv


class TestFuzz:
    """ROADMAP item 15: random calls of the five subcommands through
    cli.main exit 0, 1 or 3, raise nothing, warn nothing, print strict
    JSON on success and one error line otherwise."""

    @seed(3)
    @settings(max_examples=300, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_argv())
    def test_every_call_exits_cleanly(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main(list(argv))
        assert code in (0, 1, 3), (argv, code)
        if code == 0:
            json.loads(out.getvalue(), parse_constant=pytest.fail)
        else:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1, (argv, lines)
            assert lines[0].startswith(("error: ", "numeric failure: ")), \
                (argv, lines)
