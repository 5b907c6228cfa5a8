"""Command-line interface: output formats, determinism, exit codes."""

import csv
import gc
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gammamoments.classes as classes
import gammamoments.cli as cli
import gammamoments.mellin as mellin
import gammamoments.weights as weights
from gammamoments import (class_member, contour_log_densities, tm2, tm3,
                          tm4)
from gammamoments.cli import main


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
        assert (payload["overall"], code) in (("NonUnique", 0),
                                              ("Undecided", 2))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("seq", ["tm1:r=20", "tm1:r=40", "tm1:r=200",
                                     "tm2:r=40"])
    def test_criteria_large_r(self, capsys, seq):
        # Krein once squared x past the double range and the moment window
        # was cut at the smallest double: exit 1 with a DomainError
        code, out, err = run(capsys, "criteria", "--seq", seq)
        assert code == 0, err
        assert json.loads(out)["overall"] == "NonUnique"

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
        _, first, _ = run(capsys, "class", "--seq", "tm2:r=3", "--k", "1",
                          "--find-gamma-max", "--mc-seed", "42")
        _, second, _ = run(capsys, "class", "--seq", "tm2:r=3", "--k", "1",
                          "--find-gamma-max", "--mc-seed", "42")
        assert first == second
        payload = json.loads(first)
        assert payload["monte_carlo"]["nonnegative"] is True

    def test_recheck_searches_once(self, capsys, monkeypatch):
        # the recheck once went through class_member, whose amplitude
        # check ran the search again for the bound just certified
        calls = []
        search = classes.find_gamma_max
        monkeypatch.setattr(classes, "find_gamma_max",
                            lambda r, k: calls.append((r, k)) or search(r, k))
        code, out, _ = run(capsys, "class", "--seq", "tm2:r=3", "--k", "1",
                           "--find-gamma-max", "--mc-seed", "42")
        assert code == 0
        assert calls == [(3, 1)]
        # the record one class_member call on the whole sorted sample gives
        bound = search(3, 1)
        rng = np.random.default_rng(42)
        xs = np.sort(np.exp(rng.uniform(np.log(1e-8), np.log(1e6), 20000)))
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
        # Re beta - 1 rounds to 0 at r = 1e8: once a ZeroDivisionError
        code, out, err = run(capsys, "class", "--seq", "tm2:r=100000000",
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
        # reports that have no table once printed JSON for --emit csv
        ["criteria", "--seq", "tm1:r=1", "--emit", "csv"],
        ["class", "--seq", "tm2:r=3", "--k", "1", "--find-gamma-max",
         "--emit", "csv"],
        # a negative seed once ended in numpy's ValueError traceback
        ["class", "--seq", "tm2:r=3", "--k", "1", "--find-gamma-max",
         "--mc-seed", "-1"],
        ["class", "--seq", "tm2:r=3", "--gamma", "1.0"],
        ["class", "--seq", "tm1:r=2", "--k", "1", "--find-gamma-max"],
        ["class", "--seq", "tm3:r=3", "--k", "1", "--find-gamma-max"],
        ["eval", "--seq", "gamma:0n+1"],
        # every entry that takes x raises DomainError outside (0, inf)
        *([cmd, *seq, "--x", x]
          for cmd, *seq in (["eval", "--seq", "tm3:r=1"],
                            ["class", "--seq", "tm2:r=3", "--k", "1",
                             "--gamma", "1.0"],
                            ["convolve", "--seq-a", "tm1:r=1",
                             "--seq-b", "tm2:r=1"])
          for x in ("0", "inf", "nan")),
    ], ids=["missing-seq", "unknown-option", "contour-c", "bad-x",
            "bad-n-range", "bad-n-split", "moments-b0", "criteria-b0",
            "eval-b0", "eval-grid-overflow", "class-grid-overflow",
            "convolve-grid-overflow", "tm1-eps-nan", "tm3-gamma-nan",
            "tm2-gamma-nan", "tm1-eps-inf", "tm2-gamma-inf", "tm3-gamma-inf",
            "zero-denominator-a", "zero-denominator-b",
            "reversed-n-range", "tm3-member-negative", "criteria-csv",
            "find-gamma-max-csv", "mc-seed-negative", "class-no-k",
            "find-gamma-max-tm1", "find-gamma-max-tm3", "eval-a0",
            *(f"{cmd}-x-{x}" for cmd in ("eval", "class", "convolve")
              for x in ("0", "inf", "nan"))])
    def test_usage_errors_exit_1(self, capsys, argv):
        # 2 is the code for "criteria undecided", never for bad arguments;
        # any other exception would escape main as a traceback
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

    def test_undecided_exit(self, capsys, monkeypatch):
        import gammamoments.criteria as crit
        from gammamoments import UndecidedError

        def fake(seq, w, **kw):
            raise UndecidedError("forced for the exit-code test")
        monkeypatch.setattr(crit, "full_report", fake)
        code, _, err = run(capsys, "criteria", "--seq", "tm1:r=2")
        assert code == 2
        assert "undecided" in err

    def test_numeric_failure_exit(self, capsys, monkeypatch):
        import gammamoments.verify as verify
        from gammamoments import ConvergenceError

        def fake(w, seq, n, **kw):
            raise ConvergenceError("forced for the exit-code test")
        monkeypatch.setattr(verify, "check_moment", fake)
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
        # density is evaluated once for base and once inside omega
        calls = []
        for module in (weights, classes):
            true_log_w = getattr(module, log_w)
            monkeypatch.setattr(
                module, log_w,
                lambda *a, f=true_log_w: calls.append(a) or f(*a))
        code, out, _ = run(capsys, "class", "--seq", seq, "--k", "1", flag,
                           str(amplitude))
        assert code == 0
        assert len(calls) == 2
        for point in json.loads(out)["points"]:
            assert point["member"] == (point["base"]
                                       + amplitude * point["omega"])


    def test_class_names_first_negative_x(self, capsys):
        # the member is positive at 0.001 and negative at 0.5 and 1
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
    return subprocess.run([sys.executable, *args], env=env,
                          stderr=subprocess.PIPE, timeout=300, **kwargs)


def _entry(*argv, **kwargs):
    """`python -m gammamoments.cli argv`, which calls main() with no argv."""
    return _python("-m", "gammamoments.cli", *argv, **kwargs)


class TestProgramEntry:
    """The program entry freezes the heap before exit and turns a closed
    stdout into exit 1; neither changes what a call prints or returns."""

    @pytest.mark.parametrize("argv,want", [
        (["eval", "--seq", "tm1:r=2"], 0),
        (["moments", "--seq", "tm1:r=1", "--n", "5..2"], 1),
        (["criteria", "--seq", "gamma:0.7n+1,0.6n+1,0.7n+1"], 2),
        (["class", "--seq", "tm2:r=100000000", "--k", "1",
          "--find-gamma-max"], 3),
    ], ids=["ok", "usage", "undecided", "numeric"])
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
