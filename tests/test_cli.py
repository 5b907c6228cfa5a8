"""Command-line interface: output formats, determinism, exit codes."""

import csv
import io
import json

import numpy as np
import pytest

import gammamoments.classes as classes
import gammamoments.cli as cli
import gammamoments.mellin as mellin
from gammamoments import class_member_tm3, contour_log_densities, tm4
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


class TestExitCodes:
    def test_usage_error_on_bad_amplitude(self, capsys):
        code, out, err = run(capsys, "class", "--seq", "tm1:r=2", "--k", "1",
                             "--eps", "1.5")
        assert code == 1
        assert out == ""
        assert "eps" in err

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
    ], ids=["missing-seq", "unknown-option", "contour-c", "bad-x",
            "bad-n-range", "bad-n-split", "moments-b0", "criteria-b0",
            "eval-b0", "eval-grid-overflow", "class-grid-overflow",
            "convolve-grid-overflow", "tm1-eps-nan", "tm3-gamma-nan"])
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
        for name in ("mellin_convolve", "mellin_convolve_many",
                     "_convolve_chunk"):
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
    ])
    def test_contour_factor_pairs(self, capsys, seq_a, seq_b):
        # the convolution route refused these: a spline factor's window
        # ends before the integrand does, or the quadrature never settles
        code, out, _ = run(capsys, "convolve", "--seq-a", seq_a,
                           "--seq-b", seq_b)
        assert code == 0
        vals = np.array([p["convolution"] for p in json.loads(out)["points"]])
        assert vals.size == 200
        assert np.all(np.isfinite(vals))
        # positive up to the end of the double range, where W underflows
        positive = int(np.sum(vals > 0.0))
        assert np.all(vals[:positive] > 0.0)
        assert np.all(vals[positive:] == 0.0)
        assert positive == 200 or vals[positive - 1] < 1e-300

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
        omega3 = classes.omega3

        def counted(*args, **kwargs):
            calls.append(args)
            return omega3(*args, **kwargs)
        monkeypatch.setattr(classes, "omega3", counted)
        code, out, _ = run(capsys, "class", "--seq", "tm3:r=3", "--k", "1",
                           "--gamma", "0.1")
        assert code == 0
        assert len(calls) == 1
        points = json.loads(out)["points"]
        xs = np.array([p["x"] for p in points])
        member = np.array([p["member"] for p in points])
        assert np.array_equal(member, class_member_tm3(3, 1, 0.1, xs))
