"""Command-line interface: evaluate densities, verify moments, run
uniqueness criteria, construct class members, convolve densities.

Every subcommand takes its densities from a closed form or from the
contour engine.  `class` prints, for every family, the member
W + amplitude * omega from the base and omega columns it prints, after
the checks of `classes.class_member` (an admissible amplitude, and no
negative member).  `class --find-gamma-max --mc-seed` rechecks W +
gamma_max omega at the bound it has just certified, at 20,000 random
points (`classes.certify_nonnegative`).  `convolve` evaluates
the Mellin convolution W_a * W_b as the principal density of the product
sequence rho_a(n) rho_b(n), whose factor list is the two lists joined,
on a default grid read off that sequence's tail law; the convolution
integral in `mellin` is kept only as an oracle for it.

Exit codes: 0 success/decided, 1 usage, constraint or domain violation
(an x outside (0, inf), or a stdout closed by its reader), 2 criteria
undecided, 3 numeric convergence failure.  All JSON artifacts carry a "schema_version" field; identical
configs produce byte-identical output.

As the program entry (the console script and `python -m
gammamoments.cli`, which call `main()` with no argv), the process freezes
its heap into the permanent generation once the subcommand returns, so
the interpreter's final cyclic collections skip every object numpy and
SciPy made; the process ends anyway.  In-process callers pass argv and
keep normal garbage collection.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import os
import re
import sys

import numpy as np

from . import __version__
from .errors import (ConstraintError, ConvergenceError, DomainError,
                     GammomentsError, InconclusiveError, RefusesError,
                     SearchError, TruncationError, UndecidedError, _check_x)
from .mellin import contour_log_densities
from .moments import gamma_product, parse_descriptor
from .weights import principal_solution

SCHEMA_VERSION = 1

_EXIT_OK = 0
_EXIT_USAGE = 1
_EXIT_UNDECIDED = 2
_EXIT_NUMERIC = 3


def _sanitize(obj):
    """Strict JSON has no Infinity/NaN; encode them as strings."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)  # "inf" | "-inf" | "nan"
    return obj


def _emit_json(payload, path):
    payload = _sanitize({"schema_version": SCHEMA_VERSION, **payload})
    text = json.dumps(payload, sort_keys=True, indent=2,
                      allow_nan=False) + "\n"
    _write(text, path)


def _emit_table(args, payload, key, header, rows):
    """One table, as CSV (header, then rows) or as JSON: payload with key
    holding one object per row.  Floats are written by repr, ints plain."""
    rows = [[int(v) if isinstance(v, (int, np.integer)) else float(v)
             for v in row] for row in rows]
    if args.emit == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([repr(v) for v in row] for row in rows)
        _write(buf.getvalue(), args.output)
    else:
        _emit_json({**payload, key: [dict(zip(header, row)) for row in rows]},
                   args.output)


def _write(text, path):
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConstraintError(
                f"cannot write {path}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _parse_xs(text):
    try:
        return np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError:
        raise ConstraintError(
            f"--x expects comma-separated numbers, got {text!r}") from None


def _parse_n_range(text):
    lo, sep, hi = text.partition("..")
    try:
        ns = list(range(int(lo), int(hi if sep else lo) + 1))
    except ValueError:
        raise ConstraintError(
            f"--n expects an integer or a range like 0..8, got {text!r}") from None
    if not ns:
        raise ConstraintError(f"--n range {text!r} is empty; write it low..high")
    return ns


def _default_grid(growth, certified=False):
    """200 log-spaced x from 1e-4 to where -ln W ~ g x^p reaches 300 nats,
    or 690 (W ~ 1e-300) for a tail certified by a closed form."""
    g, p = growth
    base, exponent = (690.0 if certified else 300.0) / g, 1.0 / p
    try:
        x_hi = base ** exponent
    except OverflowError:
        raise ConstraintError(
            f"the default grid would end at {base:g}^{exponent:g}, beyond "
            "the double range; pass the evaluation points with --x") from None
    return np.logspace(-4.0, np.log10(x_hi), 200)


# -- subcommands ------------------------------------------------------------

def _cmd_eval(args):
    seq = parse_descriptor(args.seq)
    w = principal_solution(seq)
    xs = (_parse_xs(args.x) if args.x
          else _default_grid(w.growth, w.tail_certified))
    _emit_table(args, {
        "command": "eval",
        "seq": seq.descriptor(),
        "alpha0": w.alpha0,
        "growth": {"coefficient": w.growth[0], "power": w.growth[1]},
        "tail_certified": w.tail_certified,
    }, "points", ["x", "density"], zip(xs, np.atleast_1d(w.evaluate(xs))))
    return _EXIT_OK


def _cmd_moments(args):
    from .verify import check_moment
    seq = parse_descriptor(args.seq)
    w = principal_solution(seq)
    results = [check_moment(w, seq, n) for n in _parse_n_range(args.n)]
    _emit_table(args, {"command": "moments", "seq": seq.descriptor()},
                "results",
                ["n", "log_integral", "log_target", "rel_error", "nodes_used"],
                [(r.n, r.log_integral, r.log_target, r.rel_error, r.nodes_used)
                 for r in results])
    return _EXIT_OK


def _json_only(args, what):
    """A report with nested records has no single table to write as CSV."""
    if args.emit == "csv":
        raise ConstraintError(f"{what} writes JSON only; drop --emit csv")


def _cmd_criteria(args):
    from .criteria import full_report
    _json_only(args, "criteria")
    seq = parse_descriptor(args.seq)
    w = principal_solution(seq)
    report = full_report(seq, w)
    payload = {"command": "criteria", "seq": seq.descriptor(),
               **report.to_dict()}
    if not args.full_terms:
        payload["c1"] = dict(payload["c1"])
        payload["c1"]["terms"] = payload["c1"]["terms"][:10]
    _emit_json(payload, args.output)
    return _EXIT_OK if report.overall != "Undecided" else _EXIT_UNDECIDED


def _cmd_class(args):
    from . import classes as cls
    seq = parse_descriptor(args.seq)
    k = args.k
    if k is None:
        raise ConstraintError("class construction requires --k")
    if args.mc_seed is not None and not args.find_gamma_max:
        raise ConstraintError("--mc-seed applies only with --find-gamma-max")
    pert = cls.perturbation(seq, k)

    if args.find_gamma_max:
        _json_only(args, "--find-gamma-max")
        if pert.family != "tm2":
            raise ConstraintError(
                "--find-gamma-max applies to tm2 sequences "
                "(amplitude bound of the K0-ratio family)")
        bound = cls.find_gamma_max(pert.r, k)
        payload = {"command": "class", "seq": seq.descriptor(), "k": k,
                   "gamma_max": bound, "safety_factor": cls._SAFETY}
        if args.mc_seed is not None:
            # the member at the bound just certified, without a second search
            w = principal_solution(seq)
            ok, min_val = cls.certify_nonnegative(
                lambda xs: w.evaluate(xs) + bound * pert.evaluate(xs),
                1e-8, 1e6, 20000, args.mc_seed)
            payload["monte_carlo"] = {"seed": args.mc_seed,
                                      "nonnegative": bool(ok),
                                      "min_value": min_val}
        _emit_json(payload, args.output)
        return _EXIT_OK

    w = principal_solution(seq)
    xs = (_parse_xs(args.x) if args.x
          else _default_grid(w.growth, w.tail_certified))
    flag, amplitude = (("--eps", args.eps) if pert.family == "tm1"
                       else ("--gamma", args.gamma))
    if amplitude is None:
        raise ConstraintError(f"{pert.family} class members require {flag}")
    base, omega, member = cls._member_columns(pert, amplitude, xs)
    _emit_table(args, {"command": "class", "seq": seq.descriptor(), "k": k,
                       "amplitude": amplitude},
                "points", ["x", "base", "member", "omega"],
                zip(xs, base, member, omega))
    return _EXIT_OK


def _cmd_convolve(args):
    seq_a = parse_descriptor(args.seq_a)
    seq_b = parse_descriptor(args.seq_b)
    # M[W_a * W_b](s) = rho_a(s-1) rho_b(s-1): the convolution is the
    # principal density of the product sequence
    product = gamma_product(seq_a.factors + seq_b.factors)
    xs = (_check_x(_parse_xs(args.x)) if args.x
          else _default_grid((product.tail_coefficient, product.tail_power)))
    log_w, _ = contour_log_densities(product, np.log(xs))
    with np.errstate(under="ignore"):
        vals = np.exp(log_w)
    _emit_table(args, {"command": "convolve", "seq_a": seq_a.descriptor(),
                       "seq_b": seq_b.descriptor()},
                "points", ["x", "convolution"], zip(xs, vals))
    return _EXIT_OK


# -- parser -----------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error; 2 means "criteria undecided" here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gammamoments",
        description="Gamma-product Stieltjes moment problems: densities, "
                    "moment verification, uniqueness criteria, and "
                    "non-unique solution families.",
        epilog="Sequence descriptors: tm1:r=2, tm2:r=3, tm3:r=1, tm4:r=2, "
               "or gamma:2n+1,n+1,n+1.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--emit", choices=("json", "csv"), default="json")
        p.add_argument("--output", help="write to file instead of stdout")

    p = sub.add_parser("eval", help="evaluate a principal density")
    p.add_argument("--seq", required=True)
    p.add_argument("--x", help="comma-separated evaluation points")
    common(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("moments", help="verify moments against rho(n)")
    p.add_argument("--seq", required=True)
    p.add_argument("--n", default="0..8", help="single n or range like 0..8")
    p.add_argument("--table", action="store_const", dest="emit", const="csv",
                   help="shorthand for --emit csv")
    common(p)
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("criteria", help="run the three uniqueness criteria")
    p.add_argument("--seq", required=True)
    p.add_argument("--full-terms", action="store_true",
                   help="include every Carleman term instead of the first 10")
    common(p)
    p.set_defaults(func=_cmd_criteria)

    p = sub.add_parser("class", help="construct non-unique solution members")
    p.add_argument("--seq", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--eps", type=float, help="tm1 amplitude, |eps| < 1")
    p.add_argument("--gamma", type=float, help="tm2/tm3 amplitude")
    p.add_argument("--x", help="comma-separated evaluation points")
    p.add_argument("--find-gamma-max", action="store_true",
                   help="print the certified tm2 amplitude bound")
    p.add_argument("--mc-seed", type=int,
                   help="Monte Carlo nonnegativity recheck seed "
                        "(with --find-gamma-max)")
    common(p)
    p.set_defaults(func=_cmd_class)

    p = sub.add_parser("convolve", help="Mellin-convolve two principal "
                       "densities (the product sequence's density)")
    p.add_argument("--seq-a", required=True)
    p.add_argument("--seq-b", required=True)
    p.add_argument("--x", help="comma-separated evaluation points")
    common(p)
    p.set_defaults(func=_cmd_convolve)
    return parser


def main(argv=None) -> int:
    """Run one subcommand and return its exit code.

    With argv None, main is the program entry: a stdout closed by its
    reader exits 1 without a traceback, and whatever the exit code, the
    heap is frozen (`gc.freeze`) before the interpreter's shutdown, whose
    cyclic collections would otherwise walk every object numpy and SciPy
    made, to free memory the OS takes back anyway.  atexit handlers and
    the stdio flush still run.
    """
    if argv is not None:
        return _run(argv)
    try:
        try:
            return _run(argv)
        finally:
            sys.stdout.flush()  # a closed pipe fails here, not at shutdown
    except BrokenPipeError:
        # the Python docs' SIGPIPE recipe: point fd 1 at devnull so the
        # flush at shutdown cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return _EXIT_USAGE
    finally:
        gc.freeze()


_NEGATIVE = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def _join_amplitudes(argv):
    """Write "--gamma -1e-3" as "--gamma=-1e-3", and so for --eps.

    argparse takes a token that starts with "-" for an option unless it
    looks like a plain negative number (-2.3), so a negative amplitude in
    exponent or special form (-1e-3, -inf) would lose its flag's value.
    """
    out = []
    for arg in argv:
        if out and out[-1] in ("--eps", "--gamma") and _NEGATIVE.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _run(argv):
    parser = build_parser()
    args = parser.parse_args(
        _join_amplitudes(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (ConstraintError, DomainError, RefusesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except UndecidedError as exc:
        print(f"undecided: {exc}", file=sys.stderr)
        return _EXIT_UNDECIDED
    except (ConvergenceError, TruncationError, SearchError,
            InconclusiveError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    except GammomentsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
