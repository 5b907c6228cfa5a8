"""Import cost: no process of the package loads SciPy or numpy.random.

Every special function the package evaluates (ln Gamma, psi, the Hurwitz
zeta, K0) comes from gammamoments.special on NumPy, and the real ln Gamma
of every moment target from math.lgamma, so neither `import gammamoments`
nor any CLI call loads a SciPy module; SciPy and mpmath are test oracles
only.  The closed form of a single factor Gamma(an + b) with its moment
checks and all three criteria, and a usage error, load neither numpy.ma,
which SciPy once loaded but the package never needs, nor
numpy.polynomial, which only an interpolant build needs.

The Monte Carlo recheck of `class --find-gamma-max --mc-seed` draws its
sample from the standard library's random, so neither the import, nor
any CLI call of the benchmark, nor its vanishing workload loads
numpy.random, whose import alone costs a process about 6 MB of RSS.

The contour engine and the Chebyshev interpolant make no BLAS call, so a
contour process never pays OpenBLAS's first-call buffers."""

import ast
import json
import os
import subprocess
import sys

import gammamoments

_DEFERRED = ("scipy.optimize", "scipy.integrate", "scipy.interpolate")
# importing any SciPy module first imports the package `scipy` itself, so
# "scipy" missing from sys.modules means no SciPy module is loaded
_WATCHED = ("scipy", "scipy.special") + _DEFERRED + ("numpy.random",)

# runs `import gammamoments`, then each step in turn: an argv list through
# cli.main, or a module name through importlib (exit code None); prints
# [exit code, watched modules loaded so far] after each step
_SCRIPT = """
import contextlib, importlib, io, json, sys
import gammamoments
from gammamoments import cli
watched = json.loads(sys.argv[2])
steps = [[None, [m for m in watched if m in sys.modules]]]
for step in json.loads(sys.argv[1]):
    code = None
    if isinstance(step, str):
        importlib.import_module(step)
    else:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(step)
    steps.append([code, [m for m in watched if m in sys.modules]])
print(json.dumps(steps))
"""


def _steps(*argvs, watched=_WATCHED):
    """[exit code, loaded watched modules] after import and each step."""
    src = os.path.dirname(os.path.dirname(gammamoments.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps(argvs), json.dumps(watched)],
        env=env, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_and_closed_forms_load_no_scipy():
    argvs = [
        ["eval", "--seq", "tm1:r=2"],
        ["class", "--seq", "tm1:r=2", "--k", "1", "--eps", "0.5"],
        ["eval", "--seq", "gamma:4n+1"],  # read off as the first family
        ["moments", "--seq", "tm1:r=1", "--n", "a..b"],  # usage error
        ["moments", "--seq", "tm1:r=2", "--n", "0..8"],
        ["criteria", "--seq", "tm1:r=1"],
        ["criteria", "--seq", "gamma:2.02n+1"],
        ["criteria", "--seq", "gamma:2.5n+0.7"],  # one factor, b != 1
    ]
    # np.unique in the moment integral once loaded numpy.ma (15-40 ms),
    # and weights' top-level import numpy.polynomial (about 6 ms)
    steps = _steps(*argvs, watched=("numpy.ma", "numpy.polynomial")
                   + _WATCHED)
    assert steps[0] == [None, []], "import gammamoments, then cli"
    for argv, (code, loaded) in zip(argvs, steps[1:]):
        assert loaded == [], " ".join(argv)
    assert [code for code, _ in steps[1:]] == [0, 0, 0, 1, 0, 0, 0, 0]
    # every CLI call of the benchmark's workloads, K0 and contour ones
    # too, and a rotated class member and a contour density's criteria
    steps = _steps(*_BENCHMARK_CALLS,
                   ["class", "--seq", "tm3:r=3", "--k", "1", "--gamma", "0.5"],
                   ["criteria", "--seq", "tm3:r=1"])
    for argv, (code, loaded) in zip(_BENCHMARK_CALLS, steps[1:]):
        assert (code, loaded) == (0, []), " ".join(argv)
    assert steps[-2:] == [[0, []], [0, []]]


# the CLI calls of perfbench/workloads.py (cli_closed_form, contour_cli)
_BENCHMARK_CALLS = [
    ["eval", "--seq", "tm1:r=2"],
    ["eval", "--seq", "tm2:r=2"],
    ["moments", "--seq", "tm1:r=2", "--n", "0..8"],
    ["moments", "--seq", "tm2:r=3", "--n", "0..8"],
    ["criteria", "--seq", "tm1:r=1"],
    ["criteria", "--seq", "tm2:r=2"],
    ["class", "--seq", "tm1:r=2", "--k", "1", "--eps", "0.5"],
    ["class", "--seq", "tm2:r=3", "--k", "1", "--gamma", "1.0"],
    ["class", "--seq", "tm2:r=3", "--k", "1", "--find-gamma-max",
     "--mc-seed", "1"],
    ["convolve", "--seq-a", "tm1:r=1", "--seq-b", "tm2:r=1"],
    ["class", "--seq", "tm2:r=9", "--k", "1", "--find-gamma-max"],
    ["class", "--seq", "tm2:r=40", "--k", "1", "--find-gamma-max"],
    ["eval", "--seq", "tm3:r=1"],
    ["moments", "--seq", "tm4:r=1", "--n", "0..8"],
    ["criteria", "--seq", "gamma:2.02n+1"],
]


def test_vanishing_workload_loads_no_scipy():
    # the benchmark's library workload: check_vanishing for omega1, omega2
    # (the complex K0) and omega3 (the rotated contour) in one process,
    # which loads no numpy.random either
    script = """
import json, sys
import gammamoments as gm
for family, r, k, ns in (("tm1", 2, 1, range(9)), ("tm2", 3, 1, range(9)),
                         ("tm3", 3, 1, (0, 8))):
    pert = getattr(gm, "perturbation_" + family)(r, k)
    for n in ns:
        gm.check_vanishing(pert, pert.seq, n)
print(json.dumps([m for m in sys.modules if m.split(".")[0] == "scipy"
                  or m == "numpy.random"]))
"""
    src = os.path.dirname(os.path.dirname(gammamoments.__file__))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=300, check=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_exact_sum_a_loads_no_fractions():
    # A is summed as integer ratios; fractions (or decimal) would add
    # about 0.4 MB to every criteria call.  The last step is the control.
    watched = ("fractions", "decimal")
    argvs = [["criteria", "--seq", "gamma:2.02n+1"],
             ["criteria", "--seq", "gamma:0.7n+1,0.6n+1,0.7n+1"]]
    steps = _steps(*argvs, "fractions", watched=watched)
    # importing fractions imports decimal too
    assert [step[1] for step in steps] == [[], [], [], list(watched)]
    assert [step[0] for step in steps[1:3]] == [0, 0]


def _deferred(loaded):
    return [m for m in loaded if m in _DEFERRED]


def test_closed_form_calls_skip_deferred_subpackages():
    argvs = [
        ["eval", "--seq", "tm1:r=2"],
        ["eval", "--seq", "tm2:r=2"],
        ["moments", "--seq", "tm2:r=3", "--n", "0..8"],
        ["criteria", "--seq", "tm1:r=1"],
        ["criteria", "--seq", "tm2:r=2"],
        ["class", "--seq", "tm1:r=2", "--k", "1", "--eps", "0.5"],
        ["class", "--seq", "tm2:r=3", "--k", "1", "--gamma", "1.0"],
        ["class", "--seq", "tm2:r=3", "--k", "1", "--find-gamma-max"],
        ["convolve", "--seq-a", "tm1:r=1", "--seq-b", "tm2:r=1"],
    ]
    steps = _steps(*argvs)
    assert steps[0] == [None, []], "import gammamoments"
    for argv, (code, loaded) in zip(argvs, steps[1:]):
        assert (code, _deferred(loaded)) == (0, []), " ".join(argv)


def test_contour_calls_skip_deferred_subpackages():
    # interpolant builds and Krein quadratures run on NumPy alone
    argvs = [
        ["eval", "--seq", "tm3:r=1"],
        ["moments", "--seq", "tm4:r=1", "--n", "0..8"],
        ["criteria", "--seq", "gamma:2.02n+1"],
    ]
    steps = _steps(*argvs)
    assert steps[0] == [None, []], "import gammamoments"
    for argv, (code, loaded) in zip(argvs, steps[1:]):
        assert (code, _deferred(loaded)) == (0, []), " ".join(argv)


def test_guard_sees_a_deferred_import():
    # positive control: a deferred subpackage imported after a CLI call
    # shows up in the next step's list, so the guards above can fail
    (_, before), (code, during), (_, after) = _steps(
        ["eval", "--seq", "tm3:r=1"], "scipy.interpolate")
    assert code == 0
    assert "scipy.interpolate" not in before + during
    assert "scipy.interpolate" in after


# The first BLAS product in a process costs it about 0.5 MB of peak RSS
# (OpenBLAS's buffers), and the benchmark's 10% `peak_rss_mb` bound would
# not catch that coming back, so the engine (mellin.py) and the
# interpolant (weights.py) contract with einsum at optimize=False: with
# optimize, einsum goes through tensordot, and so BLAS, again.  Only
# _convolve_chunk, the convolution oracle, keeps its matrix products.
# The criteria (criteria.py) fit slopes in closed form, as polyfit runs
# LAPACK's lstsq; leggauss, which runs its eigvalsh, stays barred too.
_BLAS_FREE = ("mellin.py", "weights.py", "criteria.py")
_BLAS_CALLS = {"dot", "matmul", "tensordot", "inner", "vdot", "polyfit",
               "leggauss"}


def _blas_uses(source):
    """(line, what) of every BLAS-backed product in source outside
    _convolve_chunk."""
    found = []

    def visit(node):
        if isinstance(node, ast.FunctionDef) and node.name == "_convolve_chunk":
            return
        if (isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.MatMult)):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Call):
            path = ast.unparse(node.func).split(".")
            if path[-1] in _BLAS_CALLS or "linalg" in path:
                found.append((node.lineno, ".".join(path)))
            elif path[-1] == "einsum" and any(k.arg == "optimize"
                                              for k in node.keywords):
                found.append((node.lineno, "einsum(optimize=...)"))
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(ast.parse(source))
    return found


def test_engine_and_interpolant_make_no_blas_call():
    package = os.path.dirname(gammamoments.__file__)
    for name in _BLAS_FREE:
        with open(os.path.join(package, name), encoding="utf-8") as f:
            assert _blas_uses(f.read()) == [], name


def test_guard_sees_a_blas_call():
    # positive control: each kind the guard looks for, and the one exemption
    source = """
def _phase_sum(a, b):
    a @ b
    a @= b
    np.dot(a, b)
    np.linalg.solve(a, b)
    np.polyfit(a, b, 1)
    leggauss(64)
    np.einsum("ij,jk->ik", a, b, optimize=True)
    np.einsum("ij,jk->ik", a, b)

def _convolve_chunk(h, w):
    return h @ w
"""
    assert [what for _, what in _blas_uses(source)] == [
        "@", "@", "np.dot", "np.linalg.solve", "np.polyfit", "leggauss",
        "einsum(optimize=...)"]
