"""Import cost: `import gammamoments` loads no SciPy module.

scipy.special is imported inside each function that evaluates one of its
functions, so it loads at the first evaluation; a process that never
evaluates one never loads it.  The real ln Gamma of every moment target
comes from math.lgamma, so the closed form of a single factor Gamma(an + b)
with its moment checks and all three criteria, and a usage error, load no
SciPy module, nor numpy.ma, which SciPy loads but the package never
needs.  K0 (the second family) and the complex log-gamma of the
contour engine load scipy.special.  It is the only SciPy subpackage the
package imports, so no CLI call loads scipy.optimize, scipy.integrate or
scipy.interpolate.

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
_WATCHED = ("scipy", "scipy.special") + _DEFERRED

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
    # np.unique in the moment integral once loaded numpy.ma (15-40 ms)
    steps = _steps(*argvs, watched=("numpy.ma",) + _WATCHED)
    assert steps[0] == [None, []], "import gammamoments, then cli"
    for argv, (code, loaded) in zip(argvs, steps[1:]):
        assert loaded == [], " ".join(argv)
    assert [code for code, _ in steps[1:]] == [0, 0, 0, 1, 0, 0, 0, 0]


def test_first_evaluation_loads_scipy_special():
    # positive controls: K0 in the second family's closed form is the
    # first special function these calls evaluate, so the guard above can
    # fail; each runs in a fresh process
    for argv in (["eval", "--seq", "tm2:r=2"],
                 ["moments", "--seq", "tm2:r=3", "--n", "0"]):
        (_, before), (code, after) = _steps(argv)
        assert before == [], " ".join(argv)
        assert (code, after) == (0, ["scipy", "scipy.special"]), " ".join(argv)


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
_BLAS_FREE = ("mellin.py", "weights.py")
_BLAS_CALLS = {"dot", "matmul", "tensordot", "inner", "vdot", "polyfit"}


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
    np.einsum("ij,jk->ik", a, b, optimize=True)
    np.einsum("ij,jk->ik", a, b)

def _convolve_chunk(h, w):
    return h @ w
"""
    assert [what for _, what in _blas_uses(source)] == [
        "@", "@", "np.dot", "np.linalg.solve", "np.polyfit",
        "einsum(optimize=...)"]
