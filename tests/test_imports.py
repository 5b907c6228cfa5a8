"""Import cost: scipy.special is the only SciPy subpackage the package
imports, so no CLI call loads scipy.optimize, scipy.integrate or
scipy.interpolate."""

import json
import os
import subprocess
import sys

import gammamoments

_DEFERRED = ("scipy.optimize", "scipy.integrate", "scipy.interpolate")

# runs `import gammamoments`, then each step in turn: an argv list through
# cli.main, or a module name through importlib (exit code None); prints
# [exit code, deferred subpackages loaded so far] after each step
_SCRIPT = """
import contextlib, importlib, io, json, sys
import gammamoments
from gammamoments import cli
deferred = {deferred!r}
steps = [[None, [m for m in deferred if m in sys.modules]]]
for step in json.loads(sys.argv[1]):
    code = None
    if isinstance(step, str):
        importlib.import_module(step)
    else:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(step)
    steps.append([code, [m for m in deferred if m in sys.modules]])
print(json.dumps(steps))
""".format(deferred=_DEFERRED)


def _steps(*argvs):
    """[exit code, loaded deferred subpackages] after import and each step."""
    src = os.path.dirname(os.path.dirname(gammamoments.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, json.dumps(argvs)], env=env,
        capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


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
        assert (code, loaded) == (0, []), " ".join(argv)


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
        assert (code, loaded) == (0, []), " ".join(argv)


def test_guard_sees_a_deferred_import():
    # positive control: a deferred subpackage imported after a CLI call
    # shows up in the next step's list, so the guards above can fail
    (_, before), (code, during), (_, after) = _steps(
        ["eval", "--seq", "tm3:r=1"], "scipy.interpolate")
    assert code == 0
    assert "scipy.interpolate" not in before + during
    assert "scipy.interpolate" in after
