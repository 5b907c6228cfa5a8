"""Import cost: SciPy subpackages other than scipy.special load only in the
one function that uses them, so closed-form CLI calls never import them."""

import json
import os
import subprocess
import sys

import gammamoments

_DEFERRED = ("scipy.optimize", "scipy.integrate", "scipy.interpolate")

# runs `import gammamoments`, then each argv list in turn through cli.main,
# and prints [exit code, deferred subpackages loaded so far] after each step
_SCRIPT = """
import contextlib, io, json, sys
import gammamoments
from gammamoments import cli
deferred = {deferred!r}
steps = [[None, [m for m in deferred if m in sys.modules]]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    steps.append([code, [m for m in deferred if m in sys.modules]])
print(json.dumps(steps))
""".format(deferred=_DEFERRED)


def _steps(*argvs):
    """[exit code, loaded deferred subpackages] after the import and each call."""
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
        ["class", "--seq", "tm1:r=2", "--k", "1", "--eps", "0.5"],
        ["class", "--seq", "tm2:r=3", "--k", "1", "--gamma", "1.0"],
        ["class", "--seq", "tm2:r=3", "--k", "1", "--find-gamma-max"],
        ["convolve", "--seq-a", "tm1:r=1", "--seq-b", "tm2:r=1"],
    ]
    steps = _steps(*argvs)
    assert steps[0] == [None, []], "import gammamoments"
    for argv, (code, loaded) in zip(argvs, steps[1:]):
        assert (code, loaded) == (0, []), " ".join(argv)


def test_guard_sees_a_deferred_import():
    # positive controls: a spline build and a finite Krein integral do load
    # their subpackage, so the guard above can fail
    for argv, module in [(["eval", "--seq", "tm3:r=1"], "scipy.interpolate"),
                         (["criteria", "--seq", "tm2:r=2"], "scipy.integrate")]:
        (_, before), (code, after) = _steps(argv)
        assert module not in before
        assert code == 0
        assert module in after, " ".join(argv)
