"""The benchmark looks package functions up by name; keep them there."""

import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gammamoments

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    # leave no bytecode cache in the benchmark's directory
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(tracer)
    finally:
        sys.dont_write_bytecode = writes
    return [(module, attr) for module, attr, *_ in tracer.TARGETS]


@pytest.mark.parametrize("module,attr", _targets())
def test_traced_function_resolves(module, attr):
    mod = importlib.import_module(f"gammamoments.{module}")
    assert callable(getattr(mod, attr, None)), f"gammamoments.{module}.{attr}"


def test_spline_cache_is_rewrappable():
    # Tracer.install rebuilds the cache around the uncached build
    from gammamoments.weights import _density_spline
    assert callable(_density_spline.__wrapped__)
    assert _density_spline.cache_parameters()["maxsize"] is not None


def _package_names():
    """Every gm.<name> in the benchmark's workloads and child, read as text
    (no import, so no bytecode cache), plus the perturbation_<family>
    names child.py builds with getattr from each vanishing case's family."""
    workloads = (PERFBENCH / "workloads.py").read_text(encoding="utf-8")
    child = (PERFBENCH / "child.py").read_text(encoding="utf-8")
    names = set(re.findall(r"\bgm\.([A-Za-z_]\w*)", workloads + child))
    assert 'getattr(gm, f"perturbation_{case[\'family\']}")' in child
    families = set(re.findall(r'_case\("[^"]*", "(\w+)"', workloads))
    assert families == {"tm1", "tm2", "tm3"}
    return sorted(names | {f"perturbation_{f}" for f in families})


@pytest.mark.parametrize("name", _package_names())
def test_benchmark_package_name_resolves(name):
    assert hasattr(gammamoments, name), f"gammamoments.{name}"


# a traced CLI run imports the package and its CLI, then installs the
# tracer, which looks every target's module up in sys.modules
_INSTALL = """
import importlib.util, sys
import gammamoments, gammamoments.cli
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
tracer.Tracer().install()
"""


def test_tracer_installs_after_the_cli_import():
    src = os.path.dirname(os.path.dirname(gammamoments.__file__))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _INSTALL, str(TRACER)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
