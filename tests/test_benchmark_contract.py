"""The benchmark's tracer looks package functions up by name; keep them there."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
