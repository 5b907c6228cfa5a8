"""Span recorder that wraps gammamoments' public functions from outside.

`Tracer.install()` replaces each target function in every loaded
gammamoments module that refers to it, so calls made through
``from .special import ln_gamma`` and the like are recorded too.  Each
call becomes one span ``[name, start, end, parent, quantities]`` kept in
memory; `Tracer.write()` dumps them as JSON when the process ends, and
`aggregate()` turns the span files of one workload pass into the
per-layer metrics, with self time = span duration minus its children's.
"""

import functools
import json
import sys
import time

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _size(index, name):
    return lambda args, kwargs, result: int(np.size(_arg(args, kwargs, index, name)))


def _nodes_used(args, kwargs, result):
    return int(result.nodes_used)


# module, attribute, span name, counted quantity, how to count it per call
TARGETS = [
    ("special", "ln_gamma", "special.ln_gamma", "points", _size(0, "z")),
    ("special", "bessel_k0_complex", "special.bessel_k0_complex", "points",
     _size(0, "z")),
    ("special", "log_bessel_k0", "special.log_bessel_k0", "points", _size(0, "x")),
    ("moments", "mellin_symbol", "moments.mellin_symbol", "points", _size(1, "s")),
    ("mellin", "contour_log_density", "mellin.contour_log_density", None, None),
    ("mellin", "inverse_mellin_log", "mellin.inverse_mellin_log", "nodes",
     lambda args, kwargs, result: int(_arg(args, kwargs, 2, "spec").n_points)),
    ("mellin", "adapted_contour", "mellin.adapted_contour", None, None),
    ("mellin", "mellin_convolve_many", "mellin.mellin_convolve_many", "points",
     _size(2, "xs")),
    ("weights", "_spline_log_evaluate", "weights.log_evaluate", "points",
     _size(1, "x")),
    ("verify", "check_moment", "verify.check_moment", "nodes", _nodes_used),
    ("verify", "check_vanishing", "verify.check_vanishing", "nodes", _nodes_used),
    ("classes", "omega3", "classes.omega3", "points", _size(2, "x")),
    ("classes", "find_gamma_max", "classes.find_gamma_max", None, None),
    ("classes", "certify_nonnegative", "classes.certify_nonnegative", "points",
     lambda args, kwargs, result: int(_arg(args, kwargs, 3, "n"))),
    ("criteria", "carleman", "criteria.carleman", None, None),
    ("criteria", "krein", "criteria.krein", None, None),
    ("criteria", "converse_carleman", "criteria.converse_carleman", None, None),
    ("criteria", "full_report", "criteria.full_report", None, None),
]

SUBCOMMANDS = ("eval", "moments", "criteria", "class", "convolve")

# per-layer metric name -> unit; counts are exact, times are seconds
PER_LAYER = {}
for _, _, _span, _quantity, _ in TARGETS:
    PER_LAYER[f"{_span}.calls"] = "count"
    if _quantity:
        PER_LAYER[f"{_span}.{_quantity}"] = "count"
    PER_LAYER[f"{_span}.self_s"] = "s"
PER_LAYER.update({
    "mellin.contour.useful_ratio": "ratio",
    "weights.spline_build.count": "count",
    "weights.spline_build.s": "s",
    "cli.import_s": "s",
    **{f"cli.{sub}.s": "s" for sub in SUBCOMMANDS},
    "trace.spans": "count",
    "trace.wall_s": "s",
})


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.extra = {}

    def wrap(self, name, func, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                span[4] = "error"
                raise
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every target wherever a loaded gammamoments module refers to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "gammamoments" or n.startswith("gammamoments.")]
        for module, attr, span, _, count in TARGETS:
            original = getattr(sys.modules[f"gammamoments.{module}"], attr)
            _replace(modules, original, self.wrap(span, original, count))
        # the spline cache sits in front of the build; trace real builds only
        cached = sys.modules["gammamoments.weights"]._density_spline
        rebuilt = functools.lru_cache(maxsize=cached.cache_parameters()["maxsize"])(
            self.wrap("weights.spline_build", cached.__wrapped__))
        _replace(modules, cached, rebuilt)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, **self.extra}, fh)


def _replace(modules, original, wrapper):
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


def aggregate(traces, wall_s):
    """Per-layer metrics from the span files of one workload pass."""
    metrics = {name: (0.0 if unit == "s" else 0) for name, unit in PER_LAYER.items()}
    quantity_of = {span: quantity for _, _, span, quantity, _ in TARGETS}
    accepted = total = 0
    for trace in traces:
        spans = trace["spans"]
        child_s = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        grids = {}  # contour_log_density span -> nodes of each contour sum
        for i, (name, start, end, parent, value) in enumerate(spans):
            if name == "weights.spline_build":
                metrics["weights.spline_build.count"] += 1
                metrics["weights.spline_build.s"] += end - start
                continue
            metrics[f"{name}.calls"] += 1
            metrics[f"{name}.self_s"] += (end - start) - child_s[i]
            if quantity_of[name] and isinstance(value, int):
                metrics[f"{name}.{quantity_of[name]}"] += value
            if (name == "mellin.inverse_mellin_log" and isinstance(value, int)
                    and parent >= 0
                    and spans[parent][0] == "mellin.contour_log_density"):
                grids.setdefault(parent, []).append(value)
        for parent, nodes in grids.items():
            # the last grid is the accepted one; earlier ones were refined away
            total += sum(nodes)
            if spans[parent][4] != "error":
                accepted += nodes[-1]
        metrics["trace.spans"] += len(spans)
        metrics["cli.import_s"] += trace["import_s"]
        if "subcommand" in trace:
            metrics[f"cli.{trace['subcommand']}.s"] += trace["main_s"]
    metrics["mellin.contour.useful_ratio"] = accepted / total if total else 0.0
    metrics["trace.wall_s"] = wall_s
    return metrics
