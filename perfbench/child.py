"""One workload process: a traced CLI call, or the library-call workload.

    python3 child.py [--trace FILE] cli <gammamoments CLI arguments>
    python3 child.py [--trace FILE] vanishing '<JSON list of cases>'

Untraced CLI calls do not come here; run.py starts
``python3 -m gammamoments.cli`` for them.  With --trace the package's
public functions are wrapped after import (tracer.py) and the spans are
written to FILE when the process ends.
"""

import json
import sys
import time


def _vanishing(cases):
    """check_vanishing for each case; one JSON line per case on stdout."""
    import gammamoments as gm
    for case in cases:
        line = {"name": case["name"]}
        try:
            pert = getattr(gm, f"perturbation_{case['family']}")(case["r"], case["k"])
            line["results"] = [
                [res.n, res.log_integral, res.log_target, res.rel_error,
                 res.nodes_used]
                for res in (gm.check_vanishing(pert, pert.seq, n)
                            for n in case["ns"])]
        except gm.GammomentsError as exc:
            line["error"] = f"{type(exc).__name__}: {exc}"
        print(json.dumps(line), flush=True)
    return 0


def main(argv):
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    mode, rest = argv[0], argv[1:]
    start = time.perf_counter()
    import gammamoments  # noqa: F401
    if mode == "cli":
        import gammamoments.cli
    import_s = time.perf_counter() - start

    tracer = None
    if trace_path:
        from tracer import Tracer
        tracer = Tracer()
        tracer.extra["import_s"] = import_s
        tracer.install()
    try:
        if mode == "cli":
            start = time.perf_counter()
            try:
                return gammamoments.cli.main(rest)
            finally:
                if tracer:
                    tracer.extra.update(subcommand=rest[0],
                                        main_s=time.perf_counter() - start)
        return _vanishing(json.loads(rest[0]))
    finally:
        if tracer:
            tracer.write(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
