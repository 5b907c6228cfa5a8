"""Benchmark of gammamoments: one workload per run, timed or traced.

Run from the repository root:

    python3 perfbench/run.py --workload contour_cli --seed 1 --seconds 10 --trace 0

With --trace 0 the run times the workload end to end; with --trace 1 it
makes one separate traced pass and reports per-layer metrics instead.
The run and every process it starts are held to one CPU, where a speed
probe (probe.py) measures the host's speed during each pass.
Either way every operation's output is checked after the timed region,
and the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  A record of the run,
with the sha256 of every operation's output, goes to
.perfbench/results/ for steady.py.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no bytecode cache in the checkout

from probe import SpeedProbe  # noqa: E402
from tracer import PER_LAYER, aggregate  # noqa: E402
from workloads import WORKLOADS, CheckFailed, KnownDefect, Outcome  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
# set-up time is the median of this many cold imports, half of them made
# before the passes and half after, so that one slow spell of the machine
# does not set it
SETUP_IMPORTS = 6
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PASSES_END_S = 110.0  # no pass starts that would end later than this
KILL_AFTER_S = 165.0  # a run must end within 180 s
IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import gammamoments; "
                  "print(repr(time.perf_counter() - t))")

END_TO_END = {
    "wall_norm": "kprobe",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "accuracy_margin_digits": "digits",
    "passed_frac": "ratio",
}


class Pass:
    def __init__(self, start, wall_s, outcomes, traces):
        self.start, self.wall_s = start, wall_s
        self.outcomes, self.traces = outcomes, traces


def _env(tmp):
    env = {k: v for k, v in os.environ.items()
           if k not in ("GAMMOMENTS_THREADS", "PYTHONPATH", "PYTHONHOME")}
    env.update(PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1",
               HOME=str(tmp / "home"), TMPDIR=str(tmp / "tmp"))
    # One busy thread: a second BLAS thread in `h @ w` (mellin_convolve_many)
    # makes the run compete with itself for the machine's cores.
    env.update({var: "1" for var in BLAS_THREAD_VARS}, PYTHONHASHSEED="0")
    return env


def _spawn(argv, env, cwd, deadline):
    """Run one process to completion; exit code None if it was killed."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=cwd)
    try:
        out, err = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
        rc = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        rc = None
    return rc, out, err.decode(errors="replace")


def _run_pass(ops, in_one_process, env, tmp, deadline, trace):
    work = tmp / "work"
    child = [sys.executable, str(HERE / "child.py")]
    trace_files = []

    def traced(index):
        trace_files.append(tmp / f"trace-{index}.json")
        return ["--trace", str(trace_files[-1])]

    start = time.perf_counter()
    if in_one_process:
        argv = child + (traced(0) if trace else []) + [
            "vanishing", json.dumps([op.case for op in ops])]
        rc, out, err = _spawn(argv, env, work, deadline)
    else:
        runs = []
        for i, op in enumerate(ops):
            argv = (child + traced(i) + ["cli"] if trace
                    else [sys.executable, "-m", "gammamoments.cli"]) + op.argv
            runs.append(_spawn(argv, env, work, deadline))
    wall_s = time.perf_counter() - start

    if in_one_process:
        lines = {}
        for raw in out.splitlines():
            try:
                lines[json.loads(raw)["name"]] = raw
            except (ValueError, KeyError, TypeError):
                pass
        outcomes = [Outcome(rc, lines.get(op.name, b""), err,
                            json.loads(lines[op.name]) if op.name in lines else None)
                    for op in ops]
    else:
        outcomes = [Outcome(*run) for run in runs]
    traces = []
    for path in trace_files:
        if path.exists():  # a killed process writes none
            traces.append(json.loads(path.read_text()))
            path.unlink()
    return Pass(start, wall_s, outcomes, traces)


def _setup_time(env, tmp, deadline):
    rc, out, err = _spawn([sys.executable, "-c", IMPORT_SNIPPET], env, tmp / "work",
                          deadline)
    if rc != 0:
        raise RuntimeError(f"import gammamoments failed: {err.strip()}")
    return float(out)


def _verdict(op, outcome):
    """(status, margins, note) for one operation's output."""
    try:
        margins = op.check(outcome)
    except KnownDefect as exc:
        return "known", [], str(exc)
    except CheckFailed as exc:
        return "FAIL", [], str(exc)
    except Exception as exc:  # malformed output must fail the op, not the run
        return "FAIL", [], f"{type(exc).__name__}: {exc}"
    over = [f"{label}: {err:.3e} > {tol:.0e}" for label, tol, err in margins
            if not err <= tol]
    return ("FAIL" if over else "pass"), margins, "; ".join(over)


def _margin_digits(tol, err):
    return math.log10(tol / max(err, 1e-300))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="whole passes repeat while the next should end within "
                             "this many seconds; there is always one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gammamoments" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        return 2

    # one CPU for the run, its processes and the probe: the probe then
    # measures the core the pass runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    make_ops, in_one_process = WORKLOADS[args.workload]
    ops = make_ops(args.seed)
    began = time.monotonic()
    deadline = began + KILL_AFTER_S
    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=STATE / "tmp"))
    for sub in ("work", "home", "tmp"):
        (tmp / sub).mkdir()
    env = _env(tmp)
    setup, passes = [], []
    try:
        if not args.trace:
            setup = [_setup_time(env, tmp, deadline)
                     for _ in range(SETUP_IMPORTS // 2)]
        passes_began = time.monotonic()
        with SpeedProbe() as probe:
            while True:
                passes.append(_run_pass(ops, in_one_process, env, tmp, deadline,
                                        args.trace))
                # another pass only if it should end within --seconds, so the
                # runs of a slow spell take no longer than the others
                now = time.monotonic()
                if (args.trace
                        or now - passes_began + passes[-1].wall_s > args.seconds
                        or now - began + passes[-1].wall_s > PASSES_END_S):
                    break
        if not args.trace:
            setup += [_setup_time(env, tmp, deadline)
                      for _ in range(SETUP_IMPORTS - len(setup))]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    # checks and oracles run here, outside the timed region
    sys.path.insert(0, str(SRC))
    first = passes[0]
    verdicts = [_verdict(op, out) for op, out in zip(ops, first.outcomes)]
    digests = [hashlib.sha256(out.stdout).hexdigest() for out in first.outcomes]
    statuses = [v[0] for v in verdicts]
    for later in passes[1:]:
        for i, out in enumerate(later.outcomes):
            same = hashlib.sha256(out.stdout).hexdigest() == digests[i]
            statuses.append(statuses[i] if same else "FAIL")
    attempted = len(statuses)
    passed = statuses.count("pass")
    known = statuses.count("known")
    failed = attempted - passed - known

    for op, (status, _, note), digest in zip(ops, verdicts, digests):
        print(f"{status:5} {op.name:38} sha256 {digest[:16]}  {note}")
    margins = [m for _, ms, _ in verdicts for m in ms]
    for label, tol, err in margins:
        print(f"      margin {_margin_digits(tol, err):6.3f} digits  {label} "
              f"(error {err:.3e}, tolerance {tol:.0e})")
    print(f"known defects still failing: {known} of {attempted} operations")
    probe_s = [probe.mean_s(p.start, p.start + p.wall_s) for p in passes]
    for p, ps in zip(passes, probe_s):
        print(f"pass: wall {p.wall_s:.3f} s, probe {ps * 1e3:.4f} ms, "
              f"{p.wall_s / ps / 1e3:.3f} kprobe")

    if args.trace:
        metrics = aggregate(first.traces, first.wall_s)
        units = PER_LAYER
    else:
        metrics = {
            "wall_norm": statistics.median(
                p.wall_s / ps / 1e3 for p, ps in zip(passes, probe_s)),
            "setup_s": statistics.median(setup),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
            # -100 when no output got far enough to be compared at all
            "accuracy_margin_digits": min(
                (_margin_digits(tol, err) for _, tol, err in margins), default=-100.0),
            "passed_frac": passed / attempted,
        }
        units = END_TO_END
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "passes": [p.wall_s for p in passes], "probe_s": probe_s,
              "setup": setup,
              "ops": [{"name": op.name, "input": op.argv or op.case,
                       "status": status, "sha256": digest}
                      for op, (status, _, _), digest in zip(ops, verdicts, digests)],
              **result}
    (STATE / "results").mkdir(parents=True, exist_ok=True)
    (STATE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}-"
     f"{time.time_ns()}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
