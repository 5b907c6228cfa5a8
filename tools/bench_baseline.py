"""Baseline of the benchmark for the checked-out commit: BENCH_<sha>.json.

Run from anywhere; it benchmarks the repository it lives in:

    python3 tools/bench_baseline.py

For each workload in BENCHMARK.json it runs `perfbench/run.py` at
--trace 0 with seeds 1..5 and once at --trace 1 with seed 1, each for
BENCHMARK.json's run_seconds.  It then reads the records those runs left
in .perfbench/results/ and writes BENCH_<short sha>.json at the
repository root: the environment, the median and quartiles of each
end-to-end metric, the traced run's per-layer counts and times, every
accuracy margin the runs printed, the seeds, and the sha256 of each
operation's stdout by seed.  Nothing under perfbench/ changes.
"""

import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".perfbench" / "results"
SEEDS = [1, 2, 3, 4, 5]  # of the timed runs; the traced run takes the first
# run.py prints "      margin  5.640 digits  <label> (error ..., tolerance ...)"
MARGIN = re.compile(r"^\s+margin\s+(\S+) digits\s+(.*) \(error ")


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True, check=True).stdout.strip()


def _run(workload, seed, seconds, trace):
    """One perfbench run: (its record, its margin lines as {label: digits})."""
    before = set(RESULTS.glob("*.json")) if RESULTS.is_dir() else set()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    new = sorted(set(RESULTS.glob("*.json")) - before)
    if len(new) != 1:
        raise SystemExit(f"expected one new record in {RESULTS}, found {len(new)}")
    margins = {m[2]: float(m[1]) for m in map(MARGIN.match, proc.stdout.splitlines())
               if m}
    return json.loads(new[0].read_text()), margins


def _summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def _environment():
    import mpmath
    import numpy
    import scipy
    return {"cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "mpmath": mpmath.__version__}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = {}
    for entry in spec["workloads"]:
        name = entry["name"]
        timed = [_run(name, seed, seconds, 0) for seed in SEEDS]
        traced, _ = _run(name, SEEDS[0], seconds, 1)
        records = [record for record, _ in timed]
        ops = {}
        for record in records:
            for op in record["ops"]:
                ops.setdefault(op["name"], {})[str(record["seed"])] = op["sha256"]
        workloads[name] = {
            "end_to_end": {
                m["name"]: {"unit": m["unit"], "bound": m["bound"],
                            **_summary([r["metrics"][m["name"]]["value"]
                                        for r in records])}
                for m in spec["end_to_end"]},
            "margins_digits": {label: [margins.get(label) for _, margins in timed]
                               for label in timed[0][1]},
            "failed": [r["failed"] for r in records],
            "per_layer": {metric: value["value"]
                          for metric, value in traced["metrics"].items()},
            "ops_sha256_by_seed": ops,
        }
        print(f"{name}: " + ", ".join(
            f"{metric} {value['median']:.4g}"
            for metric, value in workloads[name]["end_to_end"].items()),
            flush=True)
    sha = _git("rev-parse", "HEAD")
    out = {
        "commit": sha,
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "environment": _environment(),
        "run_seconds": seconds,
        "seeds": SEEDS,
        "trace_seed": SEEDS[0],
        "workloads": workloads,
    }
    path = ROOT / f"BENCH_{sha[:7]}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
