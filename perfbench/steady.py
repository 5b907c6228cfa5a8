"""Steadiness report over recorded benchmark runs.

    python3 perfbench/steady.py [RESULTS_DIR ...]

Each directory (default .perfbench/results) holds the JSON records that
run.py writes, one per run, and is one set of runs.  For each set and
workload this prints every end-to-end metric's median and its spread:
the distance between the first and third quartile as a share of the
median, against the bound in BENCHMARK.json.  It also reports per-layer
counts that differ between traced runs, output digests that differ
between runs of the same input, and the tracing overhead (traced wall
time minus the untraced passes' wall time).  Given two sets it compares their medians.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load(directory):
    runs = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        runs[record["workload"], record["trace"]].append(record)
    return runs


def _values(records, name):
    return [r["metrics"][name]["value"] for r in records]


def _spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def report(name, runs, bounds):
    print(f"== {name}")
    ok = True
    for (workload, trace), records in sorted(runs.items()):
        failed = sum(r["failed"] for r in records)
        print(f"-- {workload} trace={trace}: {len(records)} runs, "
              f"{failed} failed operations, seeds "
              f"{sorted({r['seed'] for r in records})}")
        ok &= failed == 0
        if trace:
            for metric, unit in records[0]["metrics"].items():
                values = _values(records, metric)
                if unit["unit"] == "count" and len(set(values)) > 1:
                    print(f"   count {metric} differs: {sorted(set(values))}")
                    ok = False
        else:
            for metric, bound in bounds.items():
                values = _values(records, metric)
                spread = _spread(values)
                steady = metric == "setup_s" or spread <= bound / 3
                flag = "" if steady else "  <-- over bound/3"
                ok &= not flag
                print(f"   {metric:24} median {statistics.median(values):12.6g}  "
                      f"spread {spread:7.4f}  bound {bound}{flag}")
        digests = defaultdict(set)
        for r in records:
            for op in r["ops"]:
                digests[json.dumps(op["input"])].add(op["sha256"])
        for key, seen in digests.items():
            if len(seen) > 1:
                print(f"   digest differs between runs of {key}: {sorted(seen)}")
                ok = False
    for (workload, trace), records in sorted(runs.items()):
        untraced = runs.get((workload, 0))
        if trace and untraced:
            overhead = (statistics.median(_values(records, "trace.wall_s"))
                        - statistics.median(statistics.median(r["passes"])
                                            for r in untraced))
            print(f"   tracing overhead {workload}: {overhead:+.3f} s")
    return ok


def main(argv):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    dirs = argv or [str(ROOT / ".perfbench" / "results")]
    sets = [(d, _load(d)) for d in dirs]
    ok = all([report(d, runs, bounds) for d, runs in sets])
    if len(sets) == 2:
        (_, first), (_, second) = sets
        print("== second set against the first")
        for key in sorted(set(first) & set(second)):
            if key[1]:
                continue
            for metric, bound in bounds.items():
                a = statistics.median(_values(first[key], metric))
                b = statistics.median(_values(second[key], metric))
                worse = (b - a) / abs(a) * (1 if better[metric] == "lower" else -1)
                flag = "  <-- worse than bound" if worse > bound else ""
                ok &= not flag
                print(f"   {key[0]:16} {metric:24} {a:12.6g} -> {b:12.6g}  "
                      f"worse by {worse:+.4f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
