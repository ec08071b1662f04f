"""Compare saved benchmark results of two trees, flagging differing environments.

    python3 perfbench/compare.py BASE_RESULTS_DIR NEW_RESULTS_DIR

Each directory holds the result files run.py writes (.perfbench/results of
each tree).  For every workload and metric present on both sides it prints
the median over the runs found on each side and the change.  A comparison
across differing nproc, Python, numpy or backend values measures the
environment as much as the code, so those differences are flagged first.
"""

import json
import statistics
import sys
from pathlib import Path

FLAGGED = ("nproc", "python", "numpy", "backend")


def load(directory) -> dict:
    runs: dict = {}
    for path in sorted(Path(directory).glob("*.json")):
        res = json.loads(path.read_text())
        runs.setdefault((res["workload"], res["trace"]), []).append(res)
    return runs


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    for key in sorted(base.keys() & new.keys()):
        workload, trace = key
        sides = (base[key], new[key])
        for field in FLAGGED:
            values = [sorted({str(r["env"][field]) for r in runs}) for runs in sides]
            if values[0] != values[1] or len(values[0]) > 1:
                print(f"WARNING {workload}: {field} differs: base {values[0]}, new {values[1]}")
        revisions = [sorted({str(r["env"]["git_revision"]) for r in runs}) for runs in sides]
        print(f"{workload} (trace {trace}): base {revisions[0]} x{len(sides[0])}, "
              f"new {revisions[1]} x{len(sides[1])}")
        for metric, spec in sides[0][0]["metrics"].items():
            b, n = (statistics.median(r["metrics"][metric]["value"] for r in runs
                                      if metric in r["metrics"]) for runs in sides)
            change = f"{n / b - 1.0:+.1%}" if b else "n/a"
            print(f"  {metric:<40} {b:>14.6g} {n:>14.6g} {spec['unit']:<16} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
