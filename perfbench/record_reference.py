"""Record the certified intervals of the default seed's first ops.

    python3 perfbench/record_reference.py

Runs the first timed ops of the default seed (0) of every workload that
certifies values, checks them, and writes perfbench/reference.json.  run.py
then fails any later op at that seed whose certified interval (factor +-
quad_error, TV +- tv_slack) does not overlap the recorded one.  Record from
the commit whose numbers are the reference, not from a change under test.
"""

import json

import run
import workloads

SEED = 0
OPS = {"stein_factors": 4, "graph_verify": 6, "haar_sweep": 2}


def main() -> None:
    package = run.load_package()
    inputs = run.OUT / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    recorded = {}
    for name, count in OPS.items():
        wl = workloads.WORKLOADS[name]
        ops = []
        for index in range(count):
            inp = wl.make_input(SEED, workloads.TIMED, index, inputs)
            _, records = run.run_op(inp.argvs)
            problems = wl.check(records, inp)
            if problems:
                raise SystemExit(f"{name} op {index} failed its checks: {problems[:3]}")
            ops.append({key: list(iv) for key, iv in wl.certified(records).items()})
            print(f"{name} op {index}: {len(ops[-1])} certified values")
        recorded[name] = ops
    doc = {"seed": SEED, "recorded_at": run.environment(package), "workloads": recorded}
    (run.HERE / "reference.json").write_text(json.dumps(doc) + "\n")


if __name__ == "__main__":
    main()
