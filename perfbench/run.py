"""Benchmark of the skellam-stein CLI: seeded workloads, end-to-end and per-layer metrics.

Run one workload from the repository root:

    python3 perfbench/run.py --workload haar_sweep --seed 1 --seconds 20 --trace 0

or every workload in turn, each in its own process, with a summary table:

    python3 perfbench/run.py --workload all --seconds 20

Each op drives ``skellam_stein.cli.main(argv)`` in-process with stdout
captured in memory.  ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json; ``--trace 1`` alternates untraced and traced ops and reports
its per-layer metrics.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  Results (with the environment
they were measured in) go to .perfbench/results, spans to .perfbench/trace.
"""

import os

# The workload process is single-threaded: pin the BLAS and OpenMP pools
# before numpy loads them.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(SRC))

import numpy as np

import spans
import workloads

SETUP_REPEATS = 7  # fresh-process imports per run; the median is reported
# On the shared 2-core VM this was built on, machine speed drifts by 20% and
# more over minutes, which no run length averages out.  So a fixed calibration piece runs between ops, and each op
# time is scaled to the speed at which that piece takes CAL_REF_S: seconds at
# reference speed ("ref-s").  Wall seconds are printed and saved beside.
CAL_REF_S = 0.011
CAL_SHARE = 0.05      # calibration time kept at this share of op time
CAL_MIN_CHUNKS = 3    # per op boundary
_CAL_A = np.linspace(0.0, 1.0, 300)
_CAL_B = np.linspace(1.0, 0.0, 40)
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
import skellam_stein, skellam_stein.cli
t = time.perf_counter() - t
print(repr(t), skellam_stein.__file__)
"""


def calibrate() -> float:
    """Seconds for a fixed piece of interpreter loop and small numpy calls.

    It shares no code with the package, so a change to the package cannot
    move it; only the speed of the host does.  Of the mixes tried (adding
    1 MB strided accumulation, dict serialization, 8 MB streaming), this one
    tracked the workloads' drift best.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i
    for _ in range(150):
        np.convolve(_CAL_A, _CAL_B)
    return time.perf_counter() - t0


def _under_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def load_package():
    """The package under test, imported from this checkout's src/ only."""
    import skellam_stein
    import skellam_stein.cli

    if not _under_src(skellam_stein.__file__):
        raise SystemExit(f"skellam_stein imported from {skellam_stein.__file__}, not {SRC}")
    return skellam_stein


def measure_setup() -> float:
    """Median time of a fresh process importing skellam_stein and its CLI.

    One extra import runs first, uncounted, so bytecode compilation of a
    fresh checkout does not land in the figure.
    """
    times = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
        )
        seconds, path = proc.stdout.split(maxsplit=1)
        if not _under_src(path.strip()):
            raise SystemExit(f"fresh process imported skellam_stein from {path.strip()}")
        if i:
            times.append(float(seconds))
    return statistics.median(times)


def _git_revision() -> str | None:
    """HEAD of the checkout's own .git, read without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(package) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".pyx") and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": package.BACKEND,
        "git_revision": _git_revision(),
        "src_sha256": digest.hexdigest()[:16],
    }


def run_op(argvs, tracer=None) -> tuple[float, list[workloads.Record]]:
    """Run one op's CLI calls; returns (seconds inside cli.main, records).

    A tracer is installed around the calls only, outside the timed region.
    """
    cli = sys.modules["skellam_stein.cli"]
    seconds = 0.0
    records = []
    if tracer is not None:
        tracer.install()
    try:
        for argv in argvs:
            raw = io.BytesIO()
            out = io.TextIOWrapper(raw, encoding="utf-8")
            err = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                code = cli.main(list(argv))
                out.flush()
                seconds += time.perf_counter() - t0
            records.append(workloads.Record(code, raw.getvalue().decode(), err.getvalue()))
            out.detach()
    finally:
        if tracer is not None:
            tracer.uninstall()
    return seconds, records


def load_reference(name: str, seed: int) -> list[dict]:
    """Certified intervals recorded at the seed commit, one dict per op."""
    path = HERE / "reference.json"
    if not path.exists():
        return []
    ref = json.loads(path.read_text())
    if ref["seed"] != seed:
        return []
    return [
        {key: tuple(interval) for key, interval in op.items()}
        for op in ref["workloads"].get(name, [])
    ]


def percentile_note(times: list[float]) -> str:
    """The highest percentile with at least 10 ops beyond it, with its count."""
    n = len(times)
    for p in PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10.0:
            value = float(np.percentile(times, p))
            return f"p{p:g} = {value:.6g} ref-s over {n} ops"
    return f"no percentile has 10 of {n} ops beyond it"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    package = load_package()
    wl = workloads.WORKLOADS[name]
    inputs_dir = OUT / "inputs"
    for sub in ("inputs", "results", "trace"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    env = environment(package)
    setup_s = measure_setup()
    reference = load_reference(name, seed)

    attempted = failed = 0
    failures: list[str] = []

    def attempt(inp, tracer=None, index=None):
        nonlocal attempted, failed
        dt, records = run_op(inp.argvs, tracer)
        problems = wl.check(records, inp)
        if index is not None and index < len(reference):
            problems += workloads.overlap_failures(wl.certified(records), reference[index])
        attempted += 1
        if problems:
            failed += 1
            label = "warm-up op" if index is None else f"op {index}"
            failures.extend(f"{label}: {p}" for p in problems[:5])
        return dt, records

    # Warm-up: a small op on inputs of its own, untimed.
    attempt(wl.make_input(seed, workloads.WARM, 0, inputs_dir, small=True))

    tracer = spans.Tracer() if trace else None
    ops: list[tuple[bool, float, float]] = []   # (traced, seconds, units)
    pair_orders = 0
    render_bytes = 0
    # Calibration chunks at each op boundary: before op 0, between ops, and
    # after the last op, each worth CAL_SHARE of the op before it.
    boundaries: list[list[float]] = []

    def calibrate_boundary(op_seconds: float) -> None:
        chunks = [calibrate() for _ in range(CAL_MIN_CHUNKS)]
        while sum(chunks) < CAL_SHARE * op_seconds:
            chunks.append(calibrate())
        boundaries.append(chunks)

    peak_rss = None
    calibrate_boundary(0.0)
    start = time.perf_counter()
    # Ops alternate untraced and traced, so two ops hold one of each.
    while time.perf_counter() - start < seconds or len(ops) < (2 if trace else 1):
        index = len(ops)
        inp = wl.make_input(seed, workloads.TIMED, index, inputs_dir)
        is_traced = trace and index % 2 == 1
        if is_traced:
            tracer.op_id = index
        dt, records = attempt(inp, tracer if is_traced else None, index)
        ops.append((is_traced, dt, wl.units(records, inp)))
        if is_traced:
            pair_orders += inp.pair_orders
            # cli.main writes to stdout through render alone
            render_bytes += sum(len(rec.stdout.encode()) for rec in records)
        if len(ops) == wl.rss_after_ops:
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        calibrate_boundary(dt)

    # Each op is scaled by the calibration on both sides of it.
    ref = [
        dt * CAL_REF_S / statistics.median(boundaries[i] + boundaries[i + 1])
        for i, (_, dt, _) in enumerate(ops)
    ]
    plain = [i for i, (t, _, _) in enumerate(ops) if not t]
    traced = [i for i, (t, _, _) in enumerate(ops) if t]
    plain_ref = [ref[i] for i in plain]
    plain_raw = [ops[i][1] for i in plain]
    chunks = [c for b in boundaries for c in b]
    computed = {
        "units_per_s": statistics.median(ops[i][2] / ref[i] for i in plain),
        "op_s.p50": statistics.median(plain_ref),
        "setup_s": setup_s,
        "peak_rss_mb": (peak_rss or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * 1024 / 1e6,
        "failed_share": failed / attempted,
        "raw.units_per_s": statistics.median(ops[i][2] / ops[i][1] for i in plain),
        "raw.op_s.p50": statistics.median(plain_raw),
        "calibration_s.p50": statistics.median(chunks),
    }
    notes = {
        "units_per_s": (f"{wl.unit} per ref-second; "
                        f"{computed['raw.units_per_s']:.6g} per wall second"),
        "op_s.p50": (f"{computed['raw.op_s.p50']:.6g} wall s; {percentile_note(plain_ref)}; "
                     f"calibration median {computed['calibration_s.p50']:.4g} s of {len(chunks)}"),
        "setup_s": f"median of {SETUP_REPEATS} fresh-process imports",
        "peak_rss_mb": f"after warm-up and {min(len(ops), wl.rss_after_ops)} ops",
        "failed_share": f"{failed} of {attempted} ops",
    }
    if trace:
        layers = tracer.layer_metrics(len(traced))
        layers["stein.sweep_redundancy"] = (
            tracer.counters["stein.sweeps"] / pair_orders if pair_orders else 0.0
        )
        layers["cli.render.bytes"] = render_bytes / len(traced)
        layers["trace.overhead"] = (
            statistics.median(ref[i] for i in traced) / computed["op_s.p50"] - 1.0
        )
        computed.update(layers)
        notes["trace.overhead"] = f"{len(traced)} traced ops against {len(plain)} untraced"
        tracer.save(OUT / "trace" / f"{name}.npz")
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": env, "computed": computed, "notes": notes,
        "op_s": plain_raw, "op_ref_s": plain_ref,
        "traced_op_ref_s": [ref[i] for i in traced],
        "attempted": attempted, "failed": failed,
        "failures": failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    computed, notes = result["computed"], result["notes"]
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in wanted}
    result["metrics"] = metrics
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in result["env"].items()))
    for key, metric in metrics.items():
        note = notes.get(key, "")
        print(f"  {key:<40} {metric['value']:>14.6g} {metric['unit']:<16} {note}")
    if not args.trace:
        print(f"  {'failed_share':<40} {computed['failed_share']:>14.6g} {'1':<16} "
              f"{notes['failed_share']}")
    for line in result["failures"][:20]:
        print(f"  FAILED {line}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process, then a summary table."""
    rows = []
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode:
            status = proc.returncode
            continue
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    print()
    print(f"{'workload':<16} {'metric':<40} {'value':>14} unit")
    for name, res in rows:
        for key, metric in res["metrics"].items():
            print(f"{name:<16} {key:<40} {metric['value']:>14.6g} {metric['unit']}")
        if not args.trace:
            share = res["failed"] / res["attempted"]
            print(f"{name:<16} {'failed_share':<40} {share:>14.6g} 1")
    return status


if __name__ == "__main__":
    sys.exit(main())
