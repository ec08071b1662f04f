"""Self-checks of the benchmark itself, on small inputs.

    python3 -m pytest perfbench/test_perfbench.py

Tracing must change no result, and each workload must exercise the layers it
was chosen for and bypass the others.  A wrapper patched into the wrong
namespace shows up here as a missing or misplaced count.
"""

import json
import subprocess
import sys

import pytest

import run
import spans
import workloads

ONE_OP = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import run, spans, workloads
from pathlib import Path
run.load_package()
wl = workloads.WORKLOADS[sys.argv[2]]
inp = wl.make_input(7, workloads.TIMED, 0, Path(sys.argv[3]), small=True)
tracer = spans.Tracer() if sys.argv[4] == "1" else None
_, records = run.run_op(inp.argvs, tracer)
print(json.dumps([[r.code, r.stdout, r.stderr] for r in records]))
"""


def _one_op(name, workdir, traced):
    # A fresh process per op, so the package's caches cannot hand the second
    # op the first op's results.
    proc = subprocess.run(
        [sys.executable, "-c", ONE_OP, str(run.HERE), name, str(workdir), str(int(traced))],
        capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(proc.stdout)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tracing_changes_no_record(name, tmp_path):
    plain = _one_op(name, tmp_path, traced=False)
    traced = _one_op(name, tmp_path, traced=True)
    assert [code for code, _, _ in plain] == [0] * len(plain)
    assert traced == plain


def _bindings():
    return {
        (mod_name, key): value
        for mod_name, mod in list(sys.modules.items())
        if mod_name.startswith(spans.PACKAGE)
        for key, value in vars(mod).items()
        if callable(value)
    }


@pytest.fixture(scope="module")
def layers(tmp_path_factory):
    run.load_package()
    workdir = tmp_path_factory.mktemp("inputs")
    before = _bindings()
    out = {}
    for name, wl in workloads.WORKLOADS.items():
        inp = wl.make_input(11, workloads.TIMED, 0, workdir, small=True)
        tracer = spans.Tracer()
        _, records = run.run_op(inp.argvs, tracer)
        assert wl.check(records, inp) == []
        out[name] = tracer.layer_metrics(1)
    assert _bindings() == before, "uninstall left a wrapper bound"
    return out


def test_sweep_kernel_runs_only_on_stein_factors(layers):
    for name, metrics in layers.items():
        calls = metrics["kernels.sweep_accumulate.calls"]
        assert (calls > 0) == (name == "stein_factors"), name


def test_graph_verify_convolves_n_minus_one_times(layers):
    n = workloads.GraphVerify.small_n
    assert layers["graph_verify"]["dists.convolve.calls"] == n - 1
    assert layers["graph_verify"]["dists.IntegerDist.created"] >= 2 * n - 1


def test_stein_factors_bypasses_to_dist(layers):
    assert layers["stein_factors"]["skellam.to_dist.calls"] == 0
    assert layers["stein_factors"]["stein.sweeps"] > 0


def test_haar_sweep_makes_one_report_per_window(layers):
    windows = workloads.HaarSweep.small_bins - 1
    assert layers["haar_sweep"]["haar_spillover.verify.calls"] == windows
    assert layers["haar_sweep"]["verification.make_report.calls"] == windows
    assert layers["haar_sweep"]["skellam.to_dist.calls"] > 0


def test_every_per_layer_metric_is_emitted(layers):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    derived = {"stein.sweep_redundancy", "cli.render.bytes", "trace.overhead"}
    for metric in spec["per_layer"]:
        if metric["name"] not in derived:
            assert metric["name"] in layers["stein_factors"], metric["name"]


def test_overlap_failures():
    ref = {"a": (1.0, 0.1)}
    assert workloads.overlap_failures({"a": (1.15, 0.1)}, ref) == []
    assert workloads.overlap_failures({"a": (1.25, 0.1)}, ref)
    assert workloads.overlap_failures({}, ref)
