import argparse
import csv
import hashlib
import io
import json
import logging
import math
import os
import re
import subprocess
import sys
import time
import warnings
from unittest import mock

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
import scipy.stats as sstats
from hypothesis import given, settings
from hypothesis import strategies as st

from skellam_stein import cli, jsonwriter
from skellam_stein.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dist_pmf(capsys):
    code, out, _ = run_cli(capsys, "dist", "pmf", "--l1", "1", "--l2", "1", "--k", "0")
    assert code == 0
    assert "0.30850832255367" in out


def test_dist_table_mass_and_formats(capsys):
    code, out, _ = run_cli(
        capsys, "dist", "table", "--l1", "1", "--l2", "1", "--tol", "1e-10", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["window_mass"] >= 1.0 - 1e-10
    assert doc["version"] and doc["command"] == "dist table"
    assert doc["tolerances"]["tail_tol"] == 1e-10
    assert "seed" in doc

    code, csv_out, _ = run_cli(
        capsys, "dist", "table", "--l1", "1", "--l2", "1", "--tol", "1e-10", "--format", "csv"
    )
    assert code == 0
    body = [ln for ln in csv_out.splitlines() if ln and not ln.startswith("#")]
    assert body[0] == "k,pmf"
    csv_cells = [tuple(ln.split(",")) for ln in body[1:]]
    json_cells = [(str(r["k"]), repr(r["pmf"])) for r in doc["rows"]]
    assert csv_cells == json_cells  # identical digit strings, not just close values


def test_dist_sample_deterministic(capsys):
    args = ("dist", "sample", "--l1", "1", "--l2", "1", "--n", "5", "--seed", "7")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert "seed = 7" in out1


def test_stein_bounds_record(capsys):
    code, out, _ = run_cli(capsys, "stein", "bounds", "--l1", "2", "--l2", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    res = doc["results"]
    assert res["first_diff"] == pytest.approx(math.exp(-0.5))
    for key in ("second_diff", "relaxed_first", "relaxed_second",
                "first_diff_integral", "integral_asymptote"):
        assert key in res
    assert "prior_comparison_here" not in res  # unequal rates

    code, out, _ = run_cli(capsys, "stein", "bounds", "--l1", "4", "--l2", "4",
                           "--printed-max-form", "--format", "json")
    res = json.loads(out)["results"]
    assert res["prior_comparison_reference"] == 20.0
    assert res["first_diff_integral_max_form"] == pytest.approx(1.0, abs=1e-6)


def test_stein_solve_converges(capsys):
    base = ("stein", "solve", "--l1", "1", "--l2", "1", "--set", "k>=0",
            "--x", "0", "--y", "0", "--format", "json")
    code, out, _ = run_cli(capsys, *base)
    assert code == 0
    v1 = json.loads(out)["results"]["value"]
    code, out, _ = run_cli(capsys, *base, "--quad-tol", "1e-10")
    v2 = json.loads(out)["results"]["value"]
    assert abs(v1 - v2) < 10 * 1e-8


def test_stein_factors_dominated(capsys):
    code, out, _ = run_cli(capsys, "stein", "factors", "--l1", "10", "--l2", "10",
                           "--order", "2", "--coords", "1,1", "--grid", "30",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    row = doc["rows"][0]
    assert row["dominated"] is True
    assert row["factor"] <= row["bound"] + row["quad_error"]
    assert row["factor"] + row["quad_error"] <= row["upper"] <= row["bound"]
    assert row["dominated_all_states"] is True


def test_stein_factors_default_coords(capsys):
    code, out, _ = run_cli(capsys, "stein", "factors", "--l1", "1", "--l2", "1",
                           "--order", "1", "--grid", "8", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [r["coords"] for r in doc["rows"]] == ["1", "2"]


def test_stein_factors_default_grid_is_certified(capsys):
    code, out, _ = run_cli(capsys, "stein", "factors", "--l1", "3.3", "--l2", "8.7",
                           "--order", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["grid"] < 33  # the rate-driven cap at total rate 12
    for row in doc["rows"]:
        assert row["grid_max"] == doc["params"]["grid"]
        assert row["factor"] <= row["upper"] <= row["factor"] + row["quad_error"]
        assert row["dominated_all_states"] is True


def test_parser_built_once_per_process_with_unchanged_records(capsys):
    calls = [
        ("stein", "factors", "--l1", "3.3", "--l2", "8.7", "--order", "1", "--format", "json"),
        ("dist", "table", "--l1", "1", "--l2", "2", "--format", "json"),
        ("stein", "factors", "--l1", "3.3", "--l2", "8.7", "--order", "3"),
        ("stein", "factors", "--l1", "3.3", "--l2", "8.7", "--order", "1", "--format", "json"),
    ]
    cli._parser.cache_clear()
    with mock.patch.object(cli, "build_parser", wraps=cli.build_parser) as build:
        cached = [run_cli(capsys, *args) for args in calls]
    assert build.call_count == 1
    uncached = []
    for args in calls:
        cli._parser.cache_clear()
        uncached.append(run_cli(capsys, *args))
    assert [record[0] for record in cached] == [0, 0, 2, 0]
    assert cached == uncached
    # Importing the CLI builds no parser; the first call does.
    probe = "import skellam_stein.cli as c; print(c._parser.cache_info().currsize)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert proc.stdout == "0\n"


def test_stein_conjecture_reports(capsys):
    code, out, _ = run_cli(capsys, "stein", "conjecture", "--l1", "5", "--l2", "5",
                           "--format", "json")
    assert code == 0
    res = json.loads(out)["results"]
    assert res["reference_rate"] == pytest.approx(0.1)
    assert isinstance(res["holds_numerically"], bool)


def test_stein_conjecture_fails_at_a_small_rate_witness(capsys):
    """V (l1 + l2) = 1.1258 at (0.1757, 0.981): the 1/(l1 + l2) rate fails
    below a total of about 5, and mpmath at 40 digits says the same."""
    mpmath = pytest.importorskip("mpmath")
    code, out, _ = run_cli(capsys, "stein", "conjecture", "--l1", "0.1757", "--l2", "0.981",
                           "--format", "json")
    assert code == 0
    res = json.loads(out)["results"]
    assert res["holds_numerically"] is False
    with mpmath.workdps(40):
        a, b = mpmath.mpf(0.1757), mpmath.mpf(0.981)

        def p(k):
            return mpmath.exp(-(a + b)) * (a / b) ** (mpmath.mpf(k) / 2) * mpmath.besseli(abs(k), 2 * mpmath.sqrt(a * b))

        probs = {k: p(k) for k in range(-62, 61)}  # beyond |k| = 60 each pmf is below 1e-80
        second = mpmath.fsum(abs(probs[k] - 2 * probs[k - 1] + probs[k - 2]) for k in range(-60, 61))
        ratio = float(second * (a + b))
    assert ratio > 1.12
    assert abs(res["ratio"] - ratio) <= 1e-12 * ratio


def test_verify_graph_homogeneous(capsys):
    code, out, _ = run_cli(capsys, "verify", "graph", "--homogeneous",
                           "100", "0.3", "0.1", "0.05", "--format", "json")
    assert code == 0
    res = json.loads(out)["results"]
    assert res["satisfied"] is True
    assert res["tv"] + res["tv_slack"] <= res["bound"]


def test_verify_graph_model_file(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"p": [0.5, 0.5], "r": [0.2, 0.2], "s": [0.1, 0.1]}))
    code, out, _ = run_cli(capsys, "verify", "graph", "--model", str(path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["satisfied"] is True
    expected = hashlib.sha256(
        b"".join(np.array(v, "<f8").tobytes() for v in ([0.5, 0.5], [0.2, 0.2], [0.1, 0.1]))
    ).hexdigest()
    assert doc["params"]["sha256"] == expected
    assert doc["params"]["n"] == 2


def _graph_record(capsys, *source):
    code, out, _ = run_cli(capsys, "verify", "graph", *source, "--format", "json")
    assert code == 0
    return json.loads(out)


def test_verify_graph_digest_is_the_same_for_every_form_of_a_model(capsys, tmp_path):
    shorthand = tmp_path / "shorthand.json"
    shorthand.write_text(json.dumps({"n": 2, "p": 0.5, "r": 0.2, "s": 0.1}))
    arrays = tmp_path / "arrays.json"
    arrays.write_text(json.dumps({"p": [0.5, 0.5], "r": [0.2, 0.2], "s": [0.1, 0.1]}))
    docs = [
        _graph_record(capsys, "--homogeneous", "2", "0.5", "0.2", "0.1"),
        _graph_record(capsys, "--model", str(shorthand)),
        _graph_record(capsys, "--model", str(arrays)),
    ]
    assert len({doc["params"]["sha256"] for doc in docs}) == 1
    assert docs[0]["params"] == {"p": 0.5, "r": 0.2, "s": 0.1, "n": 2,
                                 "sha256": docs[0]["params"]["sha256"]}
    assert docs[1]["results"] == docs[2]["results"] == docs[0]["results"]


def test_verify_graph_digest_moves_with_one_ulp_of_p(capsys, tmp_path):
    p = np.array([0.5, 0.25])
    digests = []
    for p0 in (p[0], np.nextafter(p[0], 1.0)):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"p": [float(p0), p[1]], "r": [0.2, 0.1], "s": [0.1, 0.3]}))
        digests.append(_graph_record(capsys, "--model", str(path))["params"]["sha256"])
    assert digests[0] != digests[1]


def test_verify_graph_record_does_not_echo_the_model(capsys):
    code, out, _ = run_cli(capsys, "verify", "graph", "--homogeneous",
                           "100000", "0.3", "0.1", "0.05", "--format", "json")
    assert code == 0
    assert len(out.encode()) < 2048


def test_verify_graph_bad_model_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"p": [0.5], "r": [0.2, 0.3], "s": [0.1]}))
    code, out, err = run_cli(capsys, "verify", "graph", "--model", str(path))
    assert code == 2
    assert "error:" in err


def test_verify_haar_zero_spillover(capsys, tmp_path):
    sig = tmp_path / "sig.txt"
    sig.write_text("1.0\n2.0\n3.0\n4.0\n")
    code, out, _ = run_cli(capsys, "verify", "haar", "--signal", str(sig),
                           "--scale", "1", "--loc", "0", "--p", "0")
    assert code == 0
    assert "tv = 0.0" in out and "bound = 0.0" in out


def test_verify_haar_explicit_windows(capsys, tmp_path):
    sig = tmp_path / "sig.txt"
    sig.write_text("1.0\n2.0\n3.0\n4.0\n")
    code, out, _ = run_cli(capsys, "verify", "haar", "--signal", str(sig),
                           "--pos", "0,1", "--neg", "2,3", "--p", "0.5", "--format", "json")
    assert code == 0
    res = json.loads(out)["results"]
    assert (res["observed_lambda1"], res["observed_lambda2"]) == (4.0, 5.5)
    assert res["satisfied"] is True


def test_verify_haar_sweep(capsys, tmp_path):
    sig = tmp_path / "sig.txt"
    sig.write_text("".join(f"{v}\n" for v in (2.0, 2.0, 2.0, 2.0, 9.0, 9.0, 9.0, 9.0)))
    code, out, _ = run_cli(capsys, "verify", "haar", "--signal", str(sig),
                           "--p", "0.25", "--sweep", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["all_satisfied"] is True
    assert doc["results"]["windows"] == len(doc["rows"]) == 4 + 2 + 1


_NO_SELECTION = "window selection needs --scale/--loc or --pos/--neg"


@pytest.mark.parametrize("selection, message", [
    (["--sweep", "--scale", "1", "--loc", "0"], "give one window selection, not --sweep and --scale/--loc"),
    (["--sweep", "--pos", "0", "--neg", "1"], "give one window selection, not --sweep and --pos/--neg"),
    (["--scale", "1", "--loc", "0", "--pos", "0", "--neg", "1"],
     "give one window selection, not --scale/--loc and --pos/--neg"),
    (["--sweep", "--scale", "1", "--loc", "0", "--pos", "0", "--neg", "1"],
     "give one window selection, not --sweep and --scale/--loc and --pos/--neg"),
    (["--sweep", "--loc", "0"], "give one window selection, not --sweep and --scale/--loc"),
    (["--scale", "1", "--neg", "1"], "give one window selection, not --scale/--loc and --pos/--neg"),
    (["--pos", "0"], "--pos and --neg must be given together"),
    (["--scale", "1"], _NO_SELECTION),
    ([], _NO_SELECTION),
])
def test_verify_haar_takes_exactly_one_window_selection(capsys, tmp_path, selection, message):
    sig = tmp_path / "sig.txt"
    sig.write_text("1.0\n2.0\n3.0\n4.0\n")
    code, out, err = run_cli(capsys, "verify", "haar", "--signal", str(sig), "--p", "0.5", *selection)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_usage_errors_exit_2(capsys):
    code, _, _ = run_cli(capsys, "dist", "pmf", "--l1", "1")
    assert code == 2
    code, _, err = run_cli(capsys, "stein", "solve", "--l1", "1", "--l2", "1",
                           "--set", "k==3", "--x", "0", "--y", "0")
    assert code == 2 and "set spec" in err
    code, _, _ = run_cli(capsys, "nonsense")
    assert code == 2
    code, _, err = run_cli(capsys, "stein", "factors", "--l1", "1000", "--l2", "1000",
                           "--order", "1")
    assert code == 2 and "exceeds cap" in err


@pytest.mark.parametrize("source", ["homogeneous", "model"])
def test_verify_graph_oversized_n_refused(capsys, tmp_path, source):
    """n = 10^12 is refused before a per-pair array is built, not by MemoryError."""
    if source == "homogeneous":
        args = ("--homogeneous", "1000000000000", "0.3", "0.1", "0.05")
    else:
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"n": 1e12, "p": 0.3, "r": 0.1, "s": 0.05}))
        args = ("--model", str(path))
    code, out, err = run_cli(capsys, "verify", "graph", *args)
    assert (code, out) == (2, "")
    assert "exact mode supports n <= 100000" in err


@pytest.mark.parametrize("n", [2.7, True, float("inf")])
def test_verify_graph_model_non_integral_n_refused(capsys, tmp_path, n):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"n": n, "p": 0.3, "r": 0.1, "s": 0.05}))
    code, out, err = run_cli(capsys, "verify", "graph", "--model", str(path))
    assert (code, out) == (2, "")
    assert '"n" must be a whole number' in err


@pytest.mark.parametrize("doc, message", [
    ({"n": 2, "p": [0.5], "r": [0.1], "s": [0.1]}, '"p" must be one number when "n" is given, got list'),
    ({"n": 3, "p": [0.3, 0.9], "r": 0.1, "s": 0.1}, '"p" must be one number when "n" is given, got list'),
    ({"n": 3, "p": 0.3, "r": 0.1, "s": True}, '"s" must be one number when "n" is given, got bool'),
])
def test_verify_graph_model_shorthand_with_arrays_refused(capsys, tmp_path, doc, message):
    """With "n", p, r and s are numbers: a list was read as n copies of its
    entry, or failed in numpy's broadcast, and true was read as 1.0."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", "graph", "--model", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_verify_graph_homogeneous_n_written_as_a_float(capsys):
    """--homogeneous reads N as a model file's "n" is read: 1e5 is 100000."""
    as_float = _graph_record(capsys, "--homogeneous", "1e5", "0.3", "0.1", "0.05")
    as_int = _graph_record(capsys, "--homogeneous", "100000", "0.3", "0.1", "0.05")
    assert as_float["params"]["sha256"] == as_int["params"]["sha256"]
    assert as_float["results"] == as_int["results"]


@pytest.mark.parametrize("n, message", [
    ("2.7", '"n" must be a whole number, got 2.7'),
    ("inf", '"n" must be a whole number, got inf'),
    ("0", "n must be >= 1"),
])
def test_verify_graph_homogeneous_bad_n_refused(capsys, n, message):
    code, out, err = run_cli(capsys, "verify", "graph", "--homogeneous", n, "0.3", "0.1", "0.05")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("position, name", list(enumerate("NPRS")))
def test_verify_graph_homogeneous_unreadable_value_named(capsys, position, name):
    values = ["5", "0.3", "0.1", "0.05"]
    values[position] = "abc"
    code, out, err = run_cli(capsys, "verify", "graph", "--homogeneous", *values)
    assert (code, out) == (2, "")
    assert err == f"error: --homogeneous {name}: could not convert string to float: 'abc'\n"


@pytest.mark.parametrize("fmt", ["json", "csv", "human"])
def test_dist_sample_rows_render_as_a_list_of_dicts(capsys, fmt):
    """The draws' rows are built a block at a time (jsonwriter.Rows); the
    record is byte for byte that of one dict per draw."""
    args = ["dist", "sample", "--l1", "3", "--l2", "2", "--n", "700", "--seed", "4", "--format", fmt]
    code, out, _ = run_cli(capsys, *args)
    parsed = cli.build_parser().parse_args(args)
    config, results, _, _ = cli._run(parsed)
    draws = cli.sample(cli.SkellamParams(3.0, 2.0), np.random.default_rng(4), 700)
    listed = [{"index": i, "draw": int(v)} for i, v in enumerate(draws)]
    buf = io.StringIO()
    cli.render(config, results, listed, buf)
    assert code == 0 and out == buf.getvalue()


# VmHWM is the process's own peak RSS.  ru_maxrss is not: across fork and
# exec it keeps the parent's, here the test runner's.
_SAMPLE_PEAK = """\
import os, sys
from skellam_stein.cli import main

def peak_kb():
    return int(next(ln.split()[1] for ln in open("/proc/self/status") if ln.startswith("VmHWM:")))

before = peak_kb()
sys.stdout = open(os.devnull, "w")
code = main(["dist", "sample", "--l1", "3", "--l2", "2", "--n", "1000000", "--format", "json"])
print(code, peak_kb() - before, file=sys.stderr)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_dist_sample_peak_memory():
    """A million draws grow the peak RSS by less than 50 MB: one dict per
    draw took 240 MB."""
    proc = subprocess.run([sys.executable, "-c", _SAMPLE_PEAK], capture_output=True, text=True, check=True)
    code, kb = proc.stderr.split()
    assert code == "0" and int(kb) / 1024 < 50


def test_dist_sample_oversized_n_refused(capsys):
    code, out, err = run_cli(capsys, "dist", "sample", "--l1", "1", "--l2", "1",
                             "--n", "1000000000000")
    assert (code, out) == (2, "")
    assert "exceeds cap 10000000" in err


def test_stein_solve_oversized_state_refused(capsys):
    """A single-state sweep at x = 10^5 takes 10^5 steps per rule over a
    window of 10^5 points; it is refused before any node."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "stein", "solve", "--l1", "1", "--l2", "1",
                             "--set", "k>=0", "--x", "100000", "--y", "0")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert "single-state sweep at (100000, 0)" in err and "exceeds cap" in err


def test_version_flag(capsys):
    assert run_cli(capsys, "--version")[0] == 0


def test_fresh_process_byte_identical():
    args = [sys.executable, "-m", "skellam_stein.cli", "dist", "sample",
            "--l1", "2", "--l2", "3", "--n", "20", "--seed", "123", "--format", "csv"]
    one = subprocess.run(args, capture_output=True)
    two = subprocess.run(args, capture_output=True)
    assert one.returncode == two.returncode == 0
    assert one.stdout == two.stdout



@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_closed_output_pipe_ends_quietly_with_the_command_code(fmt):
    """`dist table ... | head -2`: the reader closes the pipe long before the
    record (about 200 KB) ends.  The command stops writing without a
    traceback and exits with its own code, not the bound-violated 1."""
    args = [sys.executable, "-m", "skellam_stein.cli", "dist", "table",
            "--l1", "3e5", "--l2", "2e5", "--format", fmt]
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    head = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    code = proc.wait(timeout=120)
    err = proc.stderr.read()
    proc.stderr.close()
    assert head[0] in (b"# version=" + cli.__version__.encode() + b"\n", b"{\n")
    assert err == b""
    assert code == 0


@pytest.mark.parametrize("rates, order", [(("3.7", "8.3"), "2"), (("20", "20"), "1")])
def test_stein_factors_independent_of_thread_count(rates, order):
    """The sweep's stacked-node contraction is a BLAS product; its record
    must not depend on how many threads the BLAS pool runs.  At (20, 20)
    the product is large enough for OpenBLAS to split it across threads."""
    args = [sys.executable, "-m", "skellam_stein.cli", "stein", "factors",
            "--l1", rates[0], "--l2", rates[1], "--order", order, "--format", "json"]
    pinned = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    default = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    one = subprocess.run(args, capture_output=True, env=pinned)
    many = subprocess.run(args, capture_output=True, env=default)
    assert one.returncode == many.returncode == 0
    assert one.stdout == many.stdout

# Runs each command of a set through cli.main in one process and prints
# their json records as one json list.
_RECORDS = """\
import contextlib, io, json, sys
from skellam_stein import cli
records = []
for cmd in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(cmd + ["--format", "json"]) == 0
    records.append(json.loads(out.getvalue()))
print(json.dumps(records))
"""


def test_records_independent_of_simd_and_blas_kernels(tmp_path):
    """numpy picks its SIMD loops and OpenBLAS its kernels by the CPU; both
    can be forced down for one process.  With every dispatched numpy feature
    the CPU has turned off, or OpenBLAS on its Haswell kernels, dist and
    verify records keep every bit and each stein factor stays within its
    quad_error of the default run's."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    signal = tmp_path / "signal.txt"
    np.savetxt(signal, np.random.default_rng(0).gamma(2.0, 2.5, 256))
    stein = [["stein", "factors", "--l1", l1, "--l2", l2, "--order", order]
             for l1, l2, order in (("4.5", "7.5", "2"), ("3", "8", "2"), ("0.5", "2", "1"))]
    exact = [["dist", "table", "--l1", "7e5", "--l2", "3e5"],
             ["verify", "haar", "--signal", str(signal), "--p", "0.2", "--sweep"]]
    default = {k: v for k, v in os.environ.items() if k not in ("NPY_DISABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")}
    present = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    axes = [dict(default, NPY_DISABLE_CPU_FEATURES=" ".join(present))] if present else []
    if __cpu_features__.get("AVX2"):  # Haswell's kernels need AVX2
        axes.append(dict(default, OPENBLAS_CORETYPE="Haswell"))

    def records(env):
        proc = subprocess.run([sys.executable, "-c", _RECORDS, json.dumps(stein + exact)],
                              capture_output=True, text=True, env=env, check=True)
        return json.loads(proc.stdout)

    want = records(default)
    for env in axes:
        got = records(env)
        assert got[len(stein):] == want[len(stein):]
        for ours, theirs in zip(got[:len(stein)], want[:len(stein)]):
            for row, ref in zip(ours["rows"], theirs["rows"], strict=True):
                assert abs(row["factor"] - ref["factor"]) <= row["quad_error"], (ours["params"], row)


def _native_recursive(value):
    """The recursive conversion `cli._native` used before arrays went
    straight through `tolist`, kept as the oracle; a 0-d array converts to
    its scalar, and a Rows table to its row dicts."""
    if isinstance(value, jsonwriter.Rows):
        return _native_recursive(value[:])
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return _native_recursive(value.tolist())
    if isinstance(value, (list, tuple)):
        return [_native_recursive(v) for v in value]
    if isinstance(value, dict):
        return {k: _native_recursive(v) for k, v in value.items()}
    return value


def _json_oracle(config, results, rows) -> str:
    """The json record as json.dump(..., indent=2) writes it."""
    doc = {
        "version": cli.__version__,
        "command": config.command,
        "params": config.params,
        "seed": config.seed,
        "tolerances": config.tolerances,
        "results": results,
    }
    if rows is not None:
        doc["rows"] = rows
    out = io.StringIO()
    json.dump(_native_recursive(doc), out, indent=2)
    return out.getvalue() + "\n"


def _fmt_per_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return " ".join(_fmt_per_value(v) for v in value)
    return str(value)


def _text_oracle(config, results, rows) -> str:
    """The csv or human record formatted value by value, after converting
    the record recursively to Python values."""
    results, rows = _native_recursive(results), _native_recursive(rows)
    out = io.StringIO()
    meta = [(k, _fmt_per_value(_native_recursive(v))) for k, v in cli._flat_meta(config)]
    if config.output_format == "csv":
        out.writelines(f"# {key}={text}\n" for key, text in meta)
        table = rows if rows is not None else [results]
        if table:
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(table[0].keys())
            for row in table:
                writer.writerow([_fmt_per_value(v) for v in row.values()])
    else:
        out.writelines(f"{key} = {text}\n" for key, text in meta)
        for key, value in results.items():
            out.write(f"{key} = {_fmt_per_value(value)}\n")
        if rows:
            keys = list(rows[0].keys())
            out.write("\t".join(keys) + "\n")
            for row in rows:
                out.write("\t".join(_fmt_per_value(row[k]) for k in keys) + "\n")
    return out.getvalue()


@pytest.mark.parametrize("fmt", ["json", "csv", "human"])
def test_render_arrays_byte_identical_to_recursive_conversion(fmt):
    floats = np.array([0.1, 1.0 / 3.0, 1e-300, 2.5e17, -0.0, 5e-324])
    ints = np.arange(-3, 4, dtype=np.int64)
    bools = np.array([True, False, True])
    grid = np.arange(6, dtype=np.float64).reshape(2, 3) / 7.0
    params = {"p": floats, "k": ints, "mask": bools, "grid": grid, "n": np.int64(6)}
    results = {"tv": np.float64(0.125), "ok": np.bool_(True), "values": floats}
    rows = [{"k": np.int64(i), "pmf": floats[i], "pair": grid[i % 2]} for i in range(4)]
    # A 0-d array renders as its scalar.
    zero_d = {"x": np.array(0.1), "i": np.array(3), "b": np.array(False)}
    for case in [(params, results, rows), (params, results, None), (zero_d, zero_d, None)]:
        config = cli.RunConfig("render check", case[0], 7, {"tol": np.float64(1e-10)}, fmt)
        out = io.StringIO()
        cli.render(config, *case[1:], out)
        oracle = _json_oracle if fmt == "json" else _text_oracle
        assert out.getvalue() == oracle(config, *case[1:])


_KEYS = st.one_of(st.text(max_size=4), st.sampled_from(["%s", "%", 'a"b', "\u00e9\n", "k"]))
_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1, 1e16]),
)
_SCALARS = st.one_of(
    _FLOATS,
    st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans(),
    st.none(),
    st.text(alphabet=st.characters(codec="utf-8"), max_size=6),
    st.sampled_from(['"q"', "a\nb", "\\", "\u00e9\u4e2d", "%d"]),
    st.builds(np.float64, _FLOATS),
    st.builds(np.float32, st.floats(width=32)),
    st.builds(np.int64, st.integers(min_value=-(2**63), max_value=2**63 - 1)),
    st.builds(np.bool_, st.booleans()),
)
_ARRAYS = hnp.arrays(
    st.sampled_from([np.float64, np.int64, np.bool_]),
    hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=5),
)
_VALUES = st.recursive(
    st.one_of(_SCALARS, _ARRAYS, st.lists(_FLOATS, max_size=12)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.dictionaries(_KEYS, inner, max_size=4),
        st.dictionaries(st.integers(-3, 3), inner, max_size=3),
    ),
    max_leaves=12,
)


def _rows_for(keys):
    flat = st.tuples(*[_SCALARS] * len(keys)).map(lambda vs: dict(zip(keys, vs)))
    odd = st.one_of(
        st.tuples(*[_SCALARS] * len(keys)).map(lambda vs: dict(zip(keys[::-1], vs))),
        st.dictionaries(_KEYS, _VALUES, max_size=3),  # other keys or nested values
    )
    return st.lists(st.one_of(flat, flat, odd), max_size=8)


_SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324]
_STRINGS = ["a", '"q"', "a\nb", "%s", "\u00e9", "null", "\\"]


def _column(kind: str, rng: np.random.Generator, n: int, share: float) -> np.ndarray:
    """n values of one dtype; share of them special (NaN, +-inf, -0.0, the
    least subnormal, or an int64 end) where the dtype has such values."""
    special = rng.random(n) < share
    if kind == "float64":
        col = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        return np.where(special, rng.choice(_SPECIAL_FLOATS, n), col)
    if kind == "int64":
        ends = np.array([-(2**63), -(2**63) + 1, 2**63 - 2, 2**63 - 1])
        return np.where(special, rng.choice(ends, n), rng.integers(-10**9, 10**9, n))
    if kind == "bool":
        return rng.random(n) < 0.5
    return rng.choice(_STRINGS, n)


_COLUMN_KINDS = ["float64", "int64", "bool", "str"]


@st.composite
def _long_tables(draw):
    """A Rows table over two blocks of the writer and more, each column of
    one dtype."""
    keys = draw(st.lists(_KEYS, min_size=1, max_size=3, unique=True))
    kinds = draw(st.lists(st.sampled_from(_COLUMN_KINDS), min_size=len(keys), max_size=len(keys)))
    n = draw(st.integers(jsonwriter._BLOCK + 1, 2 * jsonwriter._BLOCK + 3))
    share = draw(st.sampled_from([0.0, 0.02]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return jsonwriter.Rows(**{key: _column(kind, rng, n, share) for key, kind in zip(keys, kinds)})


_ROWS = st.one_of(
    st.none(),
    st.lists(_KEYS, min_size=1, max_size=4, unique=True).flatmap(_rows_for),
    st.lists(_VALUES, max_size=4),
    _long_tables(),
)


@settings(max_examples=200, deadline=None)
@given(
    params=st.dictionaries(_KEYS, _VALUES, max_size=5),
    results=st.dictionaries(_KEYS, _VALUES, max_size=5),
    rows=_ROWS,
    command=st.text(max_size=8),
    block=st.sampled_from([1, 3, jsonwriter._BLOCK]),
)
def test_render_json_byte_identical_to_json_dump(params, results, rows, command, block):
    config = cli.RunConfig(command, params, 7, {"tol": np.float64(1e-10)}, "json")
    out = io.StringIO()
    with mock.patch.object(jsonwriter, "_BLOCK", block):
        cli.render(config, results, rows, out)
    assert out.getvalue() == _json_oracle(config, results, rows)


@settings(max_examples=40, deadline=None)
@given(rows=_long_tables(), fmt=st.sampled_from(["csv", "human"]),
       block=st.sampled_from([1, 3, jsonwriter._BLOCK]))
def test_render_text_tables_byte_identical_to_per_value_formatting(rows, fmt, block):
    # The first column also goes in as an array value, which prints on one line.
    column = next(iter(rows.columns.values()))
    config = cli.RunConfig("render check", {"n": len(rows), "column": column}, 7, {}, fmt)
    out = io.StringIO()
    with mock.patch.object(jsonwriter, "_BLOCK", block):
        cli.render(config, {"rows": len(rows)}, rows, out)
    assert out.getvalue() == _text_oracle(config, {"rows": len(rows)}, rows)


_EDGE_ROWS = jsonwriter.Rows(
    x=np.array([0.1, math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, -2.5]),
    k=np.array([-(2**63), -(2**63) + 1, -1, 0, 1, 2**53 + 1, 2**63 - 2, 2**63 - 1]),
    ok=np.array([True, False, True, True, False, False, True, False]),
    name=np.array(["a", '"q"', "a\nb", "", "\\", "\u00e9", "t\tb", "null"]),
)


@pytest.mark.parametrize("block", [1, 3, 256])
@pytest.mark.parametrize("fmt", ["json", "csv", "human"])
def test_render_rows_formats_each_column_by_dtype(fmt, block):
    """Each column of a Rows table is formatted by its dtype: float64 with
    NaN, +-inf, -0.0 and the least subnormal, int64 at both ends, bool, and
    str with quotes and newlines; the record is that of its row dicts."""
    config = cli.RunConfig("render check", {"k": _EDGE_ROWS.columns["k"]}, 7, {}, fmt)
    out = io.StringIO()
    with mock.patch.object(jsonwriter, "_BLOCK", block):
        cli.render(config, {"n": len(_EDGE_ROWS)}, _EDGE_ROWS, out)
    oracle = _json_oracle if fmt == "json" else _text_oracle
    assert out.getvalue() == oracle(config, {"n": len(_EDGE_ROWS)}, _EDGE_ROWS)


_HEADER_CASES = [
    (["dist", "pmf", "--l1", "3", "--l2", "2", "--k", "1"], []),
    (["dist", "table", "--l1", "3", "--l2", "2"], ["tail_tol"]),
    (["dist", "sample", "--l1", "3", "--l2", "2", "--n", "5"], []),
    (["stein", "bounds", "--l1", "2", "--l2", "1"], ["quad_tol"]),
    (["stein", "solve", "--l1", "2", "--l2", "1", "--set", "k>=0", "--x", "1", "--y", "0"], ["quad_tol"]),
    (["stein", "factors", "--l1", "2", "--l2", "1", "--order", "1", "--grid", "2"], ["quad_tol"]),
    (["stein", "conjecture", "--l1", "3", "--l2", "2"], ["tail_tol"]),
    (["verify", "graph", "--homogeneous", "4", "0.3", "0.1", "0.05"], ["tail_tol"]),
    (["verify", "haar", "--signal", "SIGNAL", "--p", "0.1", "--sweep"], ["tail_tol"]),
    (["verify", "haar", "--signal", "SIGNAL", "--p", "0.1", "--scale", "1", "--loc", "0"], ["tail_tol"]),
]


@pytest.mark.parametrize("fmt", ["json", "csv", "human"])
@pytest.mark.parametrize("argv, tolerances", _HEADER_CASES, ids=[
    "dist-pmf", "dist-table", "dist-sample", "stein-bounds", "stein-solve", "stein-factors",
    "stein-conjecture", "verify-graph", "verify-haar-sweep", "verify-haar-window",
])
def test_every_record_header_names_its_command_seed_and_tolerances(capsys, tmp_path, argv, tolerances, fmt):
    """main builds every header: the command as parsed, --seed and the
    command's own tolerance keys, in each format."""
    signal = tmp_path / "signal.txt"
    signal.write_text("3\n5\n2\n8\n")
    argv = [str(signal) if a == "SIGNAL" else a for a in argv]
    code, out, err = run_cli(capsys, *argv, "--seed", "7", "--format", fmt)
    assert (code, err) == (0, ""), err
    command = " ".join(argv[:2])
    if fmt == "json":
        doc = json.loads(out)
        assert (doc["command"], doc["seed"], list(doc["tolerances"])) == (command, 7, tolerances)
        return
    lines = out.splitlines()
    prefix, sep = ("# ", "=") if fmt == "csv" else ("", " = ")
    assert f"{prefix}command{sep}{command}" in lines
    assert f"{prefix}seed{sep}7" in lines
    found = [line[len(prefix):].split(sep)[0] for line in lines if line.startswith(prefix + "tolerances.")]
    assert found == [f"tolerances.{key}" for key in tolerances]


def test_every_cli_table_reaches_render_as_rows(capsys, tmp_path):
    signal = tmp_path / "signal.txt"
    signal.write_text("3\n5\n2\n8\n")
    commands = [
        ["dist", "table", "--l1", "3.7", "--l2", "8.3"],
        ["dist", "sample", "--l1", "3", "--l2", "2", "--n", "5"],
        ["dist", "sample", "--l1", "3", "--l2", "2", "--n", "0"],
        ["stein", "factors", "--l1", "2", "--l2", "1", "--order", "1"],
        ["verify", "haar", "--signal", str(signal), "--p", "0.1", "--sweep"],
    ]
    for argv in commands:
        with mock.patch.object(cli, "render", wraps=cli.render) as render:
            code, out, err = run_cli(capsys, *argv, "--format", "json")
        rows = render.call_args.args[2]
        assert (code, err) == (0, "") and isinstance(rows, jsonwriter.Rows), argv
        assert len(json.loads(out)["rows"]) == len(rows)


_TOTAL_RATE = "error: total rate l1 + l2 = "
_INFINITE_RULE = "error: tolerance "


@pytest.mark.parametrize("args, message", [
    (["stein", "bounds", "--l1", "1e308", "--l2", "1e308"], _TOTAL_RATE),
    (["stein", "bounds", "--l1", "1e308", "--l2", "0", "--extended"], _TOTAL_RATE),
    (["stein", "bounds", "--l1", "1e300", "--l2", "1e300"], _TOTAL_RATE),
    (["stein", "factors", "--l1", "1e300", "--l2", "1e300", "--order", "1"], _TOTAL_RATE),
    (["stein", "bounds", "--l1", "1e20", "--l2", "1e20"], _INFINITE_RULE),
    (["stein", "solve", "--l1", "1e6", "--l2", "1e6", "--set", "k>=0", "--x", "0", "--y", "0",
      "--quad-tol", "1.0"], _INFINITE_RULE),
])
def test_huge_rates_exit_2_with_one_typed_line(capsys, args, message):
    """A total rate above MAX_BESSEL_X is refused by name before any numpy
    operation could warn; a rule bound past the float range is inf, and the
    quadrature is refused before any node is evaluated."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *args)
    assert (code, out) == (2, "")
    assert err.startswith(message) and err.count("\n") == 1, err
    assert message == _TOTAL_RATE or err.endswith(" bounds inf\n"), err


def test_dist_table_past_the_float_range_exits_2_with_one_typed_line(capsys):
    # l1 + l2 overflows in the window-end solve: a refusal, not a warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "dist", "table", "--l1", "1e308", "--l2", "1e308")
    assert (code, out, err) == (2, "", "error: pmf window of inf points exceeds cap 10000000\n")


@pytest.mark.parametrize("rate, width", [("1e5", 202439), ("1e6", 2007691)])
def test_certificate_frame_refused_before_any_sweep(capsys, rate, width):
    """The certificate's frame depends on the rates, the order and the grid
    alone, so a frame past the cap is refused before the grid is swept.
    The one-state sweep at (1e5, 1e5) alone takes about 18 s."""
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "stein", "factors", "--l1", rate, "--l2", rate, "--order", "2",
                                 "--grid", "0", "--quad-tol", "1")
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (2, "")
    assert err == (f"error: certificate frame of 400 rows by {width} points is {400 * width} floats, "
                   "exceeds cap 10000000 floats\n")


def test_dist_table_record_byte_identical_to_json_dump(capsys):
    argv = ["dist", "table", "--l1", "6e5", "--l2", "4e5", "--format", "json"]
    code, out, _ = run_cli(capsys, *argv)
    args = cli.build_parser().parse_args(argv)
    config, results, rows, _ = cli._run(args)
    assert code == 0 and len(rows) > 10**4
    assert out == _json_oracle(config, results, rows)


class _WriteSizes(io.StringIO):
    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


def test_render_json_streams_large_arrays_in_bounded_writes():
    p = np.random.default_rng(3).uniform(0.0, 1.0, 10**5)
    config = cli.RunConfig("verify graph", {"n": p.size, "p": p}, 0, {}, "json")
    out = _WriteSizes()
    cli.render(config, {"tv": 0.5}, None, out)
    assert sum(out.sizes) > 2 * 10**6  # the whole array went out
    assert max(out.sizes) <= 2**20
    assert out.getvalue() == _json_oracle(config, {"tv": 0.5}, None)


def test_verify_haar_non_finite_window_rate_exits_2(capsys, tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text("1e308\n" * 4)
    for window in (("--sweep",), ("--scale", "2", "--loc", "0")):
        code, out, err = run_cli(capsys, "verify", "haar", "--signal", str(path),
                                 "--p", "0.1", *window)
        assert code == cli.EXIT_USAGE and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: window ("), err


@pytest.mark.parametrize("tail_tol", ["0", "-1", "7", "nan"])
@pytest.mark.parametrize("signal, p", [
    ("1.0\n2.0\n3.0\n4.0\n", "0.1"),
    ("1.0\n2.0\n3.0\n4.0\n", "0"),  # no window's two laws differ
    ("0\n0\n0\n0\n", "0.1"),
])
def test_verify_haar_refuses_a_tail_tol_outside_0_1(capsys, tmp_path, signal, p, tail_tol):
    path = tmp_path / "signal.txt"
    path.write_text(signal)
    for window in (("--sweep",), ("--scale", "2", "--loc", "0")):
        code, out, err = run_cli(capsys, "verify", "haar", "--signal", str(path), "--p", p,
                                 f"--tail-tol={tail_tol}", *window)
        assert (code, out, err) == (cli.EXIT_USAGE, "", "error: tail_tol must lie in (0, 1)\n")


def test_unexpected_handler_error_exits_3(capsys):
    def broken(args):
        raise RuntimeError("simulated defect")

    with mock.patch.object(cli, "_cmd_dist_pmf", broken), \
            mock.patch.object(logging.getLogger("skellam_stein"), "debug") as debug:
        code, out, err = run_cli(capsys, "dist", "pmf", "--l1", "1", "--l2", "1", "--k", "0")
    assert code == cli.EXIT_INTERNAL == 3 and out == ""
    assert err == "error: internal error: RuntimeError: simulated defect\n"
    assert debug.call_args.kwargs == {"exc_info": True}  # the traceback, for DEBUG logging


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_every_subcommand_finds_its_handler_by_name():
    """_run calls _cmd_<group>_<subcommand>: every subcommand the parser
    declares has that handler, and every handler serves one subcommand."""
    names = [
        f"_cmd_{group}_{sub}"
        for group, group_parser in _subparsers(cli.build_parser()).items()
        for sub in _subparsers(group_parser)
    ]
    assert all(callable(getattr(cli, name, None)) for name in names), names
    assert sorted(names) == sorted(name for name in vars(cli) if name.startswith("_cmd_"))


def test_node_window_escape_inputs_exit_0(capsys):
    # The sweep's node windows once escaped its global window here (exit 3):
    # a greedy window at a lower rate could reach farther than the full-rate
    # one.  Chernoff-sized Poisson windows nest as the rate falls.
    for l1, l2, tol in (("3", "4", "1e-13"), ("1", "1", "1e-14")):
        code, out, err = run_cli(capsys, "stein", "factors", "--l1", l1, "--l2", l2,
                                 "--order", "1", "--quad-tol", tol, "--format", "json")
        assert code == 0 and err == "", (l1, l2, err)
        doc = json.loads(out)
        assert doc["results"]["all_dominated"] is True and doc["rows"]
        assert all(row["dominated"] for row in doc["rows"])


@pytest.mark.parametrize("args, message", [
    (("--l1", "1e300", "--l2", "1", "--k", "0"), "error: lambda1 = 1e+300 is above the largest supported pmf rate"),
    (("--l1", "3", "--l2", "1", "--k", "100000000000000000000"), "error: |k| = 100000000000000000000 is above"),
])
def test_dist_pmf_out_of_domain_exits_2_with_the_library_message(capsys, args, message):
    code, out, err = run_cli(capsys, "dist", "pmf", *args)
    assert code == cli.EXIT_USAGE and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(message), err


def test_dist_pmf_at_large_orders(capsys):
    # Olver's expansion: a Skellam centre at total rate 1e6 and a Poisson
    # pmf at 1e5, against scipy.
    for args, ref in (
        (("--l1", "7e5", "--l2", "3e5", "--k", "400000"), sstats.skellam.pmf(400000, 7e5, 3e5)),
        (("--l1", "1e5", "--l2", "0", "--extended", "--k", "99000"), sstats.poisson.pmf(99000, 1e5)),
    ):
        code, out, _ = run_cli(capsys, "dist", "pmf", *args, "--format", "json")
        assert code == 0
        assert json.loads(out)["results"]["pmf"] == pytest.approx(ref, rel=1e-12)


_FUZZ_RATES = st.one_of(
    st.sampled_from([0.0, 1e-300, 1e6, math.nan, math.inf, -1.0, -1e-300]),
    st.floats(min_value=0.0, max_value=30.0, exclude_min=True),
)


@given(
    l1=_FUZZ_RATES,
    l2=_FUZZ_RATES,
    extended=st.booleans(),
    order=st.sampled_from(["1", "2"]),
    quad_tol=st.sampled_from([None, 1e-300, 1e-310, 5e-324, 1.0]),
    grid=st.sampled_from([None, -1, 0, 3, 10**6]),
)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_fuzz_stein_factors(l1, l2, extended, order, quad_tol, grid):
    """Any rates, tolerance and grid: a verdict or one error line, and every
    row's interval ordered and consistent with its flags."""
    # --opt=value: argparse reads a separate "-1e-300" as an option name.
    args = ["stein", "factors", f"--l1={l1!r}", f"--l2={l2!r}", "--order", order,
            "--format", "json"]
    args += ["--extended"] if extended else []
    args += [f"--quad-tol={quad_tol!r}"] if quad_tol is not None else []
    args += [f"--grid={grid}"] if grid is not None else []
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdout", out), mock.patch.object(sys, "stderr", err):
        code = main(args)
    assert code in (0, 1, 2), (args, err.getvalue())
    if code == 2:
        lines = err.getvalue().splitlines()
        assert out.getvalue() == "" and len(lines) == 1 and lines[0].startswith("error: "), args
        return
    doc = json.loads(out.getvalue())
    assert doc["results"]["all_dominated"] is (code == 0)
    for row in doc["rows"]:
        assert 0.0 <= row["factor"] <= row["upper"] and row["quad_error"] >= 0.0, (args, row)
        assert row["dominated"] is (row["factor"] <= row["bound"] + row["quad_error"]), (args, row)
        assert not row["dominated_all_states"] or row["upper"] <= row["bound"], (args, row)


_SOLVE_RATES = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-300, 1e6, math.nan, math.inf, -1e-300]),
    st.floats(min_value=0.0, max_value=30.0, exclude_min=True),
)
_SOLVE_SETS = st.one_of(
    st.builds("k>={}".format, st.integers(-40, 40)),
    st.builds("k<={}".format, st.integers(-40, 40)),
    st.builds("{{{},{}}}".format, st.integers(-40, 40), st.integers(-40, 40)),
    st.just("k>>1"),
)


@given(
    l1=_SOLVE_RATES,
    l2=_SOLVE_RATES,
    extended=st.booleans(),
    x=st.sampled_from([0, 1, 7, 40, 10**5]),
    y=st.sampled_from([0, 1, 7, 40, 10**5]),
    test_set=_SOLVE_SETS,
    quad_tol=st.sampled_from([1e-300, 1e-310, 5e-324, 1e-13, 1.0]),
)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_fuzz_stein_solve(l1, l2, extended, x, y, test_set, quad_tol):
    """Any rates, state, set and tolerance: a finite value or one error line."""
    args = ["stein", "solve", f"--l1={l1!r}", f"--l2={l2!r}", f"--x={x}", f"--y={y}",
            f"--set={test_set}", f"--quad-tol={quad_tol!r}", "--format", "json"]
    args += ["--extended"] if extended else []
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdout", out), mock.patch.object(sys, "stderr", err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would print beside the record: exit 3 here
        code = main(args)
    assert code in (0, 2), (args, err.getvalue())
    if code == 2:
        lines = err.getvalue().splitlines()
        assert out.getvalue() == "" and len(lines) == 1 and lines[0].startswith("error: "), args
        return
    assert math.isfinite(json.loads(out.getvalue())["results"]["value"]), args


@pytest.mark.parametrize("args", [
    ["stein", "factors", "--l1", "1", "--l2", "-1e-300", "--order", "1"],
    ["dist", "pmf", "--l1", "1", "--l2", "-1e-300", "--k", "0"],
    ["dist", "pmf", "--l1", "-2.5E+3", "--l2", "1", "--k", "0"],
])
def test_negative_rates_with_exponents_reach_the_library_check(capsys, args):
    """A rate such as -1e-300 is read as a number, not as an option name."""
    code, out, err = run_cli(capsys, *args)
    name = "lambda2" if args[5].startswith("-") else "lambda1"
    assert (code, out, err) == (2, "", f"error: {name} must be non-negative\n")


@pytest.mark.parametrize("args", [
    ["stein", "factors", "--l1", "3", "--l2", "4", "--order", "1", "--quad-tol", "800"],
    ["stein", "factors", "--l1", "3", "--l2", "4", "--order", "2", "--quad-tol", "2000"],
    ["stein", "factors", "--l1", "3", "--l2", "4", "--order", "1", "--quad-tol", "inf"],
    ["stein", "solve", "--l1", "3", "--l2", "4", "--set", "k>=1", "--x", "3", "--y", "2", "--quad-tol", "1000"],
    ["stein", "solve", "--l1", "3", "--l2", "4", "--set", "k>=1", "--x", "3", "--y", "2", "--quad-tol", "inf"],
    ["stein", "bounds", "--l1", "3", "--l2", "4", "--quad-tol", "0"],
    ["stein", "bounds", "--l1", "3", "--l2", "4", "--quad-tol", "nan"],
])
def test_a_tolerance_out_of_range_is_refused_by_name(capsys, args):
    """Once a math domain error, a tail_tol refusal or the integrator's
    abs_tol: each refusal names quad_tol."""
    code, out, err = run_cli(capsys, *args)
    assert (code, out) == (2, "") and len(err.splitlines()) == 1
    assert err.startswith("error: quad_tol "), err


def test_stein_conjecture_window_refuses_rates_past_the_pmf_range(capsys):
    # The walk's Bessel ratios would start some 10 sqrt(l1 l2) orders out:
    # past int64 at (1e300, 1e300), where numpy warned of a nan cast.
    for l1, l2 in (("1e300", "1e300"), ("0", "1e300"), ("1e11", "1")):
        code, out, err = run_cli(capsys, "stein", "conjecture", "--l1", l1, "--l2", l2,
                                 "--extended", "--lo", "-40", "--hi", "40")
        assert (code, out) == (2, ""), (l1, l2, err)
        assert "above the largest supported pmf rate" in err, err


def test_stein_bounds_at_a_subnormal_rate(capsys):
    # 0.5 x underflows to 0 in the Bessel series at x = 5e-324.
    code, out, err = run_cli(capsys, "stein", "bounds", "--l1", "5e-324", "--l2", "0",
                             "--extended", "--format", "json")
    assert (code, err) == (0, "")
    res = json.loads(out)["results"]
    assert res["first_diff_integral"] == 1.0 and res["first_diff"] == 1.0


_HAAR_BINS = st.one_of(st.sampled_from([0.0, 5e-324, 1e308]), st.floats(0.0, 50.0))


@given(
    bins=st.lists(_HAAR_BINS, min_size=1, max_size=64),
    window=st.one_of(st.none(), st.tuples(st.integers(0, 7), st.integers(-1, 40))),
    p=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    tail_tol=st.sampled_from([None, 1e-300, 1e-310, 5e-324, 0.5]),
)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_fuzz_verify_haar(tmp_path_factory, bins, window, p, tail_tol):
    """Any signal, window, p and tolerance: a verdict or one error line, and
    every reported TV interval inside [0, 1] with a non-negative slack."""
    path = tmp_path_factory.mktemp("haar") / "signal.txt"
    path.write_text("".join(f"{v!r}\n" for v in bins))
    args = ["verify", "haar", "--signal", str(path), f"--p={p!r}", "--format", "json"]
    args += ["--sweep"] if window is None else [f"--scale={window[0]}", f"--loc={window[1]}"]
    args += [f"--tail-tol={tail_tol!r}"] if tail_tol is not None else []
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdout", out), mock.patch.object(sys, "stderr", err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would print beside the record: exit 3 here
        code = main(args)
    assert code in (0, 1, 2), (args, err.getvalue())
    if code == 2:
        lines = err.getvalue().splitlines()
        assert out.getvalue() == "" and len(lines) == 1 and lines[0].startswith("error: "), args
        return
    doc = json.loads(out.getvalue())
    if window is None:
        rows = doc["rows"]
        assert doc["results"]["all_satisfied"] is (code == 0)
        n = len(bins)
        assert doc["results"]["windows"] == len(rows) == sum(n >> s for s in range(1, n.bit_length()))
    else:
        rows = [doc["results"]]
        assert doc["results"]["satisfied"] is (code == 0)
    for row in rows:
        assert 0.0 <= row["tv"] <= 1.0 and row["tv_slack"] >= 0.0, (args, row)


_DIST_RATES = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-300, 1e6, 1e300, math.nan, math.inf, -1e-300]),
    st.floats(0.0, 50.0),
)


@given(
    command=st.sampled_from(["pmf", "table", "sample"]),
    l1=_DIST_RATES,
    l2=_DIST_RATES,
    extended=st.booleans(),
    k=st.one_of(st.integers(-60, 60), st.sampled_from([-(2**53) - 1, 2**53, 10**20])),
    tol=st.sampled_from([None, 1e-300, 1e-310, 5e-324, 1e-15, 0.5, 1.0]),
    n=st.integers(0, 1000),
)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_fuzz_dist(command, l1, l2, extended, k, tol, n):
    """Any rates, order, tolerance and count: a record or one error line,
    and every table's window and tail consistent."""
    args = ["dist", command, f"--l1={l1!r}", f"--l2={l2!r}", "--format", "json"]
    args += ["--extended"] if extended else []
    if command == "pmf":
        args += [f"--k={k}"]
    elif command == "table":
        args += [f"--tol={tol!r}"] if tol is not None else []
    else:
        args += [f"--n={n}"]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdout", out), mock.patch.object(sys, "stderr", err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would print beside the record: exit 3 here
        code = main(args)
    assert code in (0, 2), (args, err.getvalue())
    if code == 2:
        lines = err.getvalue().splitlines()
        assert out.getvalue() == "" and len(lines) == 1 and lines[0].startswith("error: "), args
        return
    res = json.loads(out.getvalue())["results"]
    if command == "table":
        assert res["window_lo"] <= res["window_hi"], (args, res)
        assert 0.0 <= res["tail_mass"] < 1.0, (args, res)
        assert abs(res["window_mass"] + res["tail_mass"] - 1.0) <= 1e-9, (args, res)


_OTHER_RATES = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e6, 1e300, math.nan, math.inf]),
    st.floats(0.0, 50.0),
)
_GRAPH_PROBABILITIES = st.one_of(
    st.sampled_from(["0", "1", "-0.25", "1.5", "nan", "inf"]),
    st.floats(0.0, 1.0).map(repr),
)
_GRAPH_MODELS = [
    "{not json",
    "[0.5, 0.1, 0.1]",
    '{"p": [0.5], "r": [0.1]}',
    '{"p": [0.5], "r": [0.1, 0.2], "s": [0.1]}',
    '{"p": [], "r": [], "s": []}',
    '{"p": [0.5, NaN], "r": [0.1, 0.1], "s": [0.1, 0.1]}',
    '{"n": 2.7, "p": 0.5, "r": 0.1, "s": 0.1}',
    '{"n": true, "p": 0.5, "r": 0.1, "s": 0.1}',
    '{"n": 100001, "p": 0.5, "r": 0.1, "s": 0.1}',
    '{"n": 40, "p": 0.5, "r": 0.1, "s": 0.1}',
    '{"p": [0.5, 0.2, 0.9], "r": [0.1, 0.0, 1.0], "s": [0.3, 0.2, 0.0]}',
]


@given(
    command=st.sampled_from(["bounds", "conjecture", "graph"]),
    l1=_OTHER_RATES,
    l2=_OTHER_RATES,
    extended=st.booleans(),
    quad_tol=st.sampled_from([None, 1e-300, 1.0, 2000.0, 0.0]),
    window=st.sampled_from([None, (-40, 40), (5, -5), (-(10**7), 10**7)]),
    n=st.sampled_from(["0", "1", "2.5", "12", str(10**5 + 1)]),
    prs=st.tuples(_GRAPH_PROBABILITIES, _GRAPH_PROBABILITIES, _GRAPH_PROBABILITIES),
    model=st.one_of(st.none(), st.sampled_from(_GRAPH_MODELS)),
    tail_tol=st.sampled_from([None, 1e-300, 1e-310, 5e-324]),
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_fuzz_stein_bounds_conjecture_and_verify_graph(
    tmp_path_factory, command, l1, l2, extended, quad_tol, window, n, prs, model, tail_tol
):
    """Any rates, tolerance, window or graph model: a record or one error
    line, exit 1 only for a graph whose bound fails, and no nan bound."""
    if command == "graph":
        args = ["verify", "graph", "--format", "json"]
        if model is None:
            args += ["--homogeneous", n, *prs]
        else:
            path = tmp_path_factory.mktemp("graph") / "model.json"
            path.write_text(model)
            args += ["--model", str(path)]
        args += [f"--tail-tol={tail_tol!r}"] if tail_tol is not None else []
    else:
        args = ["stein", command, f"--l1={l1!r}", f"--l2={l2!r}", "--format", "json"]
        args += ["--extended"] if extended else []
        if command == "bounds":
            args += [f"--quad-tol={quad_tol!r}"] if quad_tol is not None else []
        elif window is not None:
            args += [f"--lo={window[0]}", f"--hi={window[1]}"]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdout", out), mock.patch.object(sys, "stderr", err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would print beside the record: exit 3 here
        code = main(args)
    assert code in ((0, 1, 2) if command == "graph" else (0, 2)), (args, err.getvalue())
    if code == 2:
        lines = err.getvalue().splitlines()
        assert out.getvalue() == "" and len(lines) == 1 and lines[0].startswith("error: "), args
        return
    doc = json.loads(out.getvalue())
    res = doc["results"]
    if command == "graph":
        params = doc["params"]
        assert not any(isinstance(v, list) for v in params.values()), (args, params)
        assert re.fullmatch("[0-9a-f]{64}", params["sha256"]), (args, params)
        assert res["satisfied"] is (code == 0), (args, res)
        assert 0.0 <= res["tv"] <= 1.0 and res["tv_slack"] >= 0.0, (args, res)
        bounds = [res["bound"]]
    elif command == "bounds":
        bounds = list(res.values())
    else:
        bounds = [res["second_diff_sum"], res["reference_rate"], res["tail_bound"]]
    assert not any(math.isnan(b) for b in bounds), (args, res)


@pytest.mark.parametrize("tol", ["1e-310", "5e-324"])
@pytest.mark.parametrize("args", [
    ["dist", "table", "--l1", "3", "--l2", "4", "--tol"],
    ["verify", "graph", "--homogeneous", "100", "0.3", "0.1", "0.05", "--tail-tol"],
    ["verify", "haar", "--signal", "SIGNAL", "--p", "0.2", "--sweep", "--tail-tol"],
    ["dist", "table", "--l1", "3", "--l2", "0", "--extended", "--tol"],
    ["stein", "factors", "--l1", "3", "--l2", "4", "--order", "1", "--quad-tol"],
])
def test_tolerances_below_two_over_the_float_max_give_no_nan(tmp_path, capsys, args, tol):
    """Where 2 / tail_tol overflows, T = log 2 - log tail_tol: a record, or
    one error line that names the tolerance, never a nan window."""
    signal = tmp_path / "signal.txt"
    np.savetxt(signal, np.random.default_rng(0).gamma(2.0, 2.5, 2048))
    args = [str(signal) if a == "SIGNAL" else a for a in args] + [tol, "--format", "json"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, *args)
    assert "nan" not in err.lower(), err
    if code == 2:
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert "tol" in err, err
    else:
        assert (code, err) == (0, ""), err
        assert json.loads(out)["tolerances"], out


def test_a_tolerance_on_a_rate_value_still_ends_the_window(capsys):
    # T = log(2 / tol) lies within 1e-9 below Chernoff's I(67) at (30, 20),
    # where a Newton step out from k = 67 and the check back would cycle.
    code, out, err = run_cli(capsys, "dist", "table", "--l1", "30", "--l2", "20",
                             "--tol", "9.349046447863673e-13", "--format", "json")
    assert (code, err) == (0, "")
    res = json.loads(out)["results"]
    assert (res["window_lo"], res["window_hi"]) == (-43, 66)
