import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from skellam_stein import cli
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


def test_stein_factors_default_coords(capsys):
    code, out, _ = run_cli(capsys, "stein", "factors", "--l1", "1", "--l2", "1",
                           "--order", "1", "--grid", "8", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert [r["coords"] for r in doc["rows"]] == ["1", "2"]


def test_stein_conjecture_reports(capsys):
    code, out, _ = run_cli(capsys, "stein", "conjecture", "--l1", "5", "--l2", "5",
                           "--format", "json")
    assert code == 0
    res = json.loads(out)["results"]
    assert res["reference_rate"] == pytest.approx(0.1)
    assert isinstance(res["holds_numerically"], bool)


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
    assert doc["params"]["p"] == [0.5, 0.5]


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


def test_dist_sample_oversized_n_refused(capsys):
    code, out, err = run_cli(capsys, "dist", "sample", "--l1", "1", "--l2", "1",
                             "--n", "1000000000000")
    assert (code, out) == (2, "")
    assert "exceeds cap 10000000" in err


def test_version_flag(capsys):
    assert run_cli(capsys, "--version")[0] == 0


def test_fresh_process_byte_identical():
    args = [sys.executable, "-m", "skellam_stein.cli", "dist", "sample",
            "--l1", "2", "--l2", "3", "--n", "20", "--seed", "123", "--format", "csv"]
    one = subprocess.run(args, capture_output=True)
    two = subprocess.run(args, capture_output=True)
    assert one.returncode == two.returncode == 0
    assert one.stdout == two.stdout



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

def _native_recursive(value):
    """The recursive conversion `cli._native` used before arrays went
    straight through `tolist`, kept as the oracle."""
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_native_recursive(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_native_recursive(v) for v in value]
    if isinstance(value, dict):
        return {k: _native_recursive(v) for k, v in value.items()}
    return value


def _render_text(monkeypatch, native, fmt, params, results, rows):
    monkeypatch.setattr(cli, "_native", native)
    out = io.StringIO()
    config = cli.RunConfig("render check", params, 7, {"tol": np.float64(1e-10)}, fmt)
    cli.render(config, results, rows, out)
    return out.getvalue()


@pytest.mark.parametrize("fmt", ["json", "csv", "human"])
def test_render_arrays_byte_identical_to_recursive_conversion(monkeypatch, fmt):
    floats = np.array([0.1, 1.0 / 3.0, 1e-300, 2.5e17, -0.0, 5e-324])
    ints = np.arange(-3, 4, dtype=np.int64)
    bools = np.array([True, False, True])
    grid = np.arange(6, dtype=np.float64).reshape(2, 3) / 7.0
    params = {"p": floats, "k": ints, "mask": bools, "grid": grid, "n": np.int64(6)}
    results = {"tv": np.float64(0.125), "ok": np.bool_(True), "values": floats}
    rows = [{"k": np.int64(i), "pmf": floats[i], "pair": grid[i % 2]} for i in range(4)]
    native = cli._native
    for rows_arg in (rows, None):
        new = _render_text(monkeypatch, native, fmt, params, results, rows_arg)
        old = _render_text(monkeypatch, _native_recursive, fmt, params, results, rows_arg)
        assert new == old

    # The recursion failed on 0-d arrays (it iterated a scalar); tolist now
    # returns their scalar, which renders as the recursive conversion of it.
    zero_d = {"x": np.array(0.1), "i": np.array(3), "b": np.array(False)}
    new = _render_text(monkeypatch, native, fmt, zero_d, zero_d, None)
    items = {k: v.item() for k, v in zero_d.items()}
    old = _render_text(monkeypatch, _native_recursive, fmt, items, items, None)
    assert new == old
