"""The benchmark workloads: seeded inputs, units of work and output checks.

One op is one certified answer from the CLI.  Every op's inputs derive from
(seed, stream, index) alone, so a given seed replays the same inputs, and no
two ops of a process share inputs: the package's lru_caches
(``_exact_stein_factor_cached``, ``_solution_kernel_grid``,
``_log_scaled_iv_table_cached``) can then only gain what distinct real inputs
gain.  Warm-up ops draw from a stream of their own.

A scalar that sets an op's cost (a rate split) follows a randomly shifted
golden-ratio sequence, so each run covers its whole range evenly however few
ops it makes; each value is still uniform over the range.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

TIMED, WARM = 0, 1
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass
class OpInput:
    argvs: list[list[str]]   # CLI calls making up the op, run in order
    units: float             # work the op certifies, in the workload's unit
    pair_orders: int = 0     # (rate pair, order) combinations it certifies
    expect: dict = field(default_factory=dict)


@dataclass
class Record:
    code: int
    stdout: str
    stderr: str

    @cached_property
    def doc(self):
        """The parsed JSON record, or the JSONDecodeError it raised."""
        try:
            return json.loads(self.stdout)
        except json.JSONDecodeError as exc:
            return exc


def _rng(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, index])


def _spread(seed: int, stream: int, index: int) -> float:
    """Index-th point of the seed's shifted golden-ratio sequence in [0, 1)."""
    shift = np.random.default_rng([seed, stream]).random()
    return (shift + index * GOLDEN) % 1.0


def _close(a: float, b: float, rel: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + atol


def _parse(records: list[Record]) -> tuple[list[dict], list[str]]:
    docs, problems = [], []
    for rec in records:
        if rec.code != 0:
            problems.append(f"exit code {rec.code}: {rec.stderr.strip()[:200]}")
            continue
        if isinstance(rec.doc, json.JSONDecodeError):
            problems.append(f"unparsable record: {rec.doc}")
        else:
            docs.append(rec.doc)
    return docs, problems


def overlap_failures(current: dict, reference: dict) -> list[str]:
    """Certified values whose interval misses the recorded interval."""
    problems = []
    for key, (v0, e0) in reference.items():
        if key not in current:
            problems.append(f"certified value {key} missing")
            continue
        v, e = current[key]
        if abs(v - v0) > e + e0:
            problems.append(f"{key}: {v!r} +- {e!r} misses recorded {v0!r} +- {e0!r}")
    return problems


class Workload:
    """Why each workload exists is in BENCHMARK.json and README.md."""

    name: str
    unit: str
    # Peak RSS is read after this many timed ops: the package's caches grow
    # with every distinct input, so a reading at the end of the run would
    # depend on how many ops the host's speed allowed.
    rss_after_ops = 3

    def units(self, records: list[Record], inp: OpInput) -> float:
        return inp.units

    def certified(self, records: list[Record]) -> dict:
        """Certified values of the op as {key: (value, error)}."""
        return {}


class SteinFactors(Workload):
    name = "stein_factors"
    unit = "rate pairs"
    total = 12.0          # default state grid 33
    small_total = 4.0     # default state grid 16

    def make_input(self, seed, stream, index, workdir: Path, small=False) -> OpInput:
        total = self.small_total if small else self.total
        l1 = total * (0.25 + 0.5 * _spread(seed, stream, index))
        l2 = total - l1
        argvs = [
            ["stein", "factors", "--l1", repr(l1), "--l2", repr(l2),
             "--order", order, "--format", "json"]
            for order in ("1", "2")
        ]
        return OpInput(argvs, 1.0, 2, {"l1": l1, "l2": l2})

    @staticmethod
    def closed_form(order: int, l1: float, l2: float) -> float:
        m = max(l1, l2)
        if order == 1:
            return min(1.0, math.sqrt(2.0 / (math.e * m)))
        r2 = math.sqrt(2.0)
        log_plus = math.log(r2 * m) if r2 * m > 1.0 else 0.0
        return min(1.0, 1.0 / (2.0 * m * m) + r2 * log_plus / m)

    def check(self, records, inp) -> list[str]:
        docs, problems = _parse(records)
        l1, l2 = inp.expect["l1"], inp.expect["l2"]
        for order, doc in enumerate(docs, 1):
            if (doc["params"]["l1"], doc["params"]["l2"]) != (l1, l2):
                problems.append(f"order {order}: rates echoed as {doc['params']}")
            if not doc["results"]["all_dominated"] or not doc["rows"]:
                problems.append(f"order {order}: not all factors dominated")
            bound = self.closed_form(order, l1, l2)
            for row in doc["rows"]:
                if row["order"] != order or not _close(row["bound"], bound, 1e-12):
                    problems.append(f"order {order}: bound {row['bound']!r}, expected {bound!r}")
                if not (row["dominated"] and 0.0 <= row["factor"] <= bound + row["quad_error"]):
                    problems.append(f"order {order} coords {row['coords']}: factor "
                                    f"{row['factor']!r} exceeds bound {bound!r}")
        return problems

    def certified(self, records) -> dict:
        docs, _ = _parse(records)
        return {
            f"order{row['order']}:{row['coords']}": (row["factor"], row["quad_error"])
            for doc in docs for row in doc["rows"]
        }


class GraphVerify(Workload):
    name = "graph_verify"
    unit = "edges"
    n = 10**5            # the exact-mode cap
    small_n = 10**4

    def make_input(self, seed, stream, index, workdir: Path, small=False) -> OpInput:
        n = self.small_n if small else self.n
        rng = _rng(seed, stream, index)
        p = rng.uniform(0.05, 0.5, n)
        r = rng.uniform(0.0, 0.2, n)
        s = rng.uniform(0.0, 0.2, n)
        path = workdir / "graph_model.json"
        path.write_text(json.dumps({"p": p.tolist(), "r": r.tolist(), "s": s.tolist()}))
        drop = p * r
        invent = (1.0 - p) * s
        q = drop + invent
        s1, s2 = math.fsum(q), math.fsum(q * q)
        r2 = math.sqrt(2.0)
        log_plus = math.log(r2 * s1) if r2 * s1 > 1.0 else 0.0
        bound = s2 * (2.0 / s1**2 + 2.0 * r2 * log_plus / s1)
        expect = {"n": n, "lambda1": math.fsum(drop), "lambda2": math.fsum(invent),
                  "bound": bound}
        argv = ["verify", "graph", "--model", str(path), "--format", "json"]
        return OpInput([argv], float(n), 0, expect)

    def check(self, records, inp) -> list[str]:
        docs, problems = _parse(records)
        e = inp.expect
        for doc in docs:
            res = doc["results"]
            if doc["params"]["n"] != e["n"]:
                problems.append(f"n echoed as {doc['params']['n']}")
            for key in ("lambda1", "lambda2"):
                if not _close(res[key], e[key], 1e-12):
                    problems.append(f"{key} {res[key]!r}, expected {e[key]!r}")
            if not _close(res["bound"], e["bound"], 1e-9):
                problems.append(f"bound {res['bound']!r}, expected {e['bound']!r}")
            if not (res["satisfied"] and 0.0 <= res["tv"] <= 1.0
                    and res["tv"] + res["tv_slack"] <= e["bound"]):
                problems.append(f"tv {res['tv']!r} +- {res['tv_slack']!r} "
                                f"violates bound {e['bound']!r}")
        return problems

    def certified(self, records) -> dict:
        docs, _ = _parse(records)
        return {"tv": (doc["results"]["tv"], doc["results"]["tv_slack"]) for doc in docs}


class HaarSweep(Workload):
    name = "haar_sweep"
    unit = "windows"
    bins = 2048
    small_bins = 256
    p = 0.2

    def make_input(self, seed, stream, index, workdir: Path, small=False) -> OpInput:
        n = self.small_bins if small else self.bins
        f = _rng(seed, stream, index).gamma(2.0, 2.5, n)
        path = workdir / "haar_signal.txt"
        path.write_text("".join(f"{v!r}\n" for v in f.tolist()))
        argv = ["verify", "haar", "--signal", str(path), "--p", repr(self.p),
                "--sweep", "--format", "json"]
        return OpInput([argv], float(n - 1), 0, {"f": f})

    def expected_windows(self, f: np.ndarray):
        """(scale, location, bound, bound tolerance) per dyadic window."""
        n = f.size
        fs = np.append(f[1:], 0.0)
        rows = []
        scale = 1
        while (1 << scale) <= n:
            width = 1 << scale
            half = width // 2
            w, ws = f[: n // width * width].reshape(-1, width), fs[: n // width * width].reshape(-1, width)
            pf, nf = w[:, :half].sum(1), w[:, half:].sum(1)
            gap = np.abs(pf - ws[:, :half].sum(1)) + np.abs(nf - ws[:, half:].sum(1))
            coef = np.sqrt(2.0 * self.p**2 / (math.e * np.maximum(pf, nf)))
            bound = coef * gap
            # the sums are rounded in another order than the package's dot products
            tol = 1e-9 * bound + 1e-12 * coef * (pf + nf) * 4.0
            for loc in range(pf.size):
                rows.append((scale, loc, float(bound[loc]), float(tol[loc])))
            scale += 1
        return rows

    def check(self, records, inp) -> list[str]:
        docs, problems = _parse(records)
        expected = self.expected_windows(inp.expect["f"])
        for doc in docs:
            rows = doc["rows"]
            if doc["results"]["windows"] != len(expected) or len(rows) != len(expected):
                problems.append(f"{len(rows)} windows, expected {len(expected)}")
                continue
            if not doc["results"]["all_satisfied"]:
                problems.append("not all windows satisfied")
            for row, (scale, loc, bound, tol) in zip(rows, expected):
                where = f"window ({row['scale']}, {row['location']})"
                if (row["scale"], row["location"]) != (scale, loc):
                    problems.append(f"{where}, expected ({scale}, {loc})")
                elif abs(row["bound"] - bound) > tol:
                    problems.append(f"{where}: bound {row['bound']!r}, expected {bound!r}")
                elif not (row["satisfied"] and 0.0 <= row["tv"] <= 1.0
                          and row["tv"] + row["tv_slack"] <= bound + tol):
                    problems.append(f"{where}: tv {row['tv']!r} violates bound {bound!r}")
        return problems[:20]

    def certified(self, records) -> dict:
        docs, _ = _parse(records)
        return {
            f"{row['scale']}:{row['location']}": (row["tv"], row["tv_slack"])
            for doc in docs for row in doc["rows"]
        }


class DistTable(Workload):
    name = "dist_table"
    unit = "pmf rows"
    # Each op leaves Bessel tables of an input-dependent size in the cache;
    # twenty ops even out which sizes a run happens to draw first.
    rss_after_ops = 20
    total = 1e6
    small_total = 1e4

    def make_input(self, seed, stream, index, workdir: Path, small=False) -> OpInput:
        total = self.small_total if small else self.total
        l1 = total * (0.3 + 0.4 * _spread(seed, stream, index))
        l2 = total - l1
        argv = ["dist", "table", "--l1", repr(l1), "--l2", repr(l2), "--format", "json"]
        return OpInput([argv], 0.0, 0, {"l1": l1, "l2": l2})

    def check(self, records, inp) -> list[str]:
        docs, problems = _parse(records)
        l1, l2 = inp.expect["l1"], inp.expect["l2"]
        mean, var = l1 - l2, l1 + l2
        for doc in docs:
            res, rows = doc["results"], doc["rows"]
            if (doc["params"]["l1"], doc["params"]["l2"]) != (l1, l2):
                problems.append(f"rates echoed as {doc['params']}")
            if not (_close(res["mean"], mean, 1e-12, 1e-12 * var) and _close(res["variance"], var, 1e-12)):
                problems.append(f"moments {res['mean']!r}, {res['variance']!r}, expected {mean!r}, {var!r}")
            k = np.array([row["k"] for row in rows], dtype=np.float64)
            pk = np.array([row["pmf"] for row in rows])
            if (k.size == 0 or k[0] != res["window_lo"] or k[-1] != res["window_hi"]
                    or np.any(np.diff(k) != 1.0) or np.any(pk < 0.0)):
                problems.append("rows are not a contiguous non-negative window")
                continue
            mass = math.fsum(pk.tolist())
            if abs(mass + res["tail_mass"] - 1.0) > 1e-9:
                problems.append(f"window mass {mass!r} + tail {res['tail_mass']!r} is not 1")
            got_mean = float(k @ pk) / mass
            got_var = float((k - got_mean) ** 2 @ pk) / mass
            sd = math.sqrt(var)
            if abs(got_mean - mean) > 1e-6 * max(abs(mean), sd) or not _close(got_var, var, 1e-6):
                problems.append(f"window moments {got_mean!r}, {got_var!r}, expected {mean!r}, {var!r}")
        return problems

    def units(self, records, inp) -> float:
        docs, _ = _parse(records)
        return float(sum(len(doc["rows"]) for doc in docs))


WORKLOADS = {w.name: w for w in (SteinFactors(), GraphVerify(), HaarSweep(), DistTable())}
