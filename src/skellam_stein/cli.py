"""Command-line front end: distribution tables, Stein diagnostics, verification.

Output formats share one float rendering (shortest round-trip repr), so the
same table printed as csv and as json carries identical digit strings.
Every record echoes the tool version, command, resolved parameters, seed,
and tolerances; deterministic commands reproduce bit-for-bit from a record.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, haar_spillover, noisy_graph
from .dists import ResourceLimitError
from .skellam import SkellamParams, moments, pmf, sample, to_dist
from .special import QuadratureError
from .stein import (
    QUAD_TOL_DEFAULT,
    TestSet,
    bound_first_diff,
    bound_first_diff_integral,
    bound_relaxed,
    bound_second_diff,
    exact_stein_factor,
    prior_bound_comparison,
    skellam_second_diff_sum,
    stein_solution,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


@dataclass(frozen=True)
class RunConfig:
    command: str
    params: dict
    seed: int
    tolerances: dict
    output_format: str


# ---------------------------------------------------------------------------
# Rendering.

def _native(value):
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()  # already Python scalars and nested lists
    if isinstance(value, (list, tuple)):
        return [_native(v) for v in value]
    if isinstance(value, dict):
        return {k: _native(v) for k, v in value.items()}
    return value


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return " ".join(_fmt(v) for v in value)
    return str(value)


def _flat_meta(config: RunConfig) -> list[tuple[str, object]]:
    items = [("version", __version__), ("command", config.command)]
    items += [(f"params.{k}", v) for k, v in config.params.items()]
    items.append(("seed", config.seed))
    items += [(f"tolerances.{k}", v) for k, v in config.tolerances.items()]
    return items


def render(config: RunConfig, results: dict, rows, out) -> None:
    results = _native(results)
    rows = _native(rows)
    if config.output_format == "json":
        doc = {
            "version": __version__,
            "command": config.command,
            "params": _native(config.params),
            "seed": config.seed,
            "tolerances": _native(config.tolerances),
            "results": results,
        }
        if rows is not None:
            doc["rows"] = rows
        json.dump(doc, out, indent=2)
        out.write("\n")
    elif config.output_format == "csv":
        for key, value in _flat_meta(config):
            out.write(f"# {key}={_fmt(_native(value))}\n")
        table = rows if rows is not None else [results]
        if table:
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(table[0].keys())
            for row in table:
                writer.writerow([_fmt(v) for v in row.values()])
    else:
        for key, value in _flat_meta(config):
            out.write(f"{key} = {_fmt(_native(value))}\n")
        for key, value in results.items():
            out.write(f"{key} = {_fmt(value)}\n")
        if rows:
            keys = list(rows[0].keys())
            out.write("\t".join(keys) + "\n")
            for row in rows:
                out.write("\t".join(_fmt(row[k]) for k in keys) + "\n")


# ---------------------------------------------------------------------------
# Shared argument plumbing.

def _skellam_from_args(args) -> SkellamParams:
    return SkellamParams(args.l1, args.l2, extended=args.extended)


def _parse_index_list(text: str, n: int, name: str) -> np.ndarray:
    out = np.zeros(n, dtype=np.int64)
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        idx = int(tok)
        if not 0 <= idx < n:
            raise ValueError(f"{name} index {idx} outside the signal range 0..{n - 1}")
        out[idx] = 1
    if not out.any():
        raise ValueError(f"{name} selects no bins")
    return out


# ---------------------------------------------------------------------------
# dist subcommands.

def _cmd_dist_pmf(args):
    params = _skellam_from_args(args)
    config = RunConfig(
        "dist pmf",
        {"l1": params.lambda1, "l2": params.lambda2, "extended": params.extended, "k": args.k},
        args.seed,
        {},
        args.format,
    )
    return config, {"pmf": pmf(params, args.k)}, None, EXIT_OK


def _cmd_dist_table(args):
    params = _skellam_from_args(args)
    dist = to_dist(params, args.tol)
    mean, variance = moments(params)
    config = RunConfig(
        "dist table",
        {"l1": params.lambda1, "l2": params.lambda2, "extended": params.extended},
        args.seed,
        {"tail_tol": args.tol},
        args.format,
    )
    results = {
        "window_lo": dist.min_support,
        "window_hi": dist.max_support,
        "window_mass": dist.window_mass(),
        "tail_mass": dist.tail_mass,
        "mean": mean,
        "variance": variance,
    }
    rows = [
        {"k": dist.min_support + i, "pmf": float(p)}
        for i, p in enumerate(dist.probabilities)
    ]
    return config, results, rows, EXIT_OK


def _cmd_dist_sample(args):
    params = _skellam_from_args(args)
    if args.n < 0:
        raise ValueError("--n must be >= 0")
    rng = np.random.default_rng(args.seed)
    draws = sample(params, rng, args.n)
    config = RunConfig(
        "dist sample",
        {"l1": params.lambda1, "l2": params.lambda2, "extended": params.extended, "n": args.n},
        args.seed,
        {},
        args.format,
    )
    rows = [{"index": i, "draw": int(v)} for i, v in enumerate(draws)]
    return config, {"count": args.n}, rows, EXIT_OK


# ---------------------------------------------------------------------------
# stein subcommands.

def _cmd_stein_bounds(args):
    params = _skellam_from_args(args)
    integral = bound_first_diff_integral(params, args.quad_tol)
    results = {
        "first_diff": bound_first_diff(params),
        "second_diff": bound_second_diff(params),
        "relaxed_first": bound_relaxed(params, 1),
        "relaxed_second": bound_relaxed(params, 2),
        "first_diff_integral": integral.value,
        "integral_asymptote": integral.asymptote,
    }
    if args.printed_max_form:
        results["first_diff_integral_max_form"] = bound_first_diff_integral(
            params, args.quad_tol, printed_max_form=True
        ).value
    if params.lambda1 == params.lambda2 and params.lambda1 > 0:
        here, prior = prior_bound_comparison(params.lambda1)
        results["prior_comparison_here"] = here
        results["prior_comparison_reference"] = prior
    config = RunConfig(
        "stein bounds",
        {"l1": params.lambda1, "l2": params.lambda2, "extended": params.extended},
        args.seed,
        {"quad_tol": args.quad_tol},
        args.format,
    )
    return config, results, None, EXIT_OK


def _cmd_stein_solve(args):
    params = _skellam_from_args(args)
    f = TestSet.parse(args.set)
    value = stein_solution(params, f, (args.x, args.y), args.quad_tol)
    config = RunConfig(
        "stein solve",
        {
            "l1": params.lambda1,
            "l2": params.lambda2,
            "extended": params.extended,
            "set": f.describe(),
            "x": args.x,
            "y": args.y,
        },
        args.seed,
        {"quad_tol": args.quad_tol},
        args.format,
    )
    return config, {"value": value}, None, EXIT_OK


_COORDS_BY_ORDER = {1: ((1,), (2,)), 2: ((1, 1), (2, 2), (1, 2))}


def _cmd_stein_factors(args):
    params = _skellam_from_args(args)
    if args.coords:
        coord_list = [tuple(int(t) for t in args.coords.split(",") if t.strip())]
    else:
        coord_list = list(_COORDS_BY_ORDER[args.order])
    closed_form = bound_first_diff(params) if args.order == 1 else bound_second_diff(params)
    rows = []
    code = EXIT_OK
    for coords in coord_list:
        res = exact_stein_factor(params, args.order, coords, args.grid, args.quad_tol)
        dominated = res.value <= closed_form + res.quad_error
        if not dominated:
            code = EXIT_VIOLATION
        rows.append(
            {
                "order": args.order,
                "coords": ",".join(str(c) for c in coords),
                "factor": res.value,
                "bound": closed_form,
                "quad_error": res.quad_error,
                "dominated": dominated,
                "argmax_x": res.argmax_state[0],
                "argmax_y": res.argmax_state[1],
                "grid_max": res.grid_max,
            }
        )
    config = RunConfig(
        "stein factors",
        {
            "l1": params.lambda1,
            "l2": params.lambda2,
            "extended": params.extended,
            "order": args.order,
            "grid": rows[0]["grid_max"],
        },
        args.seed,
        {"quad_tol": args.quad_tol},
        args.format,
    )
    return config, {"all_dominated": code == EXIT_OK}, rows, code


def _cmd_stein_conjecture(args):
    params = _skellam_from_args(args)
    window = None
    if args.lo is not None or args.hi is not None:
        if args.lo is None or args.hi is None:
            raise ValueError("--lo and --hi must be given together")
        window = (args.lo, args.hi)
    report = skellam_second_diff_sum(params, window)
    config = RunConfig(
        "stein conjecture",
        {"l1": params.lambda1, "l2": params.lambda2, "extended": params.extended},
        args.seed,
        {"tail_tol": 1e-12},
        args.format,
    )
    results = {
        "second_diff_sum": report.value,
        "reference_rate": report.reference,
        "ratio": report.ratio,
        "window_lo": report.window_lo,
        "window_hi": report.window_hi,
        "tail_bound": report.tail_bound,
        "holds_numerically": report.conjecture_holds_numerically(),
    }
    return config, results, None, EXIT_OK


# ---------------------------------------------------------------------------
# verify subcommands.

def _report_results(report) -> dict:
    results = {
        "tv": report.tv.value,
        "tv_slack": report.tv.slack,
        "bound": report.bound,
        "satisfied": report.satisfied,
        "ratio": report.ratio,
    }
    results.update(report.extra)
    return results


def _cmd_verify_graph(args):
    if args.model:
        model = noisy_graph.load_model(args.model)
        params = {"model": args.model}
    else:
        n_text, p_text, r_text, s_text = args.homogeneous
        n = int(n_text)
        noisy_graph.check_exact_size(n)
        model = noisy_graph.NoisyGraphModel.homogeneous(
            n, float(p_text), float(r_text), float(s_text)
        )
        params = {}
    params.update(
        {
            "n": model.n,
            "p": model.p,
            "r": model.r,
            "s": model.s,
        }
    )
    report = noisy_graph.verify(model, args.tail_tol)
    approx = noisy_graph.skellam_params(model)
    results = {"lambda1": approx.lambda1, "lambda2": approx.lambda2}
    results.update(_report_results(report))
    config = RunConfig("verify graph", params, args.seed, {"tail_tol": args.tail_tol}, args.format)
    return config, results, None, EXIT_OK if report.satisfied else EXIT_VIOLATION


def _haar_model_from_args(args) -> tuple[haar_spillover.HaarSpilloverModel, dict]:
    f = haar_spillover.load_signal(args.signal)
    params: dict = {"signal": args.signal, "n": f.size, "p": args.p}
    if args.pos or args.neg:
        if not (args.pos and args.neg):
            raise ValueError("--pos and --neg must be given together")
        pos = _parse_index_list(args.pos, f.size, "--pos")
        neg = _parse_index_list(args.neg, f.size, "--neg")
        params.update({"pos": np.flatnonzero(pos), "neg": np.flatnonzero(neg)})
    else:
        if args.scale is None or args.loc is None:
            raise ValueError("window selection needs --scale/--loc or --pos/--neg")
        pos, neg = haar_spillover.haar_windows(f.size, args.scale, args.loc)
        params.update({"scale": args.scale, "location": args.loc})
    return haar_spillover.HaarSpilloverModel(f, pos, neg, args.p), params


def _cmd_verify_haar(args):
    if args.sweep:
        f = haar_spillover.load_signal(args.signal)
        rows = haar_spillover.sweep_windows(f, args.p, args.tail_tol)
        ok = all(r["satisfied"] for r in rows)
        config = RunConfig(
            "verify haar",
            {"signal": args.signal, "n": f.size, "p": args.p, "sweep": True},
            args.seed,
            {"tail_tol": args.tail_tol},
            args.format,
        )
        return config, {"windows": len(rows), "all_satisfied": ok}, rows, (
            EXIT_OK if ok else EXIT_VIOLATION
        )
    model, params = _haar_model_from_args(args)
    report = haar_spillover.verify(model, args.tail_tol)
    true_p = haar_spillover.true_coeff_params(model)
    obs_p = haar_spillover.observed_coeff_params(model)
    results = {
        "true_lambda1": true_p.lambda1,
        "true_lambda2": true_p.lambda2,
        "observed_lambda1": obs_p.lambda1,
        "observed_lambda2": obs_p.lambda2,
    }
    results.update(_report_results(report))
    config = RunConfig("verify haar", params, args.seed, {"tail_tol": args.tail_tol}, args.format)
    return config, results, None, EXIT_OK if report.satisfied else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# Parser.

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skellam-stein",
        description="Skellam laws, Stein diagnostics, and TV bound verification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "human"), default="human")
    common.add_argument("--seed", type=int, default=0, help="RNG seed, echoed in output")

    rates = argparse.ArgumentParser(add_help=False)
    rates.add_argument("--l1", type=float, required=True, help="first rate")
    rates.add_argument("--l2", type=float, required=True, help="second rate")
    rates.add_argument("--extended", action="store_true", help="allow zero rates")

    top = parser.add_subparsers(dest="group", required=True)

    dist = top.add_parser("dist", help="Skellam distribution surface")
    dist_sub = dist.add_subparsers(dest="subcommand", required=True)
    p = dist_sub.add_parser("pmf", parents=[common, rates])
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(handler=_cmd_dist_pmf)
    p = dist_sub.add_parser("table", parents=[common, rates])
    p.add_argument("--tol", type=float, default=1e-12, help="tail mass outside the window")
    p.set_defaults(handler=_cmd_dist_table)
    p = dist_sub.add_parser("sample", parents=[common, rates])
    p.add_argument("--n", type=int, required=True, help="number of draws")
    p.set_defaults(handler=_cmd_dist_sample)

    stein_cmd = top.add_parser("stein", help="Stein solutions, factors, bounds")
    stein_sub = stein_cmd.add_subparsers(dest="subcommand", required=True)
    p = stein_sub.add_parser("bounds", parents=[common, rates])
    p.add_argument("--quad-tol", type=float, default=QUAD_TOL_DEFAULT)
    p.add_argument("--printed-max-form", action="store_true",
                   help="also evaluate the integral bound with max in place of min")
    p.set_defaults(handler=_cmd_stein_bounds)
    p = stein_sub.add_parser("solve", parents=[common, rates])
    p.add_argument("--set", required=True, help="k>=a, k<=a, or {a,b,c}")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--quad-tol", type=float, default=QUAD_TOL_DEFAULT)
    p.set_defaults(handler=_cmd_stein_solve)
    p = stein_sub.add_parser("factors", parents=[common, rates])
    p.add_argument("--order", type=int, choices=(1, 2), required=True)
    p.add_argument("--coords", help="restrict to one coordinate tuple, e.g. 1,2")
    p.add_argument("--grid", type=int, help="state grid maximum (default rate-driven)")
    p.add_argument("--quad-tol", type=float, default=QUAD_TOL_DEFAULT)
    p.set_defaults(handler=_cmd_stein_factors)
    p = stein_sub.add_parser("conjecture", parents=[common, rates])
    p.add_argument("--lo", type=int, help="window lower end")
    p.add_argument("--hi", type=int, help="window upper end")
    p.set_defaults(handler=_cmd_stein_conjecture)

    verify = top.add_parser("verify", help="application theorem verification")
    verify_sub = verify.add_subparsers(dest="subcommand", required=True)
    p = verify_sub.add_parser("graph", parents=[common])
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--model", help="JSON model file with p, r, s arrays")
    src.add_argument("--homogeneous", nargs=4, metavar=("N", "P", "R", "S"))
    p.add_argument("--tail-tol", type=float, default=1e-10)
    p.set_defaults(handler=_cmd_verify_graph)
    p = verify_sub.add_parser("haar", parents=[common])
    p.add_argument("--signal", required=True, help="newline-separated intensities")
    p.add_argument("--scale", type=int)
    p.add_argument("--loc", type=int)
    p.add_argument("--pos", help="explicit positive-window indices, e.g. 0,1")
    p.add_argument("--neg", help="explicit negative-window indices, e.g. 2,3")
    p.add_argument("--p", type=float, required=True, help="spillover probability")
    p.add_argument("--sweep", action="store_true", help="verify every dyadic window")
    p.add_argument("--tail-tol", type=float, default=1e-10)
    p.set_defaults(handler=_cmd_verify_haar)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        config, results, rows, code = args.handler(args)
    except (ValueError, OSError, QuadratureError, ResourceLimitError,
            json.JSONDecodeError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    render(config, results, rows, sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
