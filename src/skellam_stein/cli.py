"""Command-line front end: distribution tables, Stein diagnostics, verification.

Output formats share one float rendering (shortest round-trip repr), so the
same table printed as csv and as json carries identical digit strings.
The json record is byte for byte what ``json.dump(record, out, indent=2)``
writes, but ``jsonwriter`` streams it: lists and 1-D arrays go out in blocks
of a few hundred items, never as one whole-record string or one write per
token.  Every table a command returns is a ``jsonwriter.Rows`` of 1-D
arrays, which every format reads column by column, a block of rows at a
time, each column formatted by its dtype (one repr map for floats and
ints); a 1-D array value prints the same way.  A list of dicts, such as
csv's one-row table of results, is formatted value by value.
Every record echoes the tool version, command, resolved parameters, seed,
and tolerances; deterministic commands reproduce bit-for-bit from a record.
``main`` builds that header once for every command: a handler returns only
its own params, tolerances, results, rows and exit code, and the command
name, seed and format come from the parsed arguments, and ``_run`` finds
the handler by that name, ``_cmd_<group>_<subcommand>``.
A ``verify graph`` model's arrays are not echoed: the record identifies
them by ``n`` and their SHA-256 (``noisy_graph.model_digest``).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import logging
import re
import sys
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import __version__, haar_spillover, jsonwriter, noisy_graph
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
EXIT_INTERNAL = 3


@dataclass(frozen=True)
class RunConfig:
    command: str
    params: dict
    seed: int
    tolerances: dict
    output_format: str


# ---------------------------------------------------------------------------
# Rendering.

def _fmt(value) -> str:
    if isinstance(value, np.ndarray) and value.ndim == 1:
        # A block at a time, as jsonwriter streams arrays: the texts of a
        # whole 10^5-float array at once left csv and human slower than json.
        step = jsonwriter._BLOCK
        return " ".join([
            " ".join(_texts(value[i : i + step])) for i in range(0, value.size, step)
        ])
    if isinstance(value, (np.generic, np.ndarray)):
        value = value.tolist()
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return " ".join(map(_fmt, value))
    return str(value)


def _texts(column: np.ndarray) -> list[str]:
    """_fmt of each value of a 1-D array, by its dtype: one float.__repr__
    or int.__repr__ map for floats and ints."""
    kind = column.dtype.kind
    values = column.tolist()
    if kind == "f":
        return list(map(float.__repr__, values))
    if kind in "iu":
        return list(map(int.__repr__, values))
    return list(map(_fmt, values))


def _table(rows) -> tuple[list, Iterable[list[tuple[str, ...]]]]:
    """The header and the cells of a non-empty table: a Rows' columns a
    block of rows at a time, each through _texts; a list of dicts value by
    value under the first row's keys."""
    if isinstance(rows, jsonwriter.Rows):
        columns = list(rows.columns.values())
        step = jsonwriter._BLOCK
        blocks = (
            list(zip(*[_texts(c[i : i + step]) for c in columns])) for i in range(0, len(rows), step)
        )
        return list(rows.columns), blocks
    keys = list(rows[0])
    return keys, [[tuple(_fmt(row[k]) for k in keys) for row in rows]]


def _flat_meta(config: RunConfig) -> list[tuple[str, object]]:
    items = [("version", __version__), ("command", config.command)]
    items += [(f"params.{k}", v) for k, v in config.params.items()]
    items.append(("seed", config.seed))
    items += [(f"tolerances.{k}", v) for k, v in config.tolerances.items()]
    return items


def render(config: RunConfig, results: dict, rows, out) -> None:
    if config.output_format == "json":
        doc = {
            "version": __version__,
            "command": config.command,
            "params": config.params,
            "seed": config.seed,
            "tolerances": config.tolerances,
            "results": results,
        }
        if rows is not None:
            doc["rows"] = rows
        jsonwriter.dump(doc, out)
        out.write("\n")
        return
    if config.output_format == "csv":
        for key, value in _flat_meta(config):
            out.write(f"# {key}={_fmt(value)}\n")
        table = rows if rows is not None else [results]
        if table:
            keys, blocks = _table(table)
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(keys)
            for block in blocks:
                writer.writerows(block)
    else:
        for key, value in _flat_meta(config):
            out.write(f"{key} = {_fmt(value)}\n")
        for key, value in results.items():
            out.write(f"{key} = {_fmt(value)}\n")
        if rows:
            keys, blocks = _table(rows)
            out.write("\t".join(keys) + "\n")
            for block in blocks:
                out.write("\n".join(map("\t".join, block)) + "\n")


# ---------------------------------------------------------------------------
# Shared argument plumbing.

def _skellam_from_args(args) -> SkellamParams:
    return SkellamParams(args.l1, args.l2, extended=args.extended)


def _rate_params(params: SkellamParams, **own) -> dict:
    """A rate command's params: the rate pair, then the command's own."""
    return {"l1": params.lambda1, "l2": params.lambda2, "extended": params.extended, **own}


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
    return _rate_params(params, k=args.k), {}, {"pmf": pmf(params, args.k)}, None, EXIT_OK


def _cmd_dist_table(args):
    params = _skellam_from_args(args)
    dist = to_dist(params, args.tol)
    mean, variance = moments(params)
    results = {
        "window_lo": dist.min_support,
        "window_hi": dist.max_support,
        "window_mass": dist.window_mass(),
        "tail_mass": dist.tail_mass,
        "mean": mean,
        "variance": variance,
    }
    rows = jsonwriter.Rows(
        k=np.arange(dist.min_support, dist.max_support + 1), pmf=dist.probabilities
    )
    return _rate_params(params), {"tail_tol": args.tol}, results, rows, EXIT_OK


def _cmd_dist_sample(args):
    params = _skellam_from_args(args)
    if args.n < 0:
        raise ValueError("--n must be >= 0")
    draws = sample(params, np.random.default_rng(args.seed), args.n)
    rows = jsonwriter.Rows(index=np.arange(args.n), draw=draws)
    return _rate_params(params, n=args.n), {}, {"count": args.n}, rows, EXIT_OK


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
    return _rate_params(params), {"quad_tol": args.quad_tol}, results, None, EXIT_OK


def _cmd_stein_solve(args):
    params = _skellam_from_args(args)
    f = TestSet.parse(args.set)
    value = stein_solution(params, f, (args.x, args.y), args.quad_tol)
    own = _rate_params(params, set=f.describe(), x=args.x, y=args.y)
    return own, {"quad_tol": args.quad_tol}, {"value": value}, None, EXIT_OK


_COORDS_BY_ORDER = {1: ((1,), (2,)), 2: ((1, 1), (2, 2), (1, 2))}


def _cmd_stein_factors(args):
    params = _skellam_from_args(args)
    if args.coords:
        coord_list = [tuple(int(t) for t in args.coords.split(",") if t.strip())]
    else:
        coord_list = list(_COORDS_BY_ORDER[args.order])
    closed_form = bound_first_diff(params) if args.order == 1 else bound_second_diff(params)
    found = [
        exact_stein_factor(params, args.order, coords, args.grid, args.quad_tol)
        for coords in coord_list
    ]
    factor = np.array([res.value for res in found])
    quad_error = np.array([res.quad_error for res in found])
    upper = np.array([res.upper for res in found])
    argmax = np.array([res.argmax_state for res in found])
    dominated = factor <= closed_form + quad_error
    rows = jsonwriter.Rows(
        order=np.full(len(found), args.order),
        coords=np.array([",".join(str(c) for c in coords) for coords in coord_list]),
        factor=factor,
        bound=np.full(len(found), closed_form),
        quad_error=quad_error,
        upper=upper,
        dominated=dominated,
        dominated_all_states=upper <= closed_form,
        argmax_x=argmax[:, 0],
        argmax_y=argmax[:, 1],
        grid_max=np.array([res.grid_max for res in found]),
    )
    code = EXIT_OK if dominated.all() else EXIT_VIOLATION
    own = _rate_params(params, order=args.order, grid=found[0].grid_max)
    return own, {"quad_tol": args.quad_tol}, {"all_dominated": code == EXIT_OK}, rows, code


def _cmd_stein_conjecture(args):
    params = _skellam_from_args(args)
    window = None
    if args.lo is not None or args.hi is not None:
        if args.lo is None or args.hi is None:
            raise ValueError("--lo and --hi must be given together")
        window = (args.lo, args.hi)
    report = skellam_second_diff_sum(params, window)
    results = {
        "second_diff_sum": report.value,
        "reference_rate": report.reference,
        "ratio": report.ratio,
        "window_lo": report.window_lo,
        "window_hi": report.window_hi,
        "tail_bound": report.tail_bound,
        "holds_numerically": report.conjecture_holds_numerically(),
    }
    return _rate_params(params), {"tail_tol": 1e-12}, results, None, EXIT_OK


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


def _homogeneous_field(name: str, text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ValueError(f"--homogeneous {name}: {exc}") from None


def _cmd_verify_graph(args):
    if args.model:
        model = noisy_graph.load_model(args.model)
        params = {"model": args.model}
    else:
        # N is read as a model file's "n" is: 1e5 is a whole number, 2.7 is refused.
        n, p, r, s = map(_homogeneous_field, "NPRS", args.homogeneous)
        params = {"p": p, "r": r, "s": s}
        model = noisy_graph.NoisyGraphModel.from_dict({"n": n, **params})
    params.update({"n": model.n, "sha256": noisy_graph.model_digest(model)})
    report = noisy_graph.verify(model, args.tail_tol)
    approx = noisy_graph.skellam_params(model)
    results = {"lambda1": approx.lambda1, "lambda2": approx.lambda2}
    results.update(_report_results(report))
    code = EXIT_OK if report.satisfied else EXIT_VIOLATION
    return params, {"tail_tol": args.tail_tol}, results, None, code


def _cmd_verify_haar(args):
    given = [name for name, on in (
        ("--sweep", args.sweep),
        ("--scale/--loc", args.scale is not None or args.loc is not None),
        ("--pos/--neg", bool(args.pos or args.neg)),
    ) if on]
    if len(given) > 1:
        raise ValueError(f"give one window selection, not {' and '.join(given)}")
    f = haar_spillover.load_signal(args.signal)
    params: dict = {"signal": args.signal, "n": f.size, "p": args.p}
    tolerances = {"tail_tol": args.tail_tol}
    if args.sweep:
        rows = haar_spillover.sweep_windows(f, args.p, args.tail_tol)
        ok = bool(rows.columns["satisfied"].all())
        params["sweep"] = True
        results = {"windows": len(rows), "all_satisfied": ok}
        return params, tolerances, results, rows, EXIT_OK if ok else EXIT_VIOLATION
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
    model = haar_spillover.HaarSpilloverModel(f, pos, neg, args.p)
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
    return params, tolerances, results, None, EXIT_OK if report.satisfied else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# Parser.

class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and the class of its subparsers, that reads an
    argument such as -1e-300 as a negative number: before Python 3.13,
    argparse takes only -1 and -1.5 for numbers, and any other argument
    beginning with - for an option name."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p = dist_sub.add_parser("table", parents=[common, rates])
    p.add_argument("--tol", type=float, default=1e-12, help="tail mass outside the window")
    p = dist_sub.add_parser("sample", parents=[common, rates])
    p.add_argument("--n", type=int, required=True, help="number of draws")

    stein_cmd = top.add_parser("stein", help="Stein solutions, factors, bounds")
    stein_sub = stein_cmd.add_subparsers(dest="subcommand", required=True)
    p = stein_sub.add_parser("bounds", parents=[common, rates])
    p.add_argument("--quad-tol", type=float, default=QUAD_TOL_DEFAULT)
    p.add_argument("--printed-max-form", action="store_true",
                   help="also evaluate the integral bound with max in place of min")
    p = stein_sub.add_parser("solve", parents=[common, rates])
    p.add_argument("--set", required=True, help="k>=a, k<=a, or {a,b,c}")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--y", type=int, required=True)
    p.add_argument("--quad-tol", type=float, default=QUAD_TOL_DEFAULT)
    p = stein_sub.add_parser("factors", parents=[common, rates])
    p.add_argument("--order", type=int, choices=(1, 2), required=True)
    p.add_argument("--coords", help="restrict to one coordinate tuple, e.g. 1,2")
    p.add_argument("--grid", type=int, help="state grid maximum (default rate-driven)")
    p.add_argument("--quad-tol", type=float, default=QUAD_TOL_DEFAULT)
    p = stein_sub.add_parser("conjecture", parents=[common, rates])
    p.add_argument("--lo", type=int, help="window lower end")
    p.add_argument("--hi", type=int, help="window upper end")

    verify = top.add_parser("verify", help="application theorem verification")
    verify_sub = verify.add_subparsers(dest="subcommand", required=True)
    p = verify_sub.add_parser("graph", parents=[common])
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--model", help="JSON model file with p, r, s arrays")
    src.add_argument("--homogeneous", nargs=4, metavar=("N", "P", "R", "S"))
    p.add_argument("--tail-tol", type=float, default=1e-10)
    p = verify_sub.add_parser("haar", parents=[common])
    p.add_argument("--signal", required=True, help="newline-separated intensities")
    p.add_argument("--scale", type=int)
    p.add_argument("--loc", type=int)
    p.add_argument("--pos", help="explicit positive-window indices, e.g. 0,1")
    p.add_argument("--neg", help="explicit negative-window indices, e.g. 2,3")
    p.add_argument("--p", type=float, required=True, help="spillover probability")
    p.add_argument("--sweep", action="store_true", help="verify every dyadic window")
    p.add_argument("--tail-tol", type=float, default=1e-10)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built on first use: parsing leaves it as it
    was, and building it takes milliseconds a call would otherwise repeat."""
    return build_parser()


def _run(args) -> tuple[RunConfig, dict, object, int]:
    """Run the command's handler, _cmd_<group>_<subcommand> as bound now (not
    when _parser was cached), and build the record's header around the
    (params, tolerances, results, rows, exit code) it returns: the command
    the parser read, the seed and the output format."""
    handler = globals()[f"_cmd_{args.group}_{args.subcommand}"]
    params, tolerances, results, rows, code = handler(args)
    config = RunConfig(f"{args.group} {args.subcommand}", params, args.seed, tolerances, args.format)
    return config, results, rows, code


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        config, results, rows, code = _run(args)
    except (ValueError, OSError, QuadratureError, ResourceLimitError,
            json.JSONDecodeError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # A defect, not a verdict: exit 1 would read as "bound violated".
        logging.getLogger("skellam_stein").debug("internal error", exc_info=True)
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    try:
        render(config, results, rows, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has closed the pipe (`... | head`): stop writing, and
        # point stdout at devnull so the flush at interpreter exit succeeds.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
