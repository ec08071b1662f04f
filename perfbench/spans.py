"""Span tracing of the skellam_stein layers, installed from outside the package.

A Tracer replaces each traced function by a wrapper that records one span
(name, start, end, parent span, op id) per call.  The package binds names with
``from .x import y``, so a wrapper must replace every binding of a function,
not only the one in its defining module: installation walks every loaded
``skellam_stein`` module and swaps each global that *is* the original function
object (``cli.to_dist``, ``noisy_graph.convolve``, ``stein.adaptive_gauss_kronrod``,
the package re-exports, ...).  ``uninstall`` puts the originals back, so the
timed run executes the package untouched.

Spans live in flat arrays (about 28 bytes each) and are written out by
``save`` when the run ends; ``layer_metrics`` reduces them to per-op totals.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np

PACKAGE = "skellam_stein"

# (defining module, attribute, span name).  The first component of a span
# name is the module its self time is charged to.
TRACED = [
    ("cli", "main", "cli.main"),
    ("cli", "render", "cli.render"),
    ("stein", "exact_stein_factor", "stein.exact_stein_factor"),
    ("special", "adaptive_gauss_kronrod", "special.quad"),
    ("special", "poisson_dist", "special.poisson_dist"),
    ("special", "log_scaled_iv", "special.log_scaled_iv"),
    ("skellam", "to_dist", "skellam.to_dist"),
    ("skellam", "pmf", "skellam.pmf"),
    ("dists", "convolve", "dists.convolve"),
    ("dists", "tv_distance", "dists.tv_distance"),
    ("kernels", "convolve", "kernels.convolve"),
    ("kernels", "sweep_accumulate", "kernels.sweep_accumulate"),
    ("noisy_graph", "load_model", "noisy_graph.load_model"),
    ("noisy_graph", "edge_difference_dist", "noisy_graph.edge_difference_dist"),
    ("noisy_graph", "verify", "noisy_graph.verify"),
    ("haar_spillover", "load_signal", "haar_spillover.load_signal"),
    ("haar_spillover", "sweep_windows", "haar_spillover.sweep_windows"),
    ("haar_spillover", "verify", "haar_spillover.verify"),
    ("haar_spillover", "haar_windows", "haar_spillover.haar_windows"),
    ("verification", "make_report", "verification.make_report"),
]
# Every IntegerDist construction runs __post_init__: one span per creation.
INTEGER_DIST_SPAN = "dists.IntegerDist"
# The integrand handed to the integrator from module m is traced as "m.node".
NODE_SUFFIX = ".node"

MODULES = [
    "cli", "stein", "kernels", "special", "skellam", "dists",
    "noisy_graph", "haar_spillover", "verification",
]


def sweep_accumulate_work(out, base) -> tuple[int, int]:
    """(multiply-adds, bytes written) of one sweep_accumulate call.

    Computed from argument shapes, following the reference kernel: per x one
    convolution of the base with Bin(x), per (x, y) one convolution with the
    reversed Bin(y) and one scaled accumulation into the output row.
    """
    nx, ny, _ = out.shape
    b = int(np.asarray(base).shape[0])
    sx = nx * (nx - 1) // 2          # sum of x over 0..nx-1
    sy = ny * (ny - 1) // 2
    conv_x = b * (sx + nx - 1)                     # x >= 1: B (x + 1)
    conv_y = (nx * b + sx) * (sy + ny - 1)         # y >= 1: (B + x)(y + 1)
    accumulate = nx * ny * b + ny * sx + nx * sy   # (B + x + y) per state
    return conv_x + conv_y + accumulate, 8 * accumulate


class Tracer:
    """Records spans of the traced layers while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.op_id = -1
        self.counters: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, fn, name: str, after=None):
        nid = self._intern(name)
        name_id, parent, op = self.name_id, self.parent, self.op
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            op.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _wrapper(self, fn, name: str, binding: str):
        """The wrapper of fn for its binding in module ``binding``."""
        if name == "special.quad":
            node_name = binding + NODE_SUFFIX
            self._intern(node_name)
            quad = self._span(fn, name)

            def integrate(integrand, *args, **kwargs):
                if binding == "stein":
                    self.counters["stein.sweeps"] += 1
                return quad(self._span(integrand, node_name), *args, **kwargs)

            return integrate
        if name == "kernels.sweep_accumulate":
            def count(args, _result):
                macs, written = sweep_accumulate_work(args[0], args[1])
                self.counters["kernels.sweep_accumulate.macs"] += macs
                self.counters["kernels.sweep_accumulate.bytes_out"] += written
            return self._span(fn, name, count)
        if name == "skellam.to_dist":
            def count(_args, result):
                self.counters["skellam.to_dist.points"] += result.probabilities.size
            return self._span(fn, name, count)
        return self._span(fn, name)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = {
            name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        for module, attr, span_name in TRACED:
            original = getattr(modules[f"{PACKAGE}.{module}"], attr)
            for mod_name, mod in modules.items():
                binding = mod_name[len(PACKAGE) + 1:] or PACKAGE
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, self._wrapper(original, span_name, binding))
        dist_cls = modules[f"{PACKAGE}.dists"].IntegerDist
        original = dist_cls.__post_init__
        self._restore.append((dist_cls, "__post_init__", original))
        dist_cls.__post_init__ = self._span(original, INTEGER_DIST_SPAN)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    # -- reduction ---------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        """Write every span recorded so far to an .npz file."""
        np.savez(path, **self.arrays())

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-op totals: calls, busy and self time per span, self time per
        module, and the counters gathered at the span boundaries."""
        a = self.arrays()
        k = len(self.names)
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested], minlength=dur.size)
        own = dur - child
        calls = np.bincount(a["name_id"], minlength=k)
        busy = np.bincount(a["name_id"], weights=dur, minlength=k)
        self_s = np.bincount(a["name_id"], weights=own, minlength=k)
        out: dict[str, float] = {}
        module_self = dict.fromkeys(MODULES, 0.0)
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[i] / ops
            out[f"{name}.busy_s"] = busy[i] / ops
            out[f"{name}.self_s"] = self_s[i] / ops
            module = name.split(".")[0]
            if module in module_self:  # not the package re-export's integrand
                module_self[module] += self_s[i] / ops
        for module, value in module_self.items():
            out[f"{module}.self_s"] = value
        for name, value in self.counters.items():
            out[name] = value / ops
        for name in ("stein.sweeps", "kernels.sweep_accumulate.macs",
                     "kernels.sweep_accumulate.bytes_out", "skellam.to_dist.points"):
            out.setdefault(name, 0.0)
        out["dists.IntegerDist.created"] = out[f"{INTEGER_DIST_SPAN}.calls"]
        out["special.quad.nodes"] = sum(
            out[f"{name}.calls"] for name in self.names if name.endswith(NODE_SUFFIX)
        )
        points = out["skellam.to_dist.points"]
        out["skellam.pmf_calls_per_point"] = (
            out["skellam.pmf.calls"] / points if points else 0.0
        )
        return {key: float(value) for key, value in out.items()}
