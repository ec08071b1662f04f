"""Stein machinery for the Poisson-difference law.

The characterizing operator acts on functions of a bivariate state:

    (A h)(x, y) = l1 [h(x+1,y) - h(x,y)] + x [h(x-1,y) - h(x,y)]
                + l2 [h(x,y+1) - h(x,y)] + y [h(x,y-1) - h(x,y)]

Its stationary law is a pair of independent Poissons, and the equation
A h_f = f(x - y) - E f(difference) has the integral solution

    h_f(x, y) = -int_0^inf [ E f(W_{x,y}(t)) - E f ] dt,

where W_{x,y}(t) is the difference coordinate of the immigration-death
process started from (x, y): survivors of the initial state thin as
binomials while immigrants arrive as Poissons at complementary rates.

Everything here flows through one engine.  With u = exp(-t), the law of
W_{x,y}(t) on an integer window is S_u (*) Bin(x, u) (*) (-Bin(y, u)),
with S_u the Poisson-difference window at rates l (1 - u).  Incrementing
a state coordinate convolves in one Bernoulli(u) survival, so first and
second differences of h_f in the state become integrals of first and
second k-differences of S_u.  Each difference defines a signed kernel g:

    diff h_f (x, y) = -sum_k f(k) g(k)   for every indicator f,

and the exact sup over indicator test functions at a state is
max(sum g+, sum g-).  Orders 0/1/2 change only the k-differencing of the
base window and the u-weight u^(order-1); order 0, the solution itself,
also subtracts the constant E f, which every difference drops.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

from . import kernels
from .dists import IntegerDist, ResourceLimitError, convolve, negate
from .skellam import SkellamParams, pmf_array, to_dist
from .special import (
    QuadratureError,
    adaptive_gauss_kronrod,
    bessel_i,
    binomial_thin_dist,
    pointwise_rule,
    poisson_dist,
)

__all__ = [
    "QUAD_TOL_DEFAULT",
    "SWEEP_TENSOR_CAP",
    "BivariateState",
    "TestSet",
    "DifferenceKernel",
    "SteinFactorResult",
    "set_expectation",
    "skellam_expectation",
    "generator_apply",
    "intermediate_law",
    "stein_solution",
    "stein_solution_grid",
    "difference_kernel",
    "exact_stein_factor",
    "default_state_grid",
    "bound_first_diff",
    "bound_second_diff",
    "bound_first_diff_integral",
    "bound_relaxed",
    "prior_bound_comparison",
    "skellam_second_diff_sum",
    "QuadratureError",
]

QUAD_TOL_DEFAULT = 1e-8
# Floats in one accumulator of a sweep (states x window).  A rule holds two,
# and each interval pending on the integrator's heap holds one more.
SWEEP_TENSOR_CAP = 10**7

_ROOT_2 = math.sqrt(2.0)


@dataclass(frozen=True)
class BivariateState:
    x: int
    y: int

    def __post_init__(self):
        if self.x < 0 or self.y < 0:
            raise ValueError("state coordinates must be non-negative")


def _state_xy(state) -> tuple[int, int]:
    if isinstance(state, BivariateState):
        return state.x, state.y
    x, y = state
    x, y = int(x), int(y)
    if x < 0 or y < 0:
        raise ValueError("state coordinates must be non-negative")
    return x, y


# ---------------------------------------------------------------------------
# Test functions: indicators of subsets of the integers.

_FINITE_RE = re.compile(r"^\{\s*(-?\d+(?:\s*,\s*-?\d+)*)\s*\}$")
_HALF_RE = re.compile(r"^k\s*(>=|<=)\s*(-?\d+)$")


@dataclass(frozen=True)
class TestSet:
    """Indicator test function: a half-line or an explicit finite set."""

    __test__ = False  # keep pytest from collecting this as a test case

    kind: str  # "geq" | "leq" | "finite"
    threshold: int | None = None
    members: frozenset | None = None

    def __post_init__(self):
        if self.kind in ("geq", "leq"):
            if self.threshold is None or self.members is not None:
                raise ValueError("half-line sets carry a threshold only")
        elif self.kind == "finite":
            if self.members is None or self.threshold is not None:
                raise ValueError("finite sets carry members only")
        else:
            raise ValueError(f"unknown test-set kind {self.kind!r}")

    @classmethod
    def geq(cls, a: int) -> "TestSet":
        return cls("geq", threshold=int(a))

    @classmethod
    def leq(cls, a: int) -> "TestSet":
        return cls("leq", threshold=int(a))

    @classmethod
    def finite(cls, members: Iterable[int]) -> "TestSet":
        return cls("finite", members=frozenset(int(m) for m in members))

    @classmethod
    def parse(cls, text: str) -> "TestSet":
        """Mini-grammar: `k>=a`, `k<=a`, or `{a,b,c}`."""
        text = text.strip()
        m = _HALF_RE.match(text)
        if m:
            a = int(m.group(2))
            return cls.geq(a) if m.group(1) == ">=" else cls.leq(a)
        m = _FINITE_RE.match(text)
        if m:
            return cls.finite(int(tok) for tok in m.group(1).split(","))
        raise ValueError(f"cannot parse set spec {text!r}")

    def contains(self, k: int) -> bool:
        if self.kind == "geq":
            return k >= self.threshold
        if self.kind == "leq":
            return k <= self.threshold
        return k in self.members

    def indicator(self, k0: int, length: int) -> np.ndarray:
        """0/1 vector of membership over the window k0 .. k0+length-1."""
        ks = np.arange(k0, k0 + length)
        if self.kind == "geq":
            return (ks >= self.threshold).astype(np.float64)
        if self.kind == "leq":
            return (ks <= self.threshold).astype(np.float64)
        out = np.zeros(length)
        for m in self.members:
            if k0 <= m < k0 + length:
                out[m - k0] = 1.0
        return out

    def describe(self) -> str:
        if self.kind == "geq":
            return f"k>={self.threshold}"
        if self.kind == "leq":
            return f"k<={self.threshold}"
        return "{" + ",".join(str(m) for m in sorted(self.members)) + "}"


def set_expectation(dist: IntegerDist, f: TestSet) -> float:
    """Probability of the set under the windowed law."""
    ind = f.indicator(dist.min_support, dist.probabilities.size)
    return float(ind @ dist.probabilities)


def skellam_expectation(
    params: SkellamParams, f: TestSet, tail_tol: float = 1e-12
) -> float:
    return set_expectation(to_dist(params, tail_tol), f)


# ---------------------------------------------------------------------------
# Generator and intermediate laws.

def generator_apply(
    h: Callable[[int, int], float], params: SkellamParams, state
) -> float:
    """Apply the characterizing operator to h at the given state."""
    x, y = _state_xy(state)
    val = params.lambda1 * (h(x + 1, y) - h(x, y))
    val += params.lambda2 * (h(x, y + 1) - h(x, y))
    if x:
        val += x * (h(x - 1, y) - h(x, y))
    if y:
        val += y * (h(x, y - 1) - h(x, y))
    return float(val)


def intermediate_law(
    state, params: SkellamParams, t: float, tail_tol: float = 1e-10
) -> IntegerDist:
    """Exact law of the difference coordinate at time t from a state."""
    if not t > 0:
        raise ValueError("t must be positive")
    x, y = _state_xy(state)
    u = math.exp(-t)
    grown = -math.expm1(-t)  # 1 - exp(-t), accurate for small t
    d = binomial_thin_dist(x, u)
    d = convolve(d, negate(binomial_thin_dist(y, u)))
    d = convolve(d, poisson_dist(params.lambda1 * grown, tail_tol / 2))
    d = convolve(d, negate(poisson_dist(params.lambda2 * grown, tail_tol / 2)))
    return d


# ---------------------------------------------------------------------------
# The sweep engine.

def _difference_base(k0: int, s: np.ndarray, order: int, coords: tuple[int, ...]):
    """k-difference of the base window encoding a state increment.

    Adding 1 to coordinate 1 adds a Bernoulli(u) survival to the
    difference; coordinate 2 subtracts one.  State differences of h_f
    therefore become k-differences of the base, up to sign and offset.
    """
    if order == 0:
        return k0, s
    if order == 1:
        d = np.diff(s, prepend=0.0, append=0.0)  # d[m] = s[m] - s[m-1]
        if coords == (1,):
            return k0, -d
        return k0 - 1, d  # coords == (2,)
    c2 = np.convolve(s, np.array([1.0, -2.0, 1.0]))
    if coords == (1, 1):
        return k0, c2
    if coords == (2, 2):
        return k0 - 2, c2
    return k0 - 1, -c2  # mixed (1,2)


def _normalize_coords(order: int, coords) -> tuple[int, ...]:
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    if isinstance(coords, int):
        coords = (coords,)
    coords = tuple(int(c) for c in coords)
    if any(c not in (1, 2) for c in coords):
        raise ValueError("coordinates must be 1 or 2")
    if len(coords) != order:
        raise ValueError(f"order {order} takes exactly {order} coordinate(s)")
    if coords == (2, 1):
        coords = (1, 2)  # mixed differences commute
    return coords


def _max_state_l1(arr: np.ndarray) -> float:
    """Largest L1 norm over the state axes of a (..., K) array; overwrites it."""
    return float(np.abs(arr, out=arr).sum(axis=-1).max())


@dataclass(frozen=True)
class _SweepResult:
    lo: int                # first k of the global window
    tensor: np.ndarray     # (..., K) kernels; leading axes are state axes
    slack: float           # L1 error bound for any single state's kernel


def _sweep(
    params: SkellamParams,
    order: int,
    coords: tuple[int, ...],
    nx: int,
    ny: int,
    quad_tol: float,
    single_state: tuple[int, int] | None = None,
) -> _SweepResult:
    """Integrate per-state kernels over u on one fixed global window.

    With single_state=(x, y) the tensor is a bare (K,) vector for that
    state; otherwise it covers the product grid 0..nx-1 times 0..ny-1 as an
    (nx, ny, K) view of the (ny, nx, K) integral.

    Each Gauss-Kronrod rule is one integrand call.  On the grid the rule's
    15 node bases are stacked in one frame over the part of the window the
    rule reaches, and kernels.sweep_accumulate adds the rule straight into
    its Kronrod and defect accumulators, so no per-node state tensor is
    built; at order 0 the stationary row is subtracted once per rule,
    weighted by the summed node coefficients.  A single state convolves
    each node's base with its two binomials and sums node by node
    (special.pointwise_rule).

    SWEEP_TENSOR_CAP bounds one accumulator (states x window floats) and is
    checked before any node is evaluated (ResourceLimitError).  It is not
    the sweep's whole footprint: a rule holds two accumulators, and every
    interval pending on the integrator's heap holds one more.

    The reported slack bounds each state's kernel L1 error: quadrature
    defect plus integrated window truncation (the per-node neglected mass
    is below quad_tol/100; differencing amplifies it by at most 4, and
    the u-weights integrate to at most the max-depth log factor ~45,
    covered by the constant 50 below).
    """
    if not quad_tol > 0:
        raise ValueError("quad_tol must be positive")
    node_tol = quad_tol / 100.0
    pois_tol = node_tol / 8.0
    l1, l2 = params.lambda1, params.lambda2

    pa_full = poisson_dist(l1, pois_tol)
    pb_full = poisson_dist(l2, pois_tol)
    margin = 8
    lo = -pb_full.max_support - 2 - (ny - 1) - margin
    hi = pa_full.max_support + 2 + (nx - 1) + margin
    size = hi - lo + 1
    cells = size if single_state is not None else nx * ny * size
    if cells > SWEEP_TENSOR_CAP:
        raise ResourceLimitError(
            f"sweep tensor of {nx}x{ny} states by {size} points exceeds cap "
            f"{SWEEP_TENSOR_CAP} floats"
        )

    if order == 0:
        pi = to_dist(params, pois_tol)
        pi_row = np.zeros(size)
        pi_row[pi.min_support - lo : pi.max_support - lo + 1] = pi.probabilities
    else:
        pi_row = None

    def node_base(u) -> tuple[int, np.ndarray]:
        """(window offset, signed base) of the node at u."""
        grown = 1.0 - u
        pa = poisson_dist(l1 * grown, pois_tol)
        pb = poisson_dist(l2 * grown, pois_tol)
        base = np.convolve(pa.probabilities, pb.probabilities[::-1])
        k0 = pa.min_support - pb.max_support
        tk0, t_arr = _difference_base(k0, base, order, coords)
        return tk0 - lo, t_arr

    if single_state is not None:
        sx, sy = single_state

        def state_node(u) -> np.ndarray:
            off0, v = node_base(u)
            weight = u ** (order - 1)
            if sx:
                v = np.convolve(v, binomial_thin_dist(sx, u).probabilities)
            if sy:
                v = np.convolve(v, binomial_thin_dist(sy, u).probabilities[::-1])
            out = np.zeros(size)
            start = off0 - sy
            if start < 0 or start + v.size > size:
                raise RuntimeError("node window escaped the global window")
            out[start : start + v.size] = weight * v
            if pi_row is not None:
                out -= weight * pi_row
            return out

        rule_fn = pointwise_rule(state_node, _max_state_l1)
    else:

        def rule_fn(points, wk, wd):
            offsets, bases = zip(*(node_base(u) for u in points))
            # The window indices any node reaches at any state of the grid.
            start = min(offsets) - (ny - 1)
            stop = max(o + b.size for o, b in zip(offsets, bases)) + nx - 1
            if start < 0 or stop > size:
                raise RuntimeError("node window escaped the global window")
            weights = points ** (order - 1)
            coef = np.stack((wk * weights, wd * weights))
            acc_k = np.zeros((ny, nx, size))
            acc_d = np.zeros((ny, nx, size))
            frame = kernels.stack_bases(
                bases, [o - start for o in offsets], nx, stop - start
            )
            kernels.sweep_accumulate(
                acc_k[:, :, start:stop], frame, points, coef, acc_d[:, :, start:stop]
            )
            if pi_row is not None:
                acc_k -= coef[0].sum() * pi_row
                acc_d -= coef[1].sum() * pi_row
            return acc_k, _max_state_l1(acc_d)

    tensor, quad_err = adaptive_gauss_kronrod(rule_fn, 0.0, 1.0, quad_tol)
    if single_state is None:
        tensor = tensor.transpose(1, 0, 2)
    slack = quad_err + 50.0 * node_tol
    return _SweepResult(lo, tensor, slack)


# ---------------------------------------------------------------------------
# Solutions of the Stein equation.

@lru_cache(maxsize=32)
def _solution_kernel_grid(
    params: SkellamParams, nx: int, ny: int, quad_tol: float
) -> _SweepResult:
    res = _sweep(params, 0, (), nx, ny, quad_tol)
    res.tensor.setflags(write=False)
    return res


def stein_solution(params: SkellamParams, f: TestSet, state, quad_tol: float = QUAD_TOL_DEFAULT) -> float:
    """Value of the integral solution h_f at one state; |error| <= quad_tol."""
    x, y = _state_xy(state)
    res = _sweep(params, 0, (), x + 1, y + 1, quad_tol, single_state=(x, y))
    ind = f.indicator(res.lo, res.tensor.size)
    return float(-(ind @ res.tensor))


def stein_solution_grid(
    params: SkellamParams,
    f: TestSet,
    xmax: int,
    ymax: int,
    quad_tol: float = QUAD_TOL_DEFAULT,
) -> np.ndarray:
    """h_f on the grid 0..xmax times 0..ymax as an array; shares one sweep.

    The underlying state kernels are cached per (params, grid, quad_tol),
    so evaluating many test functions on one grid costs one integration.
    """
    res = _solution_kernel_grid(params, xmax + 1, ymax + 1, quad_tol)
    ind = f.indicator(res.lo, res.tensor.shape[-1])
    return -(res.tensor @ ind)


# ---------------------------------------------------------------------------
# Difference kernels and exact factors.

@dataclass(frozen=True)
class DifferenceKernel:
    """Signed kernel g with diff h_f = -sum_k f(k) g(k) at one state."""

    min_support: int
    kernel: np.ndarray
    order: int
    coords: tuple[int, ...]
    quad_tol: float
    quad_error: float

    @property
    def max_support(self) -> int:
        return self.min_support + self.kernel.size - 1

    def total(self) -> float:
        return float(self.kernel.sum())

    def apply(self, f: TestSet) -> float:
        """The difference of h_f this kernel encodes."""
        ind = f.indicator(self.min_support, self.kernel.size)
        return float(-(ind @ self.kernel))

    def positive_mass(self) -> float:
        return float(self.kernel[self.kernel > 0].sum())

    def negative_mass(self) -> float:
        return float(-self.kernel[self.kernel < 0].sum())

    def sup_over_indicators(self) -> float:
        """Exact sup over indicator test functions via sign decomposition."""
        return max(self.positive_mass(), self.negative_mass())


def difference_kernel(
    params: SkellamParams,
    order: int,
    coords,
    state,
    quad_tol: float = QUAD_TOL_DEFAULT,
) -> DifferenceKernel:
    coords = _normalize_coords(order, coords)
    x, y = _state_xy(state)
    res = _sweep(params, order, coords, x + 1, y + 1, quad_tol, single_state=(x, y))
    return DifferenceKernel(
        min_support=res.lo,
        kernel=res.tensor,
        order=order,
        coords=coords,
        quad_tol=quad_tol,
        quad_error=res.slack,
    )


def default_state_grid(params: SkellamParams) -> int:
    """Outer-sup grid: the coupling damps state dependence exponentially."""
    lam = params.total
    return max(10, int(math.ceil(lam + 6.0 * math.sqrt(lam))))


@dataclass(frozen=True)
class SteinFactorResult:
    """Exact sup over states and indicator test functions, annotated.

    rim_max is the largest per-state sup on the grid's outer rim (x or y
    equal to grid_max); saturated says the argmax lies off that rim, so
    the grid did not cut the sup short.
    """

    value: float
    quad_error: float
    argmax_state: tuple[int, int]
    grid_max: int
    order: int
    coords: tuple[int, ...]
    quad_tol: float
    rim_max: float
    saturated: bool

    def __float__(self) -> float:
        return self.value


@lru_cache(maxsize=256)
def _exact_stein_factor_cached(
    params: SkellamParams,
    order: int,
    grid_max: int,
    quad_tol: float,
) -> SteinFactorResult:
    n = grid_max + 1
    coords = (1,) * order
    res = _sweep(params, order, coords, n, n, quad_tol)
    pos = np.where(res.tensor > 0, res.tensor, 0.0).sum(axis=2)
    neg = np.where(res.tensor < 0, -res.tensor, 0.0).sum(axis=2)
    per_state = np.maximum(pos, neg)
    idx = np.unravel_index(int(per_state.argmax()), per_state.shape)
    rim_max = max(float(per_state[-1, :].max()), float(per_state[:, -1].max()))
    return SteinFactorResult(
        value=float(per_state[idx]),
        quad_error=res.slack,
        argmax_state=(int(idx[0]), int(idx[1])),
        grid_max=grid_max,
        order=order,
        coords=coords,
        quad_tol=quad_tol,
        rim_max=rim_max,
        saturated=bool(max(idx) < grid_max),
    )


def exact_stein_factor(
    params: SkellamParams,
    order: int,
    coords,
    state_grid_max: int | None = None,
    quad_tol: float = QUAD_TOL_DEFAULT,
) -> SteinFactorResult:
    """Max over the state grid of the per-state exact indicator sup.

    The value does not depend on the coordinate tuple.  At every state the
    kernels of the different tuples of one order share the state
    convolution and differ only in _difference_base, by a shift in k and a
    sign, and max(sum g+, sum g-) ignores both (a sweep per tuple would
    agree up to the rounding of its sums).  So one sweep per order,
    run with coordinates (1,)*order and cached, serves every tuple; the
    result carries the tuple asked for.
    """
    coords = _normalize_coords(order, coords)
    if state_grid_max is None:
        state_grid_max = default_state_grid(params)
    if state_grid_max < 0:
        raise ValueError("state_grid_max must be >= 0")
    res = _exact_stein_factor_cached(
        params, order, int(state_grid_max), float(quad_tol)
    )
    return replace(res, coords=coords)


# ---------------------------------------------------------------------------
# Closed-form bounds.

def _log_plus(z: float) -> float:
    return math.log(z) if z > 1.0 else 0.0


def bound_first_diff(params: SkellamParams) -> float:
    """min{1, sqrt(2 / (e max(l1, l2)))}."""
    m = max(params.lambda1, params.lambda2)
    if m == 0.0:
        return 1.0
    return min(1.0, math.sqrt(2.0 / (math.e * m)))


def bound_second_diff(params: SkellamParams) -> float:
    """min{1, 1/(2 max^2) + sqrt(2) log+(sqrt(2) max) / max}."""
    m = max(params.lambda1, params.lambda2)
    if m == 0.0:
        return 1.0
    return min(1.0, 1.0 / (2.0 * m * m) + _ROOT_2 * _log_plus(_ROOT_2 * m) / m)


def bound_relaxed(params: SkellamParams, order: int) -> float:
    """Coarser totals-only forms: order 1 uses sqrt(4/(e L)), order 2 uses
    2/L^2 + 2 sqrt(2) log+(sqrt(2) L)/L, both clamped at 1, L = l1 + l2."""
    lam = params.total
    if order == 1:
        if lam == 0.0:
            return 1.0
        return min(1.0, math.sqrt(4.0 / (math.e * lam)))
    if order == 2:
        if lam == 0.0:
            return 1.0
        return min(
            1.0, 2.0 / (lam * lam) + 2.0 * _ROOT_2 * _log_plus(_ROOT_2 * lam) / lam
        )
    raise ValueError("order must be 1 or 2")


@dataclass(frozen=True)
class IntegralBound:
    """First-difference integral bound plus its large-rate asymptote."""

    value: float
    asymptote: float


def bound_first_diff_integral(
    params: SkellamParams,
    quad_tol: float = QUAD_TOL_DEFAULT,
    printed_max_form: bool = False,
) -> IntegralBound:
    """int_0^inf e^{-t} min{1, e^{-z} I_0(z)} dt with z = L (1 - e^{-t}).

    The clamp is min: the scaled Bessel value never exceeds 1, and min
    reproduces the stated large-L asymptote sqrt(2/(pi L)), whereas max
    collapses the integral to 1 identically.  printed_max_form=True
    computes that max variant for reference.
    """
    lam = params.total
    clamp = max if printed_max_form else min

    def g(u: float) -> float:
        return clamp(1.0, bessel_i(0, lam * (1.0 - u), scaled=True))

    value, _ = adaptive_gauss_kronrod(pointwise_rule(g), 0.0, 1.0, quad_tol)
    asym = math.sqrt(2.0 / (math.pi * lam)) if lam > 0 else math.inf
    return IntegralBound(value=float(value), asymptote=asym)


def prior_bound_comparison(lam: float) -> tuple[float, float]:
    """(second-difference bound at (lam, lam), earlier literature's 80/lam)."""
    if not lam > 0:
        raise ValueError("lam must be positive")
    here = bound_second_diff(SkellamParams(lam, lam))
    return here, 80.0 / lam


# ---------------------------------------------------------------------------
# Exploratory probe: summed absolute second differences of the pmf.

@dataclass(frozen=True)
class SecondDiffSumReport:
    """Report-only probe of the conjectured 1/(l1+l2) second-difference rate."""

    value: float
    reference: float   # 1 / (l1 + l2)
    ratio: float       # value * (l1 + l2)
    window_lo: int
    window_hi: int
    tail_bound: float  # contribution the window may have missed

    def conjecture_holds_numerically(self) -> bool:
        """Observation only, never asserted by the library."""
        return self.value - self.tail_bound <= self.reference


def skellam_second_diff_sum(
    params: SkellamParams, window: tuple[int, int] | None = None
) -> SecondDiffSumReport:
    """sum_k |p(k) - 2 p(k-1) + p(k-2)| over the window, with tail note."""
    if window is None:
        d = to_dist(params, 1e-12)
        lo_k, hi_k = d.min_support, d.max_support
        probs = d.probabilities
        tail = d.tail_mass
    else:
        lo_k, hi_k = int(window[0]), int(window[1])
        if hi_k < lo_k:
            raise ValueError("window upper end below lower end")
        probs = pmf_array(params, np.arange(lo_k, hi_k + 1))
        tail = max(0.0, 1.0 - float(probs.sum()))
    second = np.convolve(probs, np.array([1.0, -2.0, 1.0]))
    value = float(np.abs(second).sum())
    lam = params.total
    reference = 1.0 / lam if lam > 0 else math.inf
    ratio = value * lam if lam > 0 else math.nan
    return SecondDiffSumReport(
        value=value,
        reference=reference,
        ratio=ratio,
        window_lo=lo_k,
        window_hi=hi_k,
        tail_bound=4.0 * tail,
    )
