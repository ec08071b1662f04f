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
from numpy.lib.stride_tricks import sliding_window_view

from . import kernels
from .dists import IntegerDist, ResourceLimitError, convolve, negate
from .skellam import SkellamParams, pmf_window, to_dist
from .special import (
    MAX_BESSEL_X,
    QuadratureError,
    adaptive_gauss_kronrod,
    bernstein_box,
    bessel_i,
    binomial_thin_dist,
    kronrod_bound,
    kronrod_rule,
    poisson_dist,
    poisson_rows,
    window_ends,
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
# Floats in a sweep's state tensor (states x window).  A sweep's live
# footprint is that one tensor, into which every rule adds, and a frame of
# 15 x (states along x) x window floats.
SWEEP_TENSOR_CAP = 10**7
_RULE_SHARE = 0.99  # of quad_tol, for the rules' bounds; the rest covers rounding
_EPS = 2.0**-53  # unit roundoff

_ROOT_2 = math.sqrt(2.0)
_LOG_2 = math.log(2.0)


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
    """k-difference of the base windows (along the last axis) encoding a
    state increment.

    Adding 1 to coordinate 1 adds a Bernoulli(u) survival to the
    difference; coordinate 2 subtracts one.  State differences of h_f
    therefore become k-differences of the base, up to sign and offset.
    """
    if order == 0:
        return k0, s
    # d[m] = s[m] - s[m-1] at order 1, s[m] - 2 s[m-1] + s[m-2] at order 2
    d = np.diff(np.pad(s, [(0, 0)] * (s.ndim - 1) + [(order, order)]), n=order)
    if order == 1:
        if coords == (1,):
            return k0, -d
        return k0 - 1, d  # coords == (2,)
    if coords == (1, 1):
        return k0, d
    if coords == (2, 2):
        return k0 - 2, d
    return k0 - 1, -d  # mixed (1,2)


def _skellam_rows(pa: np.ndarray, pb: np.ndarray) -> np.ndarray:
    """Row i is the law of A - B for A, B with pmf rows pa[i] and pb[i]: for
    rows on lo_a..hi_a and lo_b..hi_b it covers lo_a - hi_b .. hi_a - lo_b.
    Entry c of row i is pa[i] reversed dotted with a window of pb[i]
    reversed and zero-padded, so one batched product forms every row, each
    entry a sum of non-negative terms."""
    m, na = pa.shape
    nb = pb.shape[1]
    padded = np.zeros((m, nb + 2 * (na - 1)))
    padded[:, na - 1 : na - 1 + nb] = pb[:, ::-1]
    windows = sliding_window_view(padded, na + nb - 1, axis=1)  # [i, j, c] = padded[i, j + c]
    return np.matmul(pa[:, None, ::-1], windows)[:, 0]


def _base_rows(params: SkellamParams, grown: np.ndarray, pois_tol: float, order: int, coords):
    """(k0, rows): row i is D^o S_b at b = 1 - grown[i] (_difference_base),
    k0 the first k of every row; S_b is _skellam_rows of one
    special.poisson_rows array per rate, each row leaving out at most
    pois_tol per rate.  Every sweep node base and certificate row is one."""
    a_lo, pa = poisson_rows(params.lambda1 * grown, pois_tol)
    b_lo, pb = poisson_rows(params.lambda2 * grown, pois_tol)
    return _difference_base(a_lo - (b_lo + pb.shape[1] - 1), _skellam_rows(pa, pb), order, coords)


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


@dataclass(frozen=True)
class _SweepResult:
    lo: int                # first k of the global window
    tensor: np.ndarray     # (..., K) kernels; leading axes are state axes
    slack: float           # L1 error bound for any single state's kernel


def _log_norm_bound(lo: float, hi: float, order: int, states: int, rate: float) -> np.ndarray:
    """log of a bound on the sweep integrand's L1 norm over k, at every state
    with x + y <= states, inside each ellipse E_rho of [lo, hi] (0 <= lo).

    At complex u a Poisson window at rate l (1 - u) has L1 norm at most
    exp(l (|1 - u| - Re(1 - u))), Bin(x, u) (|u| + |1 - u|)^x, a k-difference
    2 and the weight |u|^(order - 1); each is convex in u, so it peaks over
    the rectangle around E_rho at a corner.  Order 0 weighs K_u - pi, at most
    2 |K_u|, by 1/u: the smaller is taken of 1/|u| on the rectangle and the
    maximum modulus on the circle |u| = r through the ellipse's far end, where
    |u| + |1 - u| <= 1 + 2r and |1 - u| - Re(1 - u) <= r^2 / 2, or 2r - 2.
    """
    left, right, height = bernstein_box(lo, hi)
    log_u = log_b = excess = -np.inf
    for re in (left, right):
        near, far = np.hypot(re, height), np.hypot(1.0 - re, height)
        log_u = np.maximum(log_u, np.log(near))
        log_b = np.maximum(log_b, np.log(near + far))
        excess = np.maximum(excess, far - (1.0 - re))
    if order:
        return order * _LOG_2 + (order - 1) * log_u + states * log_b + rate * excess
    log_near = np.log(left, out=np.full(left.shape, -np.inf), where=left > 0.0)
    box = _LOG_2 - log_near + states * log_b + rate * excess
    circle = np.where(right <= 2.0, 0.5 * right * right, 2.0 * right - 2.0)
    disk = _LOG_2 - np.log(right) + states * np.log1p(2.0 * right) + rate * circle
    return np.minimum(box, disk)


def _pois_tol(quad_tol: float) -> float:
    """The tail every Poisson window of a sweep or a certificate leaves out."""
    if not 0.0 < quad_tol / 800.0 < 1.0:  # every pmf window's tail_tol lies in (0, 1)
        raise ValueError(f"quad_tol / 800, each Poisson window's tail, must lie in (0, 1): got {quad_tol!r}")
    return quad_tol / 800.0


@lru_cache(maxsize=256)
def _full_rate_tops(params: SkellamParams, pois_tol: float) -> tuple[float, float]:
    """Upper ends, as floats, of the full-rate Poisson windows.  They never
    decrease as the rate grows, so every window at rate l (1 - u) ends at or
    below them; rate 0 is the point 0, and an infinite end is refused by
    _check_cells.  Cached: both refusals, every sweep and the certificate
    of one rate pair and tolerance ask for the same ends."""
    return tuple(
        window_ends(float(int(lam)), lam, 0.0, pois_tol)[1] if lam > 0.0 else 0.0
        for lam in (params.lambda1, params.lambda2)
    )


def _check_cells(cells: float, what: str) -> None:
    if not cells <= SWEEP_TENSOR_CAP:
        raise ResourceLimitError(
            f"{what} is {cells:.0f} floats, exceeds cap {SWEEP_TENSOR_CAP} floats"
        )


def _sweep_window(
    params: SkellamParams, nx: int, ny: int, pois_tol: float, single_state=None
) -> tuple[float, int]:
    """(top_b, size) of the global window of a sweep over the nx x ny grid,
    size an int, refused (ResourceLimitError) if its state tensor, or a
    single state's work, exceeds SWEEP_TENSOR_CAP."""
    top_a, top_b = _full_rate_tops(params, pois_tol)
    size = top_a + top_b + 4.0 + nx + ny - 1.0
    if single_state is None:
        _check_cells(float(nx) * ny * size, f"sweep tensor of {nx}x{ny} states by {size:.0f} points")
    else:
        _check_cells((nx + ny - 1) * size, f"single-state sweep at {single_state} by {size:.0f} points")
    return top_b, int(size)


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

    The partition of [0, 1] is fixed before any node is evaluated, from each
    15-point rule's proven bound (special.kronrod_bound of _log_norm_bound at
    the grid's largest x + y).  Each rule is one integrand call: its node
    bases are _base_rows at the rule's nodes (one array of Poisson rows per
    rate, from the lower window end at the rule's smallest rate to the
    upper end at its largest), and kernels.sweep_accumulate adds them into
    the sweep's one state tensor.  A single state (x, y) keeps the (x+1) x
    (y+1) grid's window and partition and takes the kernel's own x and y
    steps on one row, about (x + y + 1) x window floats of work per node;
    added as a 1x1 grid, it is the grid's [x, y] kernel up to the rounding
    of the weighted node sum.

    SWEEP_TENSOR_CAP bounds the state tensor (states x window floats), or a
    single state's work, before any window is built (ResourceLimitError).
    The global window is sized by the full-rate Poisson windows' ends, which
    never decrease as the rate grows, so every node window nests in it.

    The slack bounds each state's kernel L1 error: the rules' bounds, each
    with the integrated truncation of its node windows (every Poisson window
    leaves out at most pois_tol, so a node base errs by at most
    2^order (tail_a + tail_b), and order 0's stationary row by pois_tol
    more), within 99% of quad_tol; plus a first-order count of roundings
    per unit of node weight: 8 per window point (the walk from the mode and
    the convolution), 6 per state step (the recurrence, q = 1 - u and the
    node's place), and 8 (l1 + l2) + 200 for the mode values' logs and the
    sums over nodes and rules.
    """
    pois_tol = _pois_tol(quad_tol)
    states = nx + ny - 2  # the largest x + y the sweep covers
    top_b, size = _sweep_window(params, nx, ny, pois_tol, single_state)
    lo = -int(top_b) - 2 - (ny - 1)

    gx, gy = (1, 1) if single_state is not None else (nx, ny)  # the kernel's grid
    tensor = np.zeros((gy, gx, size))  # every rule adds into it
    weight = 0.0  # the summed node coefficients of every rule

    def rule_fn(points, wk):
        nonlocal weight
        k0, bases = _base_rows(params, 1.0 - points, pois_tol, order, coords)
        offset = k0 - lo
        # The window indices any node reaches at any state of the grid.
        start = offset - (ny - 1)
        stop = offset + bases.shape[1] + nx - 1
        if start < 0 or stop > size:
            raise RuntimeError("node window escaped the global window")
        coef = wk * points ** (order - 1)
        weight += coef.sum()
        frame = np.zeros((len(bases), gx, stop - start + 2))
        frame[:, 0, offset - start + 1 : offset - start + 1 + bases.shape[1]] = bases
        if single_state is not None:
            # The kernel's x steps, then its y steps: survive on the reversed row.
            u = points[:, None]
            q = 1.0 - u
            row = frame[:, 0]
            for rows in [row] * (nx - 1) + [row[:, ::-1]] * (ny - 1):
                kernels.survive(rows, u, q, rows)
        kernels.sweep_accumulate(tensor[:, :, start:stop], frame, points, coef)

    node_trunc = pois_tol * (3.0 if order == 0 else 2.0 ** (order + 1))

    def rule_bound(a: float, b: float) -> float:
        points, wk = kronrod_rule(a, b)
        trunc = node_trunc * float((wk * points ** (order - 1)).sum())
        return kronrod_bound(a, b, _log_norm_bound(a, b, order, states, params.total)) + trunc

    err = adaptive_gauss_kronrod(rule_fn, 0.0, 1.0, _RULE_SHARE * quad_tol, rule_bound)
    if order == 0:
        pi = to_dist(params, pois_tol)
        tensor[:, :, pi.min_support - lo : pi.max_support - lo + 1] -= weight * pi.probabilities
    tensor = tensor[0, 0] if single_state is not None else tensor.transpose(1, 0, 2)
    roundings = 8.0 * size + 6.0 * states + 8.0 * params.total + 200.0
    slack = err + 2.0 ** max(order, 1) * weight * roundings * _EPS
    return _SweepResult(lo, tensor, slack)


# ---------------------------------------------------------------------------
# Solutions of the Stein equation.

@lru_cache(maxsize=1)
def _solution_kernel_grid(
    params: SkellamParams, nx: int, ny: int, quad_tol: float
) -> _SweepResult:
    res = _sweep(params, 0, (), nx, ny, quad_tol)
    res.tensor.setflags(write=False)
    return res


def stein_solution(params: SkellamParams, f: TestSet, state, quad_tol: float = QUAD_TOL_DEFAULT) -> float:
    """Value of the integral solution h_f at one state.

    Its error is at most the sweep's slack (_sweep): the rules' bounds,
    within 99% of quad_tol, plus a count of roundings.  Below a quad_tol of
    about 1e-12 that count alone exceeds quad_tol, and so may the error.
    """
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

    Only the latest (params, grid, quad_tol)'s state kernels (up to
    SWEEP_TENSOR_CAP floats) are cached: many test functions on one grid
    cost one integration.
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
    """The largest state grid exact_stein_factor sweeps by default: where
    the certificate proves no smaller grid, this one, lam + 6 sqrt(lam) on
    a side (at least 10), is swept as the coupling damps state dependence
    exponentially."""
    lam = _total_rate(params)
    return max(10, int(math.ceil(lam + 6.0 * math.sqrt(lam))))


def _total_rate(params: SkellamParams) -> float:
    """l1 + l2, refused (ValueError) above MAX_BESSEL_X: the integral bound
    takes Bessel values at arguments up to it, and a sweep at such a rate is
    far past SWEEP_TENSOR_CAP."""
    lam = params.total
    if not lam <= MAX_BESSEL_X:
        raise ValueError(
            f"total rate l1 + l2 = {lam:g} is above the largest supported, {MAX_BESSEL_X:g}"
        )
    return lam


# The certificate's mesh of [0, 1]: t uniform, u = 1 - (1 - t)^2, so the
# intervals shrink toward u = 1, where the rates l (1 - u) vanish and the
# k-differences of S_u grow fastest.
_CERT_INTERVALS = 200
_PILOT_GRID = 6  # the grid swept first; its sup is the certificate's target


@dataclass(frozen=True)
class _Certificate:
    all_states: float  # U: bounds the factor at every state of Z_+^2
    grid: int          # the grid G at which the search stopped
    off_grid: float    # E(G): bounds the factor at every state off {0..G}^2


def _certificate(
    params: SkellamParams,
    order: int,
    quad_tol: float,
    limit: int,
    target: float = -math.inf,
    intervals: int = _CERT_INTERVALS,
) -> _Certificate:
    """State-free bounds on the order-o factor (o = 1, 2), from one array of
    Skellam rows S_b on a fixed mesh of [0, 1].

    With n_u(x, y) the L1 norm of the sweep integrand u^(o-1) D^o S_u (*)
    Bin(x, u) (*) -Bin(y, u) (D the k-difference), a state's factor is at
    most (1/2) int n_u du: its kernel sums to 0, so the sup over indicators
    is half the kernel's L1 norm.  Convolving with a law never raises an L1
    norm, so n_u is non-increasing in x and in y.  Hence every state has
    factor at most U = (1/2) int n_u(0, 0) du, and every state off the grid
    {0..G}^2 at most E(G) = (1/2) max(int n_u(G+1, 0) du, int n_u(0, G+1) du);
    n_u(0, y) at rates (l1, l2) is n_u(y, 0) at (l2, l1), whose Skellam rows
    are the reversed rows.

    On a mesh interval [a, b] of width h and midpoint m, S_u = S_b (*)
    Skellam(l1 (b - u), l2 (b - u)) for u <= b, a law, and Bin(x, u) is
    within L1 distance 2 x |u - m| of Bin(x, m), whose integral over [a, b]
    is x h^2 / 2.  So int_a^b n_u(x, 0) du is at most
    b^(o-1) min(h |D^o S_b|, h |D^o S_b (*) Bin(x, m)| + x h^2 |D^o S_b| / 2),
    and at x = 0 this is the right-endpoint Riemann sum of U's integrand,
    which is non-decreasing in u.  One pass of kernels.survive per x, with
    u = m, gives every D^o S_b (*) Bin(x, m).

    The rows D^o S_b are _base_rows at the mesh's right ends, as a sweep's
    node bases are.  Each Skellam row is a product of Poisson rows on their
    full-rate windows, leaving out at most 2 pois_tol, so 2^o (2 pois_tol)
    per unit of mesh weight is added to both bounds, with a first-order
    count of roundings.

    The search steps x = G + 1 from G = 0 and stops at the first G <= limit
    whose E(G) (the least of the bounds at G' <= G, each of which covers the
    states off {0..G}^2) is at most target, or at G = limit.  The frame is
    checked against SWEEP_TENSOR_CAP before any row is built.
    """
    pois_tol = _pois_tol(quad_tol)
    width = _certificate_width(params, order, quad_tol, limit, intervals)

    u = 1.0 - (1.0 - np.linspace(0.0, 1.0, intervals + 1)) ** 2
    a, b = u[:-1], u[1:]
    h, mid = b - a, 0.5 * (a + b)
    _, d = _base_rows(params, 1.0 - b, pois_tol, order, (1,) * order)
    frame = np.zeros((2 * intervals, int(width)))
    frame[:intervals, 1 : 1 + d.shape[1]] = d
    frame[intervals:, 1 : 1 + d.shape[1]] = d[:, ::-1]
    weight = np.tile(h * b ** (order - 1), 2)
    full = np.abs(frame).sum(axis=1)  # |D^o S_b|
    lipschitz = full * np.tile(h, 2) / 2.0

    roundings = 8.0 * width + 6.0 * limit + 8.0 * params.total + 200.0 + 2.0 * intervals
    extra = 0.5 * 2.0**order * (2.0 * pois_tol + roundings * _EPS)
    all_states = 0.5 * float(weight[:intervals] @ full[:intervals]) + extra

    mid = np.tile(mid, 2)[:, None]
    q = 1.0 - mid
    reach = 1 + d.shape[1]  # columns holding the rows' support
    magnitude = np.empty_like(frame)
    off_grid = math.inf
    for grid in range(limit + 1):
        x = grid + 1
        reach += 1
        rows = frame[:, :reach]
        kernels.survive(rows, mid, q, rows)
        norms = np.abs(rows, out=magnitude[:, :reach]).sum(axis=1)
        per_interval = weight * np.minimum(full, norms + x * lipschitz)
        bound = 0.5 * max(per_interval[:intervals].sum(), per_interval[intervals:].sum()) + extra
        off_grid = min(off_grid, bound)
        if off_grid <= target:
            break
    return _Certificate(all_states, grid, off_grid)


def _certificate_width(
    params: SkellamParams, order: int, quad_tol: float, limit: int, intervals: int = _CERT_INTERVALS
) -> float:
    """Points per row of _certificate's frame, refused (ResourceLimitError)
    where its 2 * intervals rows exceed SWEEP_TENSOR_CAP: a zero pad column,
    the D^o S_b rows (at most top_a + top_b + 1 + order points), and one
    more point per step x = 1 .. limit + 1.  It depends on the rates, the
    order and the limit alone, so it is checked before any sweep."""
    top_a, top_b = _full_rate_tops(params, _pois_tol(quad_tol))
    width = top_a + top_b + order + 3.0 + limit
    _check_cells(2 * intervals * width, f"certificate frame of {2 * intervals} rows by {width:.0f} points")
    return width


@dataclass(frozen=True)
class SteinFactorResult:
    """Exact sup over the state grid {0..grid_max}^2 and indicator test
    functions, annotated.

    upper bounds the factor over every state of Z_+^2: the certificate's U,
    or, where smaller, the larger of value + quad_error and E(grid_max).  It
    is never below value, which U may undercut at a coarse quad_tol.
    """

    value: float
    quad_error: float
    argmax_state: tuple[int, int]
    grid_max: int
    order: int
    coords: tuple[int, ...]
    quad_tol: float
    upper: float

    def __float__(self) -> float:
        return self.value


def _grid_sup(params: SkellamParams, order: int, grid_max: int, quad_tol: float):
    """(sup, slack, argmax) of the per-state indicator sups on {0..grid_max}^2."""
    n = grid_max + 1
    res = _sweep(params, order, (1,) * order, n, n, quad_tol)
    per_state = np.empty((n, n))
    part = np.empty(res.tensor.shape[::2])  # one (nx, K) scratch, a y-slice at a time, both signs
    for y, rows in enumerate(res.tensor.transpose(1, 0, 2)):
        pos = np.maximum(rows, 0.0, out=part).sum(axis=1)
        neg = np.maximum(np.negative(rows, out=part), 0.0, out=part).sum(axis=1)
        per_state[:, y] = np.maximum(pos, neg)
    idx = np.unravel_index(int(per_state.argmax()), per_state.shape)
    return float(per_state[idx]), res.slack, (int(idx[0]), int(idx[1]))


@lru_cache(maxsize=256)
def _exact_stein_factor_cached(
    params: SkellamParams,
    order: int,
    grid_max: int | None,
    quad_tol: float,
) -> SteinFactorResult:
    cap = default_state_grid(params) if grid_max is None else grid_max
    # Refuse what the largest sweep, then the certificate's frame, would.
    _sweep_window(params, cap + 1, cap + 1, _pois_tol(quad_tol))
    _certificate_width(params, order, quad_tol, cap)
    if grid_max is not None:
        sup = _grid_sup(params, order, grid_max, quad_tol)
        cert = _certificate(params, order, quad_tol, grid_max, sup[0] + sup[1])
    else:
        grid_max = _PILOT_GRID
        sup = _grid_sup(params, order, grid_max, quad_tol)
        # The pilot's sup is at most any larger grid's, so E(G) <= it proves
        # grid G; a grid past the cap is never swept.
        cert = _certificate(params, order, quad_tol, cap, sup[0])
        if cert.grid > grid_max:
            grid_max = cert.grid
            sup = _grid_sup(params, order, grid_max, quad_tol)
    value, slack, argmax = sup
    upper = min(cert.all_states, max(value + slack, cert.off_grid))
    return SteinFactorResult(
        value=value,
        quad_error=slack,
        argmax_state=argmax,
        grid_max=grid_max,
        order=order,
        coords=(1,) * order,
        quad_tol=quad_tol,
        upper=float(max(value, upper)),
    )


def exact_stein_factor(
    params: SkellamParams,
    order: int,
    coords,
    state_grid_max: int | None = None,
    quad_tol: float = QUAD_TOL_DEFAULT,
) -> SteinFactorResult:
    """Max over a state grid of the per-state exact indicator sup, with a
    certified bound (upper) on the sup over every state.

    With state_grid_max None the grid is sized by _certificate: the pilot
    grid {0..6}^2 is swept, and the least G whose E(G) is at most the
    pilot's sup is swept in its place (the pilot itself if G <= 6); where no
    G up to default_state_grid qualifies, that cap is swept.  Inputs whose
    largest sweep (the given grid, or the cap) or certificate frame exceeds
    SWEEP_TENSOR_CAP are refused before any sweep, the sweep's refusal
    first.

    The value does not depend on the coordinate tuple.  At every state the
    kernels of the different tuples of one order share the state
    convolution and differ only in _difference_base, by a shift in k and a
    sign, and max(sum g+, sum g-) ignores both (a sweep per tuple would
    agree up to the rounding of its sums).  So one sweep per order,
    run with coordinates (1,)*order and cached, serves every tuple; the
    result carries the tuple asked for.
    """
    coords = _normalize_coords(order, coords)
    if state_grid_max is not None:
        if state_grid_max < 0:
            raise ValueError("state_grid_max must be >= 0")
        state_grid_max = int(state_grid_max)
    res = _exact_stein_factor_cached(params, order, state_grid_max, float(quad_tol))
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
    if 2.0 * m * m == 0.0:  # m = 0, or m^2 underflows: the first term is past 1
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
        if lam * lam == 0.0:  # lam = 0, or lam^2 underflows: the first term is past 1
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

    On [0, 1] the integrand is e^{-z} I_0(z), or 1, both entire in u; as
    |I_0(z)| <= e^{|Re z|}, its modulus is at most exp(2 L max(0, Re u - 1)).
    """
    lam = _total_rate(params)
    if not quad_tol > 0:
        raise ValueError("quad_tol must be positive")
    clamp = max if printed_max_form else min
    value = 0.0

    def rule(points, wk):
        nonlocal value
        part = 0.0  # plain + in node order: from Python 3.12 the builtin sum is compensated
        for u, w in zip(points.tolist(), wk.tolist()):
            part += w * clamp(1.0, bessel_i(0, lam * (1.0 - u), scaled=True))
        value += part

    def rule_bound(a: float, b: float) -> float:
        right = bernstein_box(a, b)[1]
        return kronrod_bound(a, b, 2.0 * lam * np.maximum(right - 1.0, 0.0))

    adaptive_gauss_kronrod(rule, 0.0, 1.0, _RULE_SHARE * quad_tol, rule_bound)
    asym = math.sqrt(2.0 / (math.pi * lam)) if lam > 0 else math.inf
    return IntegralBound(value=value, asymptote=asym)


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
    """Report-only probe of the conjectured 1/(l1+l2) second-difference rate.

    The conjecture V <= 1/(l1 + l2) fails below a total rate of about 5:
    ratio = V (l1 + l2) is 1.1258 at (0.1757, 0.981), which 40-digit
    mpmath confirms.  At large totals the ratio tends to 4/sqrt(2 pi e)
    ~ 0.96788, the L1 norm of the normal density's second derivative.
    """

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
    """V = sum_k |p(k) - 2 p(k-1) + p(k-2)| over the window, with tail note.

    The reference rate 1/(l1 + l2) is no bound below a total of about 5
    (SecondDiffSumReport); at large totals V (l1 + l2) tends to
    4/sqrt(2 pi e) ~ 0.96788.
    """
    if window is None:
        d = to_dist(params, 1e-12)
        lo_k, hi_k = d.min_support, d.max_support
        probs = d.probabilities
        tail = d.tail_mass
    else:
        lo_k, hi_k = int(window[0]), int(window[1])
        if hi_k < lo_k:
            raise ValueError("window upper end below lower end")
        probs = pmf_window(params, lo_k, hi_k)
        tail = max(0.0, 1.0 - math.fsum(probs.tolist()))  # as to_dist's tail_mass
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
