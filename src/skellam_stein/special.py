"""Numeric primitives: modified Bessel functions of integer order, windowed
Poisson and binomial probability vectors, and adaptive quadrature.

Bessel values are log-scale floats (-inf for zero), so extreme arguments stay
usable.  Small arguments use the ascending power series; large arguments read
one cached table per argument and power-of-two size, built by backward ratio
recursion normalized by the scaled-sum identity, which never overflows.
Time integrals over [0, inf) are taken on (0, 1] via u = exp(-t) by an
adaptive Gauss-Kronrod 7/15 rule whose nodes avoid the endpoints.
"""

from __future__ import annotations

import heapq
import math
from functools import lru_cache
from typing import Callable

import numpy as np

from .dists import IntegerDist

MAX_EXP = 709.782712893384  # largest x with exp(x) finite in float64
_SERIES_X_MAX = 30.0


class QuadratureError(RuntimeError):
    """Adaptive quadrature hit maximum depth without meeting tolerance."""


@lru_cache(maxsize=64)
def _log_scaled_iv_table_cached(x: float, kmax: int) -> np.ndarray:
    """Read-only table of log(exp(-x) * I_k(x)), k = 0..kmax, via backward ratios.

    Ratios r_m = I_m / I_{m-1} lie in (0, 1) and come from the dominant
    solution of the three-term recurrence, so the continued fraction is
    forward stable.  Products are accumulated as logs in extended
    precision: deep-tail orders underflow float64 by thousands of decades
    yet must stay usable under large compensating tilts.  Normalization is
    exp(-x) * (I_0 + 2 sum_{m>=1} I_m) = 1.
    """
    # Start high enough that I_{m_top} / I_kmax < 1e-21 seeds an accurate
    # downward pass: m_top^2 - kmax^2 = 100 x gives exp(-50) in the
    # Gaussian order regime, faster decay beyond it.
    m_top = int(math.sqrt(kmax * kmax + 100.0 * x)) + 20
    ratios = np.empty(m_top)
    r = 0.0
    for m in range(m_top, 0, -1):
        r = 1.0 / (2.0 * m / x + r)
        ratios[m - 1] = r
    # In place where possible: at large kmax or x these arrays hold
    # millions of entries, and the transient peak sets the process's RSS.
    log_t = np.cumsum(np.log(ratios, out=ratios), dtype=np.longdouble)  # log(I_m / I_0)
    del ratios
    peak = max(0.0, float(log_t.max()))
    rel = log_t - peak
    norm = np.exp(np.longdouble(-peak)) + 2.0 * np.exp(rel, out=rel).sum()
    del rel
    log_norm = peak + np.log(norm)
    out = np.empty(kmax + 1)
    out[0] = float(-log_norm)
    out[1:] = np.subtract(log_t[:kmax], log_norm, out=log_t[:kmax])
    out.setflags(write=False)
    return out


def log_scaled_iv_orders(orders, x: float) -> np.ndarray:
    """log(exp(-x) * I_k(x)) for each integer order k in orders; x >= 0.

    An order takes the ascending series when it converges in few terms
    (x <= 30 or 0.25 x^2 / (k + 1) <= 64), summed for all such orders at
    once; every other order is read from the cached ratio table of its own
    size bucket.  So an order's value never depends on the orders asked for
    with it, and a one-order call agrees bit for bit with a window.
    """
    k = np.abs(np.asarray(orders, dtype=np.int64))
    if k.size and int(k.max()) > 4 * 10**6:
        raise ValueError("order magnitude above 4e6 is unsupported")
    if x < 0:
        raise ValueError("argument must be non-negative")
    if x == 0.0:
        return np.where(k == 0, 0.0, -np.inf)
    out = np.empty(k.shape)
    q = 0.25 * x * x
    series = (x <= _SERIES_X_MAX) | (q / (k + 1.0) <= 64.0)
    rest = k[~series]
    if rest.size:
        # frexp's exponent b of k is k.bit_length(): the table size bucket
        # is 1 << b, at least 64.
        bits = np.frexp(rest.astype(np.float64))[1]
        values = np.empty(rest.shape)
        for b in range(int(bits.min()), int(bits.max()) + 1):
            sel = bits == b
            if sel.any():
                table = _log_scaled_iv_table_cached(float(x), max(64, 1 << b))
                values[sel] = table[rest[sel]]
        out[~series] = values
    ks = k[series]
    if ks.size:
        # Terms and partial sums for every order, a block of terms at a time.
        # cumprod and cumsum accumulate in sequence, exactly as summing term
        # by term would; each order stops at its first term from m = 2 on
        # below 1e-18 of its sum.  The lowest order needs the most terms:
        # about x + 10 for x <= 30 and at most about 150 beyond, so the first
        # block nearly always suffices.  Products m (k + m) are exact in
        # float64 here.
        kf = ks.astype(np.float64)
        term = q / (kf + 1.0)  # m = 1
        s = 1.0 + term
        sums = np.empty(ks.shape)
        live = np.arange(ks.size)
        m0, rows = 2.0, min(16 + int(x), 160)
        while live.size:
            m = np.arange(m0, m0 + rows)[:, None]
            terms = q / (m * (kf[live] + m))
            terms[0] *= term
            np.cumprod(terms, axis=0, out=terms)
            part = terms.copy()
            part[0] += s
            np.cumsum(part, axis=0, out=part)
            stop = terms <= part * 1e-18
            first = stop.argmax(axis=0)
            cols = np.arange(live.size)
            hit = stop[first, cols]
            sums[live[hit]] = part[first[hit], cols[hit]]
            live, term, s = live[~hit], terms[-1, ~hit], part[-1, ~hit]
            m0, rows = m0 + rows, 2 * rows
        # math.log/math.lgamma (libm) rather than numpy's SIMD loops, whose
        # last bit varies with the CPU: records stay the same across machines.
        log_t0 = (
            ks * math.log(0.5 * x)
            - np.fromiter(map(math.lgamma, (ks + 1).tolist()), float, ks.size)
            - x
        )
        out[series] = log_t0 + np.fromiter(map(math.log, sums.tolist()), float, ks.size)
    return out


def log_scaled_iv(order: int, x: float) -> float:
    """log(exp(-x) * I_order(x)); order may be negative, -inf when the value is 0."""
    return float(log_scaled_iv_orders([int(order)], x)[0])


def bessel_i(order: int, x: float, scaled: bool = False) -> float:
    """Modified Bessel I_order(x) for integer order |order| <= 10^6, x >= 0.

    scaled=True returns exp(-x) * I_order(x), which never overflows.
    Unscaled values raise OverflowError once the result leaves float64
    range, which can only happen when exp(x) itself overflows.
    """
    if abs(int(order)) > 10**6:
        raise ValueError("order magnitude above 10^6 is unsupported")
    lv = log_scaled_iv(order, x)
    if scaled:
        return math.exp(lv)
    total = lv + x
    if total > MAX_EXP:
        raise OverflowError(
            f"I_{abs(int(order))}({x}) overflows float64; use scaled=True"
        )
    return math.exp(total)


def poisson_dist(lam: float, tail_tol: float = 1e-12) -> IntegerDist:
    """Poisson(lam) on a window holding at least 1 - tail_tol of the mass.

    Probabilities follow ratio recursion outward from the mode, so no
    factorials are formed and relative accuracy is uniform over the window.
    """
    if lam < 0:
        raise ValueError("rate must be non-negative")
    if not 0.0 < tail_tol < 1.0:
        raise ValueError("tail_tol must lie in (0, 1)")
    if lam == 0.0:
        return IntegerDist.point_mass(0)
    mode = int(lam)
    log_pm = mode * math.log(lam) - lam - math.lgamma(mode + 1)
    pm = math.exp(log_pm)
    left = []   # mode-1, mode-2, ...
    right = []  # mode+1, mode+2, ...
    # Kahan summation: the captured-mass target can sit below the plain
    # float-sum error once windows reach thousands of terms.
    total, comp = pm, 0.0
    lo_p, lo_k = pm, mode   # frontier value/index on the left
    hi_p, hi_k = pm, mode   # frontier value/index on the right
    target = 1.0 - tail_tol
    # Past +-12 sd any remaining gap is float64 bias, not real mass.
    width_cap = int(24.0 * math.sqrt(lam)) + 100
    while total < target:
        next_lo = lo_p * lo_k / lam if lo_k > 0 else 0.0
        next_hi = hi_p * lam / (hi_k + 1)
        if next_lo == 0.0 and next_hi == 0.0:
            break
        if hi_k - lo_k >= width_cap:
            break
        if next_lo >= next_hi and lo_k > 0:
            lo_p, lo_k = next_lo, lo_k - 1
            left.append(lo_p)
            add = lo_p
        else:
            hi_p, hi_k = next_hi, hi_k + 1
            right.append(hi_p)
            add = hi_p
        y = add - comp
        t = total + y
        comp = (t - total) - y
        total = t
    probs = np.array(left[::-1] + [pm] + right)
    return IntegerDist(lo_k, probs, max(0.0, 1.0 - total))


def binomial_thin_dist(n: int, q: float) -> IntegerDist:
    """Binomial(n, q) on its full window {0..n}; exact, no tail."""
    if n < 0 or int(n) != n:
        raise ValueError("n must be a non-negative integer")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    n = int(n)
    if n == 0 or q == 0.0:
        return IntegerDist.point_mass(0)
    if q == 1.0:
        return IntegerDist.point_mass(n)
    mode = min(n, int((n + 1) * q))
    log_pm = (
        math.lgamma(n + 1) - math.lgamma(mode + 1) - math.lgamma(n - mode + 1)
        + mode * math.log(q) + (n - mode) * math.log1p(-q)
    )
    probs = np.zeros(n + 1)
    probs[mode] = math.exp(log_pm)
    ratio = q / (1.0 - q)
    for k in range(mode, n):
        probs[k + 1] = probs[k] * ratio * (n - k) / (k + 1)
    for k in range(mode, 0, -1):
        probs[k - 1] = probs[k] / ratio * k / (n - k + 1)
    return IntegerDist(0, probs, max(0.0, 1.0 - float(probs.sum())))


# Gauss-Kronrod 7/15 on [-1, 1]: Kronrod nodes/weights, with the embedded
# 7-point Gauss rule living on the odd-indexed nodes.
_GK_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_GK_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_GK_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
    0.381830050505119, 0.279705391489277, 0.129484966168870,
])
_GAUSS_IDX = (1, 3, 5, 7, 9, 11, 13)
# Weight applied when accumulating the (Kronrod - Gauss) defect per node.
_GK_WDIFF = _GK_WK.copy()
for _i, _j in enumerate(_GAUSS_IDX):
    _GK_WDIFF[_j] -= _GK_WG[_i]

_MAX_DEPTH = 60


def _abs_norm(v) -> float:
    if isinstance(v, np.ndarray):
        return float(np.abs(v).sum())
    return abs(v)


def pointwise_rule(fn: Callable, norm: Callable = _abs_norm) -> Callable:
    """Rule integrand of a pointwise integrand fn(u) -> float or ndarray.

    Evaluates fn node by node and sums in node order, so the integral and the
    error estimate are bit for bit those of a node-by-node integrator.  norm
    maps the defect (a value of fn's shape) to a scalar; it may overwrite it.
    """

    def rule(points, wk, wd):
        acc_k = None
        acc_d = None
        for i in range(points.shape[0]):
            v = fn(points[i])
            if acc_k is None:
                acc_k = wk[i] * v
                acc_d = wd[i] * v
            else:
                acc_k += wk[i] * v
                acc_d += wd[i] * v
        return acc_k, norm(acc_d)

    return rule


def adaptive_gauss_kronrod(
    fn: Callable,
    a: float,
    b: float,
    abs_tol: float,
):
    """Integrate over [a, b] to absolute tolerance abs_tol, one rule per call.

    fn is a rule integrand: fn(points, wk, wd) -> (value, defect) is called
    once per interval with the interval's 15 Kronrod nodes and two (15,)
    weight vectors, both already scaled by the half-width.  It returns
    value = sum_i wk[i] f(points[i]), the Kronrod estimate (a float or an
    ndarray of one shape throughout), and defect, a non-negative scalar size
    of sum_i wd[i] f(points[i]), the Kronrod-minus-Gauss difference.  How a
    rule evaluates its nodes is its own affair (the state sweep stacks them);
    a pointwise f(u) goes through pointwise_rule(f, norm).

    The interval with the largest defect is bisected until the summed
    defects meet abs_tol.  Returns (integral, error_estimate).  The defect is
    the error estimate of the 7/15 pair (Piessens et al., QUADPACK, 1983),
    not a bound.  Raises QuadratureError when the target is still unmet at
    depth _MAX_DEPTH.
    """
    if not b > a:
        raise ValueError("need b > a")
    if not abs_tol > 0.0:
        raise ValueError("abs_tol must be positive")

    def rule(lo: float, hi: float):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        return fn(mid + half * _GK_NODES, half * _GK_WK, half * _GK_WDIFF)

    done_val = None
    done_err = 0.0
    tick = 0
    # heap entries: (-err, tick, lo, hi, depth, value, err)
    val, err = rule(a, b)
    heap = [(-err, tick, a, b, 0, val, err)]
    pending_err = err
    # An interval this clean cannot usefully shrink the total further.
    floor = abs_tol / (64.0 * 15.0)
    while heap:
        if done_err + pending_err <= abs_tol:
            break
        neg, _, lo, hi, depth, val, err = heapq.heappop(heap)
        pending_err -= err
        if err <= floor:
            # Worst interval already negligible: estimates have saturated.
            done_val = val if done_val is None else done_val + val
            done_err += err
            continue
        if depth >= _MAX_DEPTH:
            raise QuadratureError(
                f"tolerance {abs_tol} unmet on [{lo}, {hi}] at depth {depth}"
            )
        mid = 0.5 * (lo + hi)
        for c_lo, c_hi in ((lo, mid), (mid, hi)):
            c_val, c_err = rule(c_lo, c_hi)
            tick += 1
            heapq.heappush(heap, (-c_err, tick, c_lo, c_hi, depth + 1, c_val, c_err))
            pending_err += c_err
    for _, _, _, _, _, val, err in heap:
        done_val = val if done_val is None else done_val + val
        done_err += err
    return done_val, done_err

