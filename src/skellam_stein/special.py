"""Numeric primitives: modified Bessel functions of integer order, windowed
Poisson and binomial probability vectors, and quadrature.

Bessel values are log-scale floats (-inf for zero), so extreme arguments stay
usable.  An order takes one of three regimes: the ascending power series
where it converges in few terms; from order 64 on, otherwise, Olver's
uniform asymptotic expansion, whose O(1) work does not grow with the order
or the argument; below order 64, otherwise, the expansion's ratio
I_65 / I_64 seeds 64 backward ratio steps down to order 1, and Hankel's
expansion of I_0 anchors them.  No regime keeps state between calls.
log_skellam_debye gives the Skellam and Poisson pmf at orders from 64 on by
the same expansion with the tilt folded in, and log_poisson_pmf the Poisson
pmf at every order.
window_ends sizes every pmf window, Poisson here and Skellam in skellam,
before any value is built: its ends are where Chernoff's rate function,
the exponent of that expansion, reaches log(2 / tail_tol).  On Python floats
every step takes that rate on libm.  On arrays Newton's steps take a numpy
rate within a proven margin of libm's, and libm's is taken only for a row
whose end the margin leaves open, so both find the same ends.
log_scaled_iv_pairs gives the Bessel values for many (order, argument)
pairs at once, each regime's pairs together.
Time integrals over [0, inf) are taken on (0, 1] via u = exp(-t) by Kronrod
rules on a partition fixed in advance from proven error bounds.
"""

from __future__ import annotations

import heapq
import math
import sys
from operator import itemgetter
from typing import Callable

import numpy as np

from .dists import WINDOW_CAP, IntegerDist, check_window_size

MAX_EXP = 709.782712893384  # largest x with exp(x) finite in float64
# Largest Bessel argument: below sqrt of the float max, so x * x stays
# finite in Olver's s = sqrt(nu^2 + x^2) and in the series test.
MAX_BESSEL_X = 1e154
_SERIES_X_MAX = 30.0
DEBYE_MIN_ORDER = 64  # orders from here on off the series take Olver's expansion
_LGAMMA_1P = np.array([math.lgamma(k + 1.0) for k in range(DEBYE_MIN_ORDER)])  # log k!


class QuadratureError(RuntimeError):
    """No partition within the rule and depth caps meets the tolerance."""


def ratio_start(kmax, x):
    """Order from which backward_ratios starts, for orders up to kmax.

    High enough that I_top / I_kmax < 1e-21 seeds an accurate downward
    pass: top^2 - kmax^2 = 100 x gives exp(-50) in the Gaussian order
    regime, faster decay beyond it.  kmax and x may be arrays.
    """
    if isinstance(kmax, np.ndarray):
        kmax = kmax.astype(np.int64)  # kmax * kmax wraps round in int32
        return np.sqrt(kmax * kmax + 100.0 * x).astype(np.int64) + 20
    return int(math.sqrt(kmax * kmax + 100.0 * x)) + 20


def backward_ratios(x: float, top: int, low: int, seed: float, high: int | None = None) -> list[float]:
    """r[m - low - 1] = r_m = I_m(x) / I_{m-1}(x) for low < m <= min(top,
    high), x > 0, from r_{top + 1} = seed; high defaults to top.

    Miller's backward recurrence r_m = 1 / (2m/x + r_{m+1}) (Gautschi, SIAM
    Review 9, 1967), seeded by 0 from ratio_start's order or by the true
    ratio from any order.  Every order from top down is stepped, and only
    those up to high are stored.
    The ratios lie in (0, 1) and come from the dominant solution of the
    three-term recurrence, so the continued fraction is forward stable.
    """
    stop = top if high is None else min(top, high)
    r = seed
    for m in range(top, stop, -1):
        r = 1.0 / (2.0 * m / x + r)
    out = [0.0] * (stop - low)
    for m in range(stop, low, -1):
        r = 1.0 / (2.0 * m / x + r)
        out[m - low - 1] = r
    return out


# A batch of fewer rows steps row by row through backward_ratios: numpy's
# cost per call, about 1 us, would outweigh a step taken for a few rows.
# On the first n rows of each chunk of a 2048-bin Haar sweep (2 cores,
# Python 3.11, numpy 2.4), the lockstep took 1.7x the per-row time at 16
# rows, 1.0x at 24 and 0.8x at 32.
_LOCKSTEP_ROWS = 24


def backward_ratios_lockstep(x: np.ndarray, top: np.ndarray, low: int, high: int,
                             seed: np.ndarray | None = None) -> np.ndarray:
    """ratios[m - low - 1, i] = the r_m of backward_ratios(x[i], top[i], low,
    seed[i]) for low < m <= high, and 0 where m > top[i]: every row a step at
    a time, by the same operations either way, so a row's ratios do not
    depend on its batch.  seed defaults to 0, ratio_start's seed."""
    n = x.size
    ratios = np.zeros((high - low, n))
    if n < _LOCKSTEP_ROWS:
        for i, (xi, t) in enumerate(zip(x.tolist(), top.tolist())):
            r = backward_ratios(xi, t, low, 0.0 if seed is None else float(seed[i]), high)
            ratios[: len(r), i] = r
        return ratios
    order = np.argsort(top, kind="stable")
    xs, tops = x[order], top[order].tolist()
    r = np.zeros(n) if seed is None else seed[order].astype(np.float64)
    tmp = np.empty(n)
    first = n  # rows first.. have started: their top is at least m
    with np.errstate(over="ignore"):  # 2m/x = inf at subnormal x gives r = 0, as on floats
        for m in range(tops[-1] if n else low, low, -1):
            while first and tops[first - 1] >= m:
                first -= 1
            np.divide(2.0 * m, xs[first:], out=tmp[first:])
            tmp[first:] += r[first:]
            np.divide(1.0, tmp[first:], out=r[first:])
            if m <= high:
                ratios[m - low - 1, first:] = r[first:]
    out = np.empty_like(ratios)
    out[:, order] = ratios
    return out


# Olver's uniform expansion (DLMF 10.41.3): with s = sqrt(nu^2 + x^2) and
# t = nu / s,  I_nu(x) ~ exp(s + nu log(x / (nu + s))) / sqrt(2 pi s)
# * sum_j u_j(t) / nu^j.  Row j - 1 holds the coefficients of u_j(t) / t^j
# in powers of t^2, from u_{j+1}(t) = t^2 (1 - t^2) u_j'(t) / 2
# + int_0^t (1 - 5 v^2) u_j(v) dv / 8, u_0 = 1 (DLMF 10.41.9).  At
# nu >= 64 the first omitted term, u_10(t) / nu^10, is below 1.1e-18.
_DEBYE_U = (
    (0.125, -0.20833333333333334),
    (0.0703125, -0.4010416666666667, 0.3342013888888889),
    (0.0732421875, -0.8912109375, 1.8464626736111112, -1.0258125964506173),
    (0.112152099609375, -2.3640869140625, 8.78912353515625, -11.207002616222994,
     4.669584423426247),
    (0.22710800170898438, -7.368794359479632, 42.53499874538846, -91.81824154324002,
     84.63621767460073, -28.212072558200244),
    (0.5725014209747314, -26.491430486951554, 218.1905117442116, -699.5796273761325,
     1059.9904525279999, -765.2524681411817, 212.57013003921713),
    (1.7277275025844574, -108.09091978839466, 1200.9029132163525, -5305.646978613403,
     11655.393336864534, -13586.550006434138, 8061.722181737309, -1919.457662318407),
    (6.074042001273483, -493.915304773088, 7109.514302489364, -41192.65496889755,
     122200.46498301746, -203400.17728041555, 192547.00123253153, -96980.59838863752,
     20204.29133096615),
    (24.380529699556064, -2499.8304818112097, 45218.76898136273, -331645.1724845636,
     1268365.2733216248, -2813563.226586534, 3763271.297656404, -2998015.9185381066,
     1311763.6146629772, -242919.18790055133),
)


def _libm(fn, *values):
    """fn (math.log, math.log1p, ...) on libm, not numpy's SIMD loops, whose
    last bit varies with the CPU: of Python floats, or of each position of
    1-D arrays of one length."""
    if isinstance(values[0], float):
        return fn(*values)
    return np.fromiter(map(fn, *(v.tolist() for v in values)), float, values[0].size)


def _sqrt(v):
    """Square root of a Python float, or of each value of an array; both
    are correctly rounded."""
    return math.sqrt(v) if isinstance(v, float) else np.sqrt(v)


def _debye_log(nu, s):
    """-log(2 pi s) / 2 + log sum_j u_j(nu / s) / nu^j, the part of log I_nu
    in Olver's expansion beside the exponent; float orders nu >= 64, as
    Python floats or arrays."""
    t = nu / s
    y, w = t * t, t / nu
    acc = 0.0
    for row in reversed(_DEBYE_U):  # sum_j w^j P_j(y), both by Horner
        p = row[-1]
        for c in row[-2::-1]:
            p = p * y + c
        acc = (acc + p) * w
    return _libm(math.log1p, acc) - 0.5 * _libm(math.log, 2.0 * math.pi * s)


def _log_scaled_iv_debye(nu: np.ndarray, x: np.ndarray) -> np.ndarray:
    """log(exp(-x) * I_nu(x)) by Olver's expansion, float orders nu >= 64,
    x > 0: the exponent s - x + nu log(x / (nu + s)) is
    nu^2 / (s + x) - nu log1p((nu + nu^2 / (s + x)) / x)."""
    s = np.sqrt(nu * nu + x * x)
    e = nu * nu / (s + x)
    return e - nu * _libm(math.log1p, (nu + e) / x) + _debye_log(nu, s)


def _log_scaled_iv_seeded(ks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """log(exp(-x) * I_k(x)) for each order ks[i] < 64 at its own x[i] > 30.

    Olver's expansion at orders 64 and 65 gives the ratio I_65 / I_64, which
    seeds the backward ratios down to order 1; downward, a seed error
    alternates in sign from step to step and does not grow.  The value is
    log I_0 plus the log of the product of r_m over 0 < m <= k, with log I_0
    from Hankel's expansion.  Anchored at order 64 instead, it would carry
    the rounding of log I_64, a log of size 47 at x = 40: up to 1.4e-14
    relative.  The ratios of all rows come from backward_ratios_lockstep,
    and one cumprod along the orders multiplies them in sequence, so a value
    does not depend on the batch it comes in.
    """
    n, top = ks.size, DEBYE_MIN_ORDER
    logs = _log_scaled_iv_debye(np.repeat([top, top + 1.0], n), np.concatenate([x, x]))
    seeds = _libm(math.exp, logs[n:] - logs[:n])
    ratios = backward_ratios_lockstep(x, np.full(n, top), 0, top, seeds)
    np.cumprod(ratios, axis=0, out=ratios)  # ratios[m - 1, i] = r_1 ... r_m of row i
    prods = np.where(ks > 0, ratios[np.maximum(ks - 1, 0), np.arange(n)], 1.0)
    return _log_scaled_i0_hankel(x) + _libm(math.log, prods)


def _log_scaled_i0_hankel(x: np.ndarray) -> np.ndarray:
    """log(exp(-x) * I_0(x)) at x > 30 by Hankel's expansion (DLMF 10.40.1):
    sqrt(2 pi x) exp(-x) I_0(x) = 1 + sum_j prod_{i <= j} (2i - 1)^2 / (8 i x)
    to a relative exp(-2x).  Its terms fall until j = 2x; at x > 30 the
    20th is below 1e-19, so 19 are summed."""
    acc = np.zeros(x.shape)
    for i in range(19, 0, -1):  # by Horner
        acc = (2 * i - 1) ** 2 / (8.0 * i * x) * (1.0 + acc)
    return _libm(math.log1p, acc) - 0.5 * _libm(math.log, 2.0 * math.pi * x)


def log_skellam_debye(nu, la, lb) -> np.ndarray:
    """log P(X = nu) for X ~ Skellam(la, lb) by Olver's expansion of I_nu,
    at integer nu >= 64, la > 0 and lb >= 0 (arrays of one shape); lb = 0
    gives the Poisson(la) pmf.

    The tilt is folded into the exponent, so nothing of the size of the
    rates cancels: with T = la + lb, d = la - lb, s = sqrt(nu^2 + 4 la lb)
    and delta = nu - d (by fsum, exact to rounding),
      log p = nu log(2 la / (nu + s)) + (s - T) + _debye_log(nu, s),
      s - T = delta (nu + d) / (s + T),
      2 la / (nu + s) - 1 = -delta (s + T + nu + d) / ((s + T) (nu + s)).
    The log takes log1p of the last line where it lies in [-1/2, 1/2], near
    the mode; in the tails log1p would lose what 1 + z rounds away.
    """
    nu, la, lb = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, dtype=np.float64)) for v in (nu, la, lb)))
    return _log_skellam_debye(nu, la, lb)


def _log_skellam_debye(nu, la, lb):
    """log_skellam_debye's value on Python floats, or on 1-D float arrays of
    one length: the same operations on the same libm functions, so a
    Python-float call agrees bit for bit with its place in an array, without
    numpy's cost per call."""
    exponent, _, s = _log_skellam_exponent(nu, la, lb)
    return exponent + _debye_log(nu, s)


def _log_skellam_exponent(nu, la, lb):
    """(-I(nu), log(2 la / (nu + s)), s), log_skellam_debye's terms, for
    nu + s > 0, as _log_skellam_debye: I(nu) is Chernoff's rate function of
    Skellam(la, lb), sup_theta [theta nu - la (e^theta - 1) - lb (e^-theta - 1)],
    and I'(nu) = -log(2 la / (nu + s)) its optimal theta."""
    total, d = la + lb, la - lb
    x = 2.0 * _sqrt(la) * _sqrt(lb)
    s = _sqrt(nu * nu + x * x)
    delta = _libm(lambda *terms: math.fsum(terms), nu, -la, lb)
    st, ns = s + total, nu + s
    z = -delta * (st + nu + d) / (st * ns)
    log_ratio = _libm(_log_ratio, z, 2.0 * la / ns, la, ns)
    return nu * log_ratio + delta * (nu + d) / st, log_ratio, s


def _log_ratio(z: float, ratio: float, la: float, ns: float) -> float:
    """log of ratio = 2 la / ns = 1 + z."""
    if abs(z) <= 0.5:
        return math.log1p(z)
    if ratio >= sys.float_info.min:
        return math.log(ratio)
    return math.log(2.0 * la) - math.log(ns)  # the ratio underflows


def chernoff_level(tail_tol: float) -> float:
    """T = log(2 / tail_tol), the rate Chernoff's bound asks of a window's
    ends, for 0 < tail_tol < 1; below 2 / DBL_MAX, where 2 / tail_tol
    overflows, log 2 - log tail_tol."""
    tail_tol = float(tail_tol)
    ratio = 2.0 / tail_tol
    return math.log(ratio) if ratio < math.inf else math.log(2.0) - math.log(tail_tol)


def window_ends(center, la, lb, tail_tol: float):
    """(lo, hi), as integral floats, of the pmf window of Skellam(la, lb)
    around the integer center (the mode or round(la - lb)): with
    T = chernoff_level(tail_tol) and I Chernoff's rate function, hi is the
    least k >= center with I(hi + 1) >= T and lo the greatest k <= center
    with I(lo - 1) >= T.  P(X > hi) <= exp(-I(hi + 1)) and the same below
    (Chernoff, Ann. Math. Statist. 23, 1952), so at most tail_tol lies outside.

    la > 0, lb >= 0; lb = 0 gives the Poisson(la) window, lo >= 0, whose
    ends never decrease as la grows.  No pmf value is built.  On Python
    floats, _end_distance takes every Newton step and every check on
    libm's I.  On 1-D float arrays of positive rates, as skellam.windows
    batches them, _end_distances steps all rows together on numpy's I and
    decides each check on it wherever its proven margin does; libm's I
    decides the rest.  Each end is the first point past the centre whose
    libm I reaches T, so both give the same ends.
    """
    t_max = chernoff_level(tail_tol)
    distance = _end_distances if isinstance(center, np.ndarray) else _end_distance
    return (center - distance(center, la, lb, t_max, -1.0) + 1.0,
            center + distance(center, la, lb, t_max, 1.0) - 1.0)


def _end_distance(c: float, la: float, lb: float, t_max: float, side: float) -> float:
    """The least t >= 1 with I(c + side t) >= t_max: Newton's method on the
    convex I from a Cornish-Fisher guess.  Where the tangent reaches
    t_max + 1e-9, far above the rounding of I, so does I: from either side
    the tangent's root, rounded up, is at or past the answer, and only the
    point one nearer c needs I.  A point whose I reaches t_max is at or past
    the answer, so no step from it goes outward; else an I within 1e-9
    above t_max would step out and back forever.  On a Poisson law's lower side
    Newton starts at k >= 1, where I' is finite, and stops at k = -1, where
    I = inf.
    """
    v = la + lb
    if v > WINDOW_CAP**2:  # more than 2 sqrt(v) wide, so past the cap: no step is taken
        return math.inf
    guess = side * (la - lb - c) + math.sqrt(2.0 * t_max * v) + side * t_max * (la - lb) / (3.0 * v)
    t, cap = float(max(math.ceil(guess), 1)), math.inf
    if lb == 0.0 and side < 0.0:
        cap = c + 1.0
        t = min(t, c - 1.0) if c >= 2.0 else cap
    rate, slope = _chernoff_rate(c + side * t, la, lb)
    while True:
        step = (rate - t_max - 1e-9) / (side * slope)
        if abs(step) < math.inf:  # neither nan nor infinite
            t = min(max(t - math.floor(max(step, 0.0) if rate >= t_max else step), 1.0), cap)
        if t == 1.0:
            return t
        rate, slope = _chernoff_rate(c + side * (t - 1.0), la, lb)
        if rate < t_max:
            return t
        t -= 1.0


def _end_distances(c, la, lb, t_max: float, side: float) -> np.ndarray:
    """_end_distance of each row of 1-D arrays of positive rates: the rows
    not yet done take a step together, on _chernoff_rates_fast's I and I'
    within their margins e and e'.

    A Newton step from t0 lands at t1 where the fast tangent reaches
    t_max + 1e-9 + e, taken with slope S' + e' inward (S' = side I', the
    slope along t) and S' - e' outward.  libm's tangent at t0, which
    _end_distance steps by, differs from it at t1 by at most
    e + e' |t1 - t0|, so it reaches t_max + 1e-9 there too, and the landing
    is at or past the answer as in _end_distance.  A check I(t - 1) >=
    t_max with |I_fast - t_max| > e has libm's answer; the other rows take
    _chernoff_rates for that check, as does any row without a finite
    margin.  So a row stops at _end_distance's t.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # rows that are huge
        v = la + lb
        huge = v > WINDOW_CAP**2  # inf, refused by the caller
        guess = side * (la - lb - c) + np.sqrt(2.0 * t_max * v) + side * t_max * (la - lb) / (3.0 * v)
    t = np.where(huge, np.inf, np.maximum(np.ceil(guess), 1.0))
    rows = np.flatnonzero(~huge)
    rate, slope, err, slope_err = _settled_rates(c[rows] + side * t[rows], la[rows], lb[rows])
    while rows.size:
        reach = rate - t_max - 1e-9 - err
        step = np.floor(reach / (side * slope + np.copysign(slope_err, reach)))
        t[rows] = np.maximum(t[rows] - np.where(rate - err >= t_max, np.maximum(step, 0.0), step), 1.0)
        rows = rows[t[rows] > 1.0]
        rate, slope, err, slope_err = _settled_rates(c[rows] + side * (t[rows] - 1.0), la[rows], lb[rows], t_max)
        nearer = rate >= t_max
        rows, rate, slope, err, slope_err = rows[nearer], rate[nearer], slope[nearer], err[nearer], slope_err[nearer]
        t[rows] -= 1.0
    return t


def _settled_rates(k, la, lb, t_max=None):
    """_chernoff_rates_fast's (I, I', e, e'), with libm's I and I' and
    zero margins in the rows whose margin is not finite and, given t_max,
    in those where I_fast lies within e of t_max."""
    rate, slope, err, slope_err = _chernoff_rates_fast(k, la, lb)
    exact = ~(err < np.inf)
    if t_max is not None:
        exact |= np.abs(rate - t_max) <= err
    if exact.any():
        i = np.flatnonzero(exact)
        rate[i], slope[i] = _chernoff_rates(k[i], la[i], lb[i])
        err[i] = slope_err[i] = 0.0
    return rate, slope, err, slope_err


def _chernoff_rates(k: np.ndarray, la: np.ndarray, lb: np.ndarray):
    """_chernoff_rate of each row of arrays of positive rates."""
    up = (k > 0.0) | ((k == 0.0) & (la >= lb))
    exponent, log_ratio, _ = _log_skellam_exponent(np.abs(k), np.where(up, la, lb), np.where(up, lb, la))
    return -exponent, np.where(up, -log_ratio, log_ratio)


# _chernoff_rates_fast's relative margin besides delta's.  It assumes numpy's
# log and log1p within a relative 4e-10 of the true value: some 10^6 ulps,
# where libm and numpy's SIMD loops claim a few.
_FAST_RATE_REL = 1e-9


def _chernoff_rates_fast(k: np.ndarray, la: np.ndarray, lb: np.ndarray):
    """(I, I', e, e'): _chernoff_rates' I and I' of each row by numpy's log
    and log1p, with delta = (nu - la) + lb in place of fsum, and bounds e
    and e' on their distance from _chernoff_rates' values; inf or nan where
    none is proven.

    Both evaluate I = -(A + B), A = nu L, B = delta (nu + d) / st and
    L = log(2 la / ns) = +-I' by the same correctly rounded operations on
    the same inputs, except delta and the logs.  With u = 2^-53 and
    D = nu + la + lb:
    - fsum's delta is within u |delta| of the true one, and two plain
      additions within 2u D, so they differ by at most 4u D = r |delta_fast|,
      which defines r; a row needs r <= 1e-3.
    - B's two values differ by at most (r + 7u) |B|.
    - Where both take log1p, z scales with delta, so the two z differ by
      (r + 5u) |z|.  log1p's slope is at most 2 for |z| <= 1/2, and
      |z| <= 1.5 |L| there, so the L differ by 3.1 r |L| plus each log's
      own error.  Where both take log of the one shared ratio, or one takes
      each at |z| near 1/2, where the two are the same function to 100u,
      the logs' errors and 100u remain.  Past the float range the log of
      2 la less that of ns errs by 1.2 times the logs' error in |L|.
    - With each log within a relative alpha <= 4e-10 (libm's within 2u),
      L differs by (3.1 r + 1.2 alpha + 100u) |L|, A by as much in |A|, and
      I, after one last rounding, by (3.2 r + 1.21 alpha + 111u)(|A| + |B|)
      <= (3.2 r + 5e-10)(|A| + |B|), second-order terms included at
      r <= 1e-3.
    e = (8r + 1e-9)(|A| + |B|) and e' = (8r + 1e-9) |L| hold both with room.
    """
    up = (k > 0.0) | ((k == 0.0) & (la >= lb))
    nu, la, lb = np.abs(k), np.where(up, la, lb), np.where(up, lb, la)
    total, d = la + lb, la - lb
    x = 2.0 * np.sqrt(la) * np.sqrt(lb)
    s = np.sqrt(nu * nu + x * x)
    delta = nu - la + lb
    st, ns = s + total, nu + s
    z = -delta * (st + nu + d) / (st * ns)
    ratio = 2.0 * la / ns
    with np.errstate(divide="ignore", invalid="ignore"):
        log_ratio = np.where(np.abs(z) <= 0.5, np.log1p(z), np.log(ratio))
        under = ratio < sys.float_info.min
        if under.any():  # the ratio underflows
            log_ratio[under] = np.log(2.0 * la[under]) - np.log(ns[under])
        a, b = nu * log_ratio, delta * (nu + d) / st
        r = 2.0**-51 * (nu + total) / np.abs(delta)
    rel = np.where(r <= 1e-3, 8.0 * r + _FAST_RATE_REL, np.inf)
    return -(a + b), np.where(up, -log_ratio, log_ratio), rel * (np.abs(a) + np.abs(b)), rel * np.abs(log_ratio)


def _chernoff_rate(k: float, la: float, lb: float) -> tuple[float, float]:
    """(I(k), I'(k)) of Skellam(la, lb) at the integral float k, la > 0,
    lb >= 0; I(k) for k < 0 is the rate of Skellam(lb, la) at -k, as in
    skellam's pmf, and so is I(0) where lb > la: taken from the larger
    rate, I'(0) does not cancel.  A Poisson law (lb = 0) has I(0) = la,
    with I' = -inf, and I = inf below 0."""
    if k < 0.0 or (k == 0.0 and lb > la):
        if lb == 0.0:
            return math.inf, math.nan
        exponent, log_ratio, _ = _log_skellam_exponent(-k, lb, la)
        return -exponent, log_ratio
    if k == 0.0 and lb == 0.0:
        return la, -math.inf
    exponent, log_ratio, _ = _log_skellam_exponent(k, la, lb)
    return -exponent, -log_ratio


_SERIES_BANDS = np.array([32, 64, 128])  # first-block sizes that share a group
_SERIES_CELLS = 1 << 14  # terms of a group's first block summed at once


def _log_scaled_iv_series(ks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """log(exp(-x) * I_k(x)) by the ascending series, for each order ks[i] >= 0
    at its own argument x[i] > 0.

    Terms and partial sums for every order, a block of terms at a time.
    cumprod and cumsum accumulate in sequence, exactly as summing term by
    term would; each order stops at its first term from m = 2 on below
    1e-18 of its sum.  So an order's value depends on its own (k, x) alone,
    not on the block size or on the other orders.  The lowest order needs
    the most terms: about x + 10 for x <= 30 and at most about 150 beyond.
    Rows are summed in groups of like x, each with a first block sized by
    its own largest x, so it nearly always suffices and a small-x row does
    not carry a large-x row's terms; a group's block holds at most
    _SERIES_CELLS terms at once.  Products m (k + m) are exact in
    float64 here.  Where 0.5 x underflows to 0 (x = 5e-324), log(0.5 x) is
    taken as log(x) - log(2).
    """
    sums = np.empty(ks.shape)
    kf = ks.astype(np.float64)
    block = 16 + np.minimum(x, 144.0).astype(np.int64)
    band = np.searchsorted(_SERIES_BANDS, block)
    for b in np.unique(band).tolist():
        rows = np.flatnonzero(band == b)
        terms = int(block[rows].max())
        for part in np.array_split(rows, -(-rows.size * terms // _SERIES_CELLS)):
            sums[part] = _series_sums(kf[part], x[part], terms)
    half = 0.5 * x
    log_half = _libm(math.log, np.where(half > 0.0, half, 1.0))
    tiny = half == 0.0
    if tiny.any():
        log_half[tiny] = _libm(math.log, x[tiny]) - math.log(2.0)
    log_t0 = ks * log_half - _libm(math.lgamma, ks + 1) - x
    return log_t0 + _libm(math.log, sums)


def _series_sums(kf: np.ndarray, x: np.ndarray, rows: int) -> np.ndarray:
    """sum_m (x^2 / 4)^m k! / (m! (k + m)!) of each row, _log_scaled_iv_series'
    partial sums from a first block of rows terms."""
    q = 0.25 * x * x
    term = q / (kf + 1.0)  # m = 1
    s = 1.0 + term
    sums = np.empty(kf.shape)
    live = np.arange(kf.size)
    m0 = 2.0
    while live.size:
        m = np.arange(m0, m0 + rows)[:, None]
        terms = q[live] / (m * (kf[live] + m))
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
    return sums


def log_scaled_iv_pairs(orders, xs) -> np.ndarray:
    """log(exp(-x) * I_k(x)) for each pair (orders[i], xs[i]); 0 < xs <= MAX_BESSEL_X.

    Pairs whose series converges in few terms (x <= 30 or 0.25 x^2 / (k + 1)
    <= 64) are summed together, those from order 64 on take Olver's expansion
    together, and the others are seeded by its orders 64 and 65 and anchored
    at I_0 together.  So each value is bit for bit log_scaled_iv's.
    """
    k = np.abs(np.asarray(orders, dtype=np.int64))
    xs = np.asarray(xs, dtype=np.float64)
    if not np.all((xs > 0.0) & (xs <= MAX_BESSEL_X)):
        raise ValueError(f"arguments must be positive and at most {MAX_BESSEL_X:g}")
    series = (xs <= _SERIES_X_MAX) | (0.25 * xs * xs / (k + 1.0) <= 64.0)
    debye = ~series & (k >= DEBYE_MIN_ORDER)
    out = np.empty(k.shape)
    if series.any():
        out[series] = _log_scaled_iv_series(k[series], xs[series])
    if debye.any():
        out[debye] = _log_scaled_iv_debye(k[debye].astype(np.float64), xs[debye])
    seeded = ~series & ~debye
    if seeded.any():
        out[seeded] = _log_scaled_iv_seeded(k[seeded], xs[seeded])
    return out


def as_int(value, name: str) -> int:
    """value as an int: an int, a numpy integer, or a float equal to one;
    ValueError naming it otherwise, for NaN and the infinities too."""
    try:
        k = int(value)
    except (OverflowError, ValueError):
        k = None
    if k is None or k != value:
        raise ValueError(f"{name} must be an integer, not {value}")
    return k


def log_scaled_iv(order: int, x: float) -> float:
    """log(exp(-x) * I_order(x)) for x >= 0; order may be negative, -inf
    when the value is 0.  x > 0 is log_scaled_iv_pairs' pair."""
    order = as_int(order, "order")
    if x < 0:
        raise ValueError("argument must be non-negative")
    if x == 0.0:
        return 0.0 if order == 0 else -math.inf
    return float(log_scaled_iv_pairs([order], [float(x)])[0])


def bessel_i(order: int, x: float, scaled: bool = False) -> float:
    """Modified Bessel I_order(x) for integer order |order| <= 10^6,
    0 <= x <= MAX_BESSEL_X.

    scaled=True returns exp(-x) * I_order(x), which never overflows.
    Unscaled values raise OverflowError once the result leaves float64
    range, which can only happen when exp(x) itself overflows.
    """
    order = as_int(order, "order")
    if abs(order) > 10**6:
        raise ValueError("order magnitude above 10^6 is unsupported")
    lv = log_scaled_iv(order, x)
    if scaled:
        return math.exp(lv)
    total = lv + x
    if total > MAX_EXP:
        raise OverflowError(
            f"I_{abs(order)}({x}) overflows float64; use scaled=True"
        )
    return math.exp(total)


def poisson_dist(lam: float, tail_tol: float = 1e-12) -> IntegerDist:
    """Poisson(lam) on window_ends' window, which holds at least 1 - tail_tol
    of the mass; tail_mass is 1 minus the window's fsum.  lam above about
    4.4e11 (at tail_tol 1e-12) raises ResourceLimitError before any value
    is built.
    """
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"rate must be finite and non-negative, not {lam}")
    if not 0.0 < tail_tol < 1.0:
        raise ValueError("tail_tol must lie in (0, 1)")
    if lam == 0.0:
        return IntegerDist(0, [1.0], 0.0)
    lam = float(lam)  # a Python float steps faster than a numpy scalar, to the same bits
    lo, hi = window_ends(float(int(lam)), lam, 0.0, tail_tol)
    check_window_size(hi - lo + 1.0, "pmf window")
    p = _poisson_walk(lam, int(lo), int(hi))
    return IntegerDist(int(lo), p, max(0.0, 1.0 - math.fsum(p)))


def poisson_rows(lams: np.ndarray, tail_tol: float) -> tuple[int, np.ndarray]:
    """(lo, rows): row i is the Poisson(lams[i]) pmf on lo..hi, for a 1-D
    array of rates >= 0, with lo the lower end of window_ends' window at the
    smallest rate and hi its upper end at the largest.

    Those windows nest as the rate falls, so each row's own window lies in
    lo..hi, and each row leaves out at most tail_tol with no end solve of
    its own.  Each row's mode value is log_poisson_pmf's formula.  The steps
    lam / k above the mode and (k + 1) / lam below it are all at most 1, and
    one cumprod per side multiplies them out, so no factorial is formed and
    a value k points from its mode errs by at most about 2 |k - mode| + 3
    units of roundoff, plus its mode value's.
    """
    lams = np.asarray(lams, dtype=np.float64)
    small, large = float(lams.min()), float(lams.max())
    t_max = chernoff_level(tail_tol)
    lo = hi = 0.0
    if small > 0.0:
        lo = float(int(small)) - _end_distance(float(int(small)), small, 0.0, t_max, -1.0) + 1.0
    if large > 0.0:
        hi = float(int(large)) + _end_distance(float(int(large)), large, 0.0, t_max, 1.0) - 1.0
    check_window_size(hi - lo + 1.0, "pmf window")
    lo, hi = int(lo), int(hi)
    modes = lams.astype(np.int64)
    ks = np.arange(lo, hi + 1, dtype=np.float64)
    lam, mode = lams[:, None], modes[:, None]
    up, down = ks > mode, ks < mode  # below a mode of 1 or more, lam >= 1
    steps = np.divide(lam, ks, out=np.ones((lams.size, ks.size)), where=up)
    np.divide(ks + 1.0, lam, out=steps, where=down)
    rows = np.cumprod(np.where(down, 1.0, steps), axis=1)
    rows *= np.cumprod(np.where(up, 1.0, steps)[:, ::-1], axis=1)[:, ::-1]
    low = modes < DEBYE_MIN_ORDER
    log_mode = np.zeros(lams.size)
    positive = low & (lams > 0.0)
    log_mode[positive] = (
        modes[positive] * np.log(lams[positive]) - lams[positive] - _LGAMMA_1P[modes[positive]]
    )
    for i in np.flatnonzero(~low):
        log_mode[i] = _log_skellam_debye(float(modes[i]), float(lams[i]), 0.0)
    rows *= np.exp(log_mode)[:, None]
    return lo, rows


def log_poisson_pmf(lam: float, k: int) -> float:
    """log Poisson(lam) pmf at the integer k, on Python floats; -inf where
    the mass is 0.  From order 64 on log_skellam_debye's (lb = 0), below it
    k log lam - lam - lgamma(k + 1), whose cancellation is small at small lam."""
    if k < 0 or (lam == 0.0 and k > 0):
        return -math.inf
    if k >= DEBYE_MIN_ORDER:
        return _log_skellam_debye(float(k), lam, 0.0)
    return k * math.log(lam) - lam - math.lgamma(k + 1) if lam > 0.0 else 0.0


def _poisson_walk(lam: float, a: int, b: int) -> list[float]:
    """The Poisson(lam > 0) pmf on a..b, a <= int(lam) <= b, as a list.

    The mode's value is log_poisson_pmf's, so it equals skellam.pmf's bit
    for bit; the walk steps outward from it, p * k / lam to the left and
    q * lam / k to the right.  No factorials are formed, so relative
    accuracy is uniform over the window.
    """
    mode = int(lam)
    p = q = math.exp(log_poisson_pmf(lam, mode))
    middle = [p]
    left, right = [], []  # max(a, 0)..mode - 1 reversed, and mode + 1..b
    for k in range(mode, max(a, 0), -1):
        p = p * k / lam
        left.append(p)
    for k in range(mode + 1, b + 1):
        q = q * lam / k
        right.append(q)
    return [0.0] * max(0, -a) + left[::-1] + middle + right


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


# The 15-point Kronrod rule on [-1, 1] (QUADPACK's qk15, Piessens et al.,
# 1983) to full double precision, nodes ascending.  Its weights are positive,
# and it integrates every polynomial of degree up to 22 exactly.
_GK_HALF_NODES = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
])
_GK_HALF_WK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
])
_GK_NODES = np.concatenate((-_GK_HALF_NODES, [0.0], _GK_HALF_NODES[::-1]))
_GK_WK = np.concatenate((_GK_HALF_WK, [0.209482141084727828012999174891714], _GK_HALF_WK[::-1]))
KRONROD_DEGREE = 22

# The Bernstein ellipses E_rho on which each rule's error is bounded, and
# log(8 / (rho^22 (rho - 1))) for each.
_RHO = 1.0 + np.geomspace(1e-3, 1e4, 400)
_LOG_RHO_FACTOR = math.log(8.0) - KRONROD_DEGREE * np.log(_RHO) - np.log(_RHO - 1.0)

_MAX_DEPTH = 60
_MAX_RULES = 1000


def kronrod_rule(lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """(points, wk): the 15 nodes of the rule on [lo, hi] and its weights."""
    half = 0.5 * (hi - lo)
    return 0.5 * (lo + hi) + half * _GK_NODES, half * _GK_WK


def bernstein_box(lo: float, hi: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(left, right, height), one entry per rho tried, of the rectangle
    [left, right] x [-height, height] around E_rho of [lo, hi]: the ellipse
    with foci lo and hi whose semi-axes sum to rho times the half-width."""
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    reach = 0.5 * half * (_RHO + 1.0 / _RHO)
    return centre - reach, centre + reach, 0.5 * half * (_RHO - 1.0 / _RHO)


def kronrod_bound(lo: float, hi: float, log_m: np.ndarray) -> float:
    """Proven error of the 15-point rule on [lo, hi] for an integrand
    analytic inside each E_rho of bernstein_box, with norm at most
    M = exp(log_m[j]) there for the j-th rho: the least over rho of
    8 h M rho^-22 / (rho - 1), h the half-width.  The Chebyshev truncation
    of degree 22 errs by at most 2 M rho^-22 / (rho - 1) on [lo, hi], also
    in the L1 norm of a vector integrand, and the rule integrates it exactly
    with positive weights summing to 2h (Trefethen, Approximation Theory and
    Approximation Practice, Thms 8.2 and 19.3).  A bound past the float range
    is inf.
    """
    try:
        return math.exp(float(np.min(math.log(0.5 * (hi - lo)) + log_m + _LOG_RHO_FACTOR)))
    except OverflowError:
        return math.inf


def adaptive_gauss_kronrod(fn: Callable, a: float, b: float, abs_tol: float, bound: Callable) -> float:
    """Integrate over [a, b] on a partition fixed before any node is evaluated.

    bound(lo, hi) is a proven error of the 15-point rule on [lo, hi].  The
    interval with the largest bound is bisected until the bounds sum to at
    most abs_tol; past _MAX_RULES intervals or depth _MAX_DEPTH, or at an
    infinite bound, QuadratureError is raised and fn is never called.  Then
    fn(points, wk) (kronrod_rule's) is called once per interval, left to
    right: the integrand accumulates sum_i wk[i] f(points[i]) itself, and its
    return value is ignored.  Returns the summed bounds.
    """
    if not b > a:
        raise ValueError("need b > a")
    if not abs_tol > 0.0:
        raise ValueError("abs_tol must be positive")
    heap = [(-bound(a, b), a, b, 0)]
    while not (err := math.fsum(-e for e, _, _, _ in heap)) <= abs_tol:  # nan too
        e, lo, hi, depth = heapq.heappop(heap)
        if depth >= _MAX_DEPTH or len(heap) >= _MAX_RULES or e == -math.inf:
            raise QuadratureError(
                f"tolerance {abs_tol} unmet on [{a}, {b}] by {len(heap) + 1} rules: "
                f"the rule on [{lo}, {hi}] at depth {depth} bounds {-e:.3g}"
            )
        mid = 0.5 * (lo + hi)
        for c_lo, c_hi in ((lo, mid), (mid, hi)):
            heapq.heappush(heap, (-bound(c_lo, c_hi), c_lo, c_hi, depth + 1))
    for _, lo, hi, _ in sorted(heap, key=itemgetter(1)):
        fn(*kronrod_rule(lo, hi))
    return err
