"""The integer-valued law of a difference of two independent Poisson counts.

A pmf value at one point runs in log scale with a single final
exponentiation, so large rates stay inside float64.  Below |k| = 64 it is
the tilt (k/2) log(l1/l2) plus special's log Bessel value; from |k| = 64 on
it is Olver's uniform expansion with the tilt folded in
(special.log_skellam_debye).  Both are O(1) work at any rate, and the
second has no cancellation between terms of the size of the rates.  A
window takes one such value at its centre and steps outward by ratios
p(k +- 1) / p(k) = (l1/l2)^(+-1/2) I_|k+-1|(x) / I_|k|(x), x = 2 sqrt(l1 l2),
with the Bessel ratios from Miller's backward recurrence
(special.backward_ratios).  `windows` builds the windows of many rate pairs
at once, in lockstep numpy arrays; a pair's window depends on that pair
alone, and `to_dist` is a batch of one.  Zero rates are admitted only
through the explicit `extended` flag: they arise as continuity limits (the
law degenerates to a single Poisson or a point mass) and downstream models
can produce them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import special
from .dists import IntegerDist, check_window_size, greedy_window, negate, span_values


@dataclass(frozen=True)
class SkellamParams:
    """Rate pair (lambda1, lambda2); extended=True admits zero rates."""

    lambda1: float
    lambda2: float
    extended: bool = False

    def __post_init__(self):
        for name, v in (("lambda1", self.lambda1), ("lambda2", self.lambda2)):
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ValueError(f"{name} must be a finite real")
            if v < 0:
                raise ValueError(f"{name} must be non-negative")
            if v == 0 and not self.extended:
                raise ValueError(
                    f"{name} = 0 requires the extended zero-rate convention"
                )
        object.__setattr__(self, "lambda1", float(self.lambda1))
        object.__setattr__(self, "lambda2", float(self.lambda2))

    @property
    def total(self) -> float:
        return self.lambda1 + self.lambda2


# pmf's domain.  Orders up to 2**53 are exact as floats, as Olver's
# expansion takes them.  A value costs O(1) at any rate, but below |k| = 64
# it subtracts (sqrt(l1) - sqrt(l2))^2, whose square roots round in
# proportion to sqrt of the rates: far-tail values (near 1e-270) lose about
# 3e-11 relative at rates 1e8 and 2.3e-10 at 1e10 against mpmath.  MAX_RATE
# holds that loss at its size at 1e10.
MAX_ABS_K = 2**53
MAX_RATE = 1e10


def _log_pmf_array(params: SkellamParams, ks) -> np.ndarray:
    """log P(X = k) for each integer k in ks; -inf where the mass is exactly zero."""
    ks = np.asarray(ks, dtype=np.int64)
    l1, l2 = params.lambda1, params.lambda2
    if l2 == 0.0:
        return special.log_poisson_pmf(l1, ks)
    if l1 == 0.0:
        return special.log_poisson_pmf(l2, -ks)
    return _log_pmf_rows(np.full(ks.shape, l1), np.full(ks.shape, l2), ks)


def _log_pmf_rows(l1: np.ndarray, l2: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """log P(X = ks[i]) of each positive rate pair (l1[i], l2[i]); each value
    depends on its own row alone.

    Below |k| = 64, the tilt plus special's log Bessel value (series or
    seeded ratios); from 64 on, Olver's expansion with the tilt folded in.
    """
    out = np.empty(ks.shape)
    far = np.abs(ks) >= special.DEBYE_MIN_ORDER
    if far.any():
        # P(X = k) for k < 0 is the Skellam(l2, l1) pmf at -k.
        kf, a, b = ks[far], l1[far], l2[far]
        pos = kf >= 0
        out[far] = special.log_skellam_debye(np.abs(kf), np.where(pos, a, b), np.where(pos, b, a))
    near = ~far
    if near.any():
        # log pmf = (k/2) log(l1/l2) - (sqrt(l1) - sqrt(l2))^2 + log ive_|k|(2 sqrt(l1 l2))
        l1, l2, ks = l1[near], l2[near], ks[near]
        s1, s2 = np.sqrt(l1), np.sqrt(l2)
        x = 2.0 * s1 * s2
        log_l1 = np.fromiter(map(math.log, l1.tolist()), float, l1.size)
        log_l2 = np.fromiter(map(math.log, l2.tolist()), float, l2.size)
        tilt = 0.5 * ks * (log_l1 - log_l2)
        root_gap = s1 - s2
        out[near] = tilt - root_gap * root_gap + special.log_scaled_iv_pairs(ks, x)
    return out


def log_pmf(params: SkellamParams, k: int) -> float:
    """log P(X = k); -inf where the mass is exactly zero.

    Takes |k| <= MAX_ABS_K and rates up to MAX_RATE; ValueError beyond.
    """
    k = int(k)
    if abs(k) > MAX_ABS_K:
        raise ValueError(f"|k| = {abs(k)} is above the largest supported |k|, 2**53")
    for name, rate in (("lambda1", params.lambda1), ("lambda2", params.lambda2)):
        if rate > MAX_RATE:
            raise ValueError(f"{name} = {rate:g} is above the largest supported pmf rate, {MAX_RATE:g}")
    return float(_log_pmf_array(params, [k])[0])


def pmf(params: SkellamParams, k: int) -> float:
    return math.exp(log_pmf(params, k))


def moments(params: SkellamParams) -> tuple[float, float]:
    """(mean, variance) = (lambda1 - lambda2, lambda1 + lambda2)."""
    return params.lambda1 - params.lambda2, params.lambda1 + params.lambda2


# Rows of a windows() batch step in lockstep chunks of at most _CHUNK_CELLS
# span points; a chunk of fewer than _LOCKSTEP_ROWS rows steps row by row on
# Python floats.  On the Haar sweep's windows (scales 1-9) the two break even
# near 16-20 rows; at 24 the lockstep costs 0.3-0.8 of the per-row time.
_CHUNK_CELLS = 1 << 15
_LOCKSTEP_ROWS = 24


def to_dist(params: SkellamParams, tail_tol: float = 1e-12) -> IntegerDist:
    """Window around the mean capturing at least 1 - tail_tol of the mass.

    windows() of the one rate pair; a zero rate leaves a
    special.poisson_dist window.  Raises ResourceLimitError when the span
    would exceed dists.WINDOW_CAP points.
    """
    if not 0.0 < tail_tol < 1.0:
        raise ValueError("tail_tol must lie in (0, 1)")
    l1, l2 = params.lambda1, params.lambda2
    if l1 == 0.0 and l2 == 0.0:
        return IntegerDist.point_mass(0)
    if l2 == 0.0:
        return special.poisson_dist(l1, tail_tol)
    if l1 == 0.0:
        return negate(special.poisson_dist(l2, tail_tol))
    return IntegerDist(*_window(l1, l2, tail_tol))


def pmf_window(params: SkellamParams, lo: int, hi: int) -> np.ndarray:
    """P(X = k) for k = lo..hi from to_dist's source: wherever to_dist's
    window reaches, bit for bit its values."""
    l1, l2 = params.lambda1, params.lambda2
    if l1 > 0.0 and l2 > 0.0:
        center = int(round(l1 - l2))
        return span_values(_skellam_span(l1, l2, center), center, math.sqrt(l1 + l2), lo, hi)
    if l1 > 0.0:
        return special.poisson_values(l1, lo, hi)
    if l2 > 0.0:
        return special.poisson_values(l2, -hi, -lo)[::-1].copy()
    ks = np.arange(lo, hi + 1)
    return (ks == 0).astype(np.float64)


def windows(l1, l2, tail_tol: float = 1e-12) -> list[tuple[int, np.ndarray, float]]:
    """(lo, p, tail) of each positive rate pair (l1[i], l2[i]), as to_dist.

    p[j] = P(X = lo + j) on the greedy window of dists.greedy_window: centre
    round(l1 - l2), span +-(8 sd + 12), left point on a tie, Kahan total,
    24-sd width cap.  The value at the centre is pmf's; the others are
    ratio steps from it.  Rows run in lockstep numpy chunks; a row whose
    expansion runs off its first span, or a chunk too small to pay for numpy
    calls, goes row by row on Python floats.  Every row gets the same bits
    either way.
    """
    if not 0.0 < tail_tol < 1.0:
        raise ValueError("tail_tol must lie in (0, 1)")
    l1 = np.asarray(l1, dtype=np.float64)
    l2 = np.asarray(l2, dtype=np.float64)
    if l1.ndim != 1 or l1.shape != l2.shape:
        raise ValueError("l1 and l2 must be 1-D arrays of one length")
    if not np.all(np.isfinite(l1) & np.isfinite(l2) & (l1 > 0.0) & (l2 > 0.0)):
        raise ValueError("windows() takes finite positive rates")
    if l1.size:
        # On floats: int64 spans of absurd rates would wrap round.
        check_window_size(2 * int(8.0 * math.sqrt(float(np.max(l1 + l2)))) + 25, "pmf span")
    rows = _Rows(l1, l2)
    out: list = [None] * l1.size
    for idx in _chunks(rows):
        if idx.size >= _LOCKSTEP_ROWS:
            for i, w in zip(idx.tolist(), _lockstep(rows.take(idx), tail_tol)):
                out[i] = w
        for i in idx.tolist():
            if out[i] is None:
                out[i] = _window(float(l1[i]), float(l2[i]), tail_tol)
    return out


class _Rows:
    """Per-row constants of a windows() batch, as arrays: the same
    expressions, operation for operation, as _window and _skellam_span."""

    def __init__(self, l1, l2):
        self.l1, self.l2 = l1, l2
        s1, s2 = np.sqrt(l1), np.sqrt(l2)
        self.x = 2.0 * s1 * s2
        self.rho, self.sigma = s1 / s2, s2 / s1
        self.half = (8.0 * np.sqrt(l1 + l2)).astype(np.int64) + 12
        self.center = np.rint(l1 - l2).astype(np.int64)
        # The first span a..b walks by the ratios of orders lo_ord < m <= hi_ord,
        # whose recurrence starts at m_top (_bessel_ratios).
        a, b = self.center - self.half, self.center + self.half
        self.lo_ord = np.where((a <= 0) & (b >= 0), 0, np.minimum(np.abs(a), np.abs(b)))
        self.hi_ord = np.maximum(np.abs(a), np.abs(b))
        self.m_top = special.ratio_start(self.hi_ord, self.x)

    def take(self, idx) -> "_Rows":
        sub = object.__new__(_Rows)
        for key, value in vars(self).items():
            setattr(sub, key, value[idx])
        return sub


def _chunks(rows: _Rows):
    """Index arrays of the rows in order of m_top, each chunk holding at most
    _CHUNK_CELLS points of its padded ratio and value arrays."""
    order = np.argsort(rows.m_top, kind="stable")
    top, low = rows.m_top[order], rows.lo_ord[order]
    span = 2 * rows.half[order] + 1
    reach = _CHUNK_CELLS // 25 + 1  # spans are at least 25 points
    start = 0
    while start < order.size:
        end = min(order.size, start + reach)
        width = np.maximum(
            top[start:end] - np.minimum.accumulate(low[start:end]),
            np.maximum.accumulate(span[start:end]),
        )
        over = np.arange(1, end - start + 1) * width > _CHUNK_CELLS
        stop = start + (max(1, int(over.argmax())) if over.any() else end - start)
        yield order[start:stop]
        start = stop


def _lockstep(rows: _Rows, tail_tol: float) -> list:
    """windows() of one chunk (rows in order of m_top), a step at a time
    for all rows in numpy arrays.

    Returns (lo, p, tail) per row, or None for a row windows() must redo on
    Python floats.
    """
    n = rows.x.size
    # Bessel ratios by absolute order: ratio[m - g0 - 1, i] = r_m of row i
    # for every order its walk reads, as _bessel_ratios gives them.
    g0, g1 = int(rows.lo_ord.min()), int(rows.hi_ord.max())
    ratio = special.backward_ratios_lockstep(rows.x, rows.m_top, g0, g1)
    # values[i, big + j] = p(center + j).  A step from k to k + side crosses
    # to order |k + side|: times tilt * r_m on the way up, tilt / r_m on the
    # way down, m the larger order.  cumprod multiplies in sequence, exactly
    # as the walk on Python floats does.  Padding past a row's own span is
    # never read.
    big = int(rows.half.max())
    anchor = np.fromiter(
        map(math.exp, _log_pmf_rows(rows.l1, rows.l2, rows.center).tolist()), float, n
    )
    values = np.empty((n, 2 * big + 1))
    factors = np.empty((n, big + 1))  # the anchor, then one factor per step
    factors[:, 0] = anchor
    col = np.arange(n)[:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for side, tilt, out in ((1, rows.rho, values[:, big:]), (-1, rows.sigma, values[:, big::-1])):
            k = np.abs(rows.center[:, None] + side * np.arange(big + 1))
            up = k[:, 1:] > k[:, :-1]
            r_m = ratio[np.clip(np.maximum(k[:, 1:], k[:, :-1]) - g0 - 1, 0, g1 - g0 - 1), col]
            np.multiply(tilt[:, None], r_m, out=factors[:, 1:], where=up)
            np.divide(tilt[:, None], r_m, out=factors[:, 1:], where=~up)
            np.cumprod(factors, axis=1, out=out)
    del ratio, factors, r_m, k, up
    return _greedy_lockstep(rows, values, big, anchor, tail_tol)


def _greedy_lockstep(rows: _Rows, values, big: int, anchor, tail_tol: float) -> list:
    """dists.greedy_window over each row of values (centre in column big).

    Where a row's values fall away from the centre on both sides, the
    greedy expansion takes them in the order of a stable descending sort of
    the left values, then the right ones: the larger next value first, the
    left one on a tie.  So only the Kahan total steps, for all rows at once.
    A row that is not monotone, or whose expansion runs off its span (the
    24-sd width cap lies beyond it), is left as None.
    """
    n = values.shape[0]
    steps = 2 * big
    half = rows.half[:, None]
    merged = np.empty((n, steps))  # p(c - 1), p(c - 2), ..., then p(c + 1), ...
    merged[:, :big] = values[:, big - 1 :: -1]
    merged[:, big:] = values[:, big + 1 :]
    pad = np.arange(big) >= half
    merged[:, :big][pad] = -1.0  # sorts after every value
    merged[:, big:][pad] = -1.0
    ok = np.isfinite(merged).all(axis=1) & np.isfinite(anchor)
    with np.errstate(invalid="ignore"):
        falls = np.diff(merged, axis=1) <= 0.0
    ok &= falls[:, : big - 1].all(axis=1) & falls[:, big:].all(axis=1)
    del falls
    order = np.argsort(-merged, axis=1, kind="stable")
    taken = np.take_along_axis(merged, order, axis=1).T.copy()  # taken[t]: step t's value
    del merged
    # n_left[i, t]: left values among row i's first t steps.  After t steps
    # the expansion is at its span's end (greedy_window would extend it), or
    # the next value, and with it every later one, is 0.
    n_left = np.zeros((n, steps + 1), dtype=np.int32)
    np.cumsum(order < big, axis=1, out=n_left[:, 1:])
    del order
    t = np.arange(steps + 1)
    off_span = (n_left == half) | (t - n_left == half)
    stop = off_span.argmax(axis=1)
    zero = taken == 0.0
    stop = np.where(zero.any(axis=0), np.minimum(stop, zero.argmax(axis=0)), stop)
    del zero
    target = 1.0 - tail_tol
    totals = np.empty((steps + 1, n))
    totals[0] = total = anchor
    comp = np.zeros(n)
    last = steps
    for k in range(steps):
        if k % 16 == 0 and np.all((total >= target) | (k >= stop)):
            last = k
            break
        y = taken[k] - comp
        s = total + y
        comp = (s - total) - y
        totals[k + 1] = total = s
    reached = totals[: last + 1] >= target
    stop = np.where(reached.any(axis=0), np.minimum(reached.argmax(axis=0), stop), stop)
    i = np.arange(n)
    total = totals[stop, i]
    ok &= (total >= target) | ~off_span[i, stop]
    left = n_left[i, stop]
    lo = rows.center - left
    first = big - left
    return [
        (lo_i, values[i, a : a + k + 1], max(0.0, 1.0 - t_i)) if good else None
        for i, (good, lo_i, a, k, t_i) in enumerate(zip(
            ok.tolist(), lo.tolist(), first.tolist(), stop.tolist(), total.tolist()
        ))
    ]


def _window(l1: float, l2: float, tail_tol: float) -> tuple[int, np.ndarray, float]:
    """One row of windows(), on Python floats."""
    center = int(round(l1 - l2))
    return greedy_window(_skellam_span(l1, l2, center), center, math.sqrt(l1 + l2), tail_tol)


def _bessel_ratios(x: float, a: int, b: int) -> tuple[int, list[float]]:
    """(lo, r) with r[m - lo - 1] = I_m(x) / I_{m-1}(x) for lo < m <= hi,
    the orders whose ratios a walk across a..b steps by: the backward
    recurrence runs from special.ratio_start(hi, x) down to lo + 1 only."""
    lo = 0 if a <= 0 <= b else min(abs(a), abs(b))
    top = special.ratio_start(max(abs(a), abs(b)), x)
    return lo, special.backward_ratios(x, top, lo, 0.0)


def _skellam_span(l1: float, l2: float, center: int):
    """span(a, b) giving the Skellam(l1, l2) pmf on a..b by ratio steps.

    The first span holds center, whose value is pmf's and is walked outward:
    p(k + 1) = p(k) * (rho * r_{k+1}) for k >= 0, p(k) * (rho / r_|k|) below,
    and p(k - 1) = p(k) * (sigma * r_{|k|+1}) for k <= 0, p(k) * (sigma / r_k)
    above, with rho = sqrt(l1) / sqrt(l2) and sigma = sqrt(l2) / sqrt(l1)
    (neither overflows where l1 / l2 would).  Each later span adjoins
    the ones before and continues the walk from that end's value, with
    ratios from a recurrence of its own.
    """
    s1, s2 = math.sqrt(l1), math.sqrt(l2)
    x = 2.0 * s1 * s2
    rho, sigma = s1 / s2, s2 / s1
    p = q = 0.0
    lo = hi = center  # walked k range; p = pmf(lo) and q = pmf(hi)
    middle = None  # the centre's value, returned by the first span only

    def span(a: int, b: int) -> list[float]:
        nonlocal p, q, lo, hi, middle
        if middle is None:  # first span: greedy_window has checked its size
            p = q = math.exp(float(_log_pmf_array(SkellamParams(l1, l2), [center])[0]))
            middle = [p]
        left, right = [], []  # a..lo - 1 reversed, and hi + 1..b
        # One recurrence over the first span (a < lo = hi < b), one over
        # each later span and the end it adjoins.
        base, r = _bessel_ratios(x, min(a, hi), max(b, lo))
        if a < lo:
            for k in range(lo, a, -1):
                p *= sigma * r[-k - base] if k <= 0 else sigma / r[k - base - 1]
                left.append(p)
        if b > hi:
            for k in range(hi, b):
                q *= rho / r[-k - base - 1] if k < 0 else rho * r[k - base]
                right.append(q)
        lo, hi = min(lo, a), max(hi, b)
        values = left[::-1] + middle + right
        middle = []
        if len(values) != b - a + 1:
            raise ValueError(f"span {a}..{b} does not adjoin the walked {lo}..{hi}")
        return values

    return span


def cdf(params: SkellamParams, k: int, tail_tol: float = 1e-12) -> float:
    """P(X <= k), accurate to within tail_tol."""
    d = to_dist(params, tail_tol)
    if k < d.min_support:
        return 0.0
    if k >= d.max_support:
        return min(1.0, d.window_mass() + d.tail_mass)
    return float(d.probabilities[: k - d.min_support + 1].sum())


def sample(params: SkellamParams, rng: np.random.Generator, count: int) -> np.ndarray:
    """Difference of two independent Poisson draws per sample; count <= 10^7."""
    if count < 0:
        raise ValueError("count must be non-negative")
    check_window_size(count, "sample")
    a = rng.poisson(params.lambda1, count).astype(np.int64)
    b = rng.poisson(params.lambda2, count).astype(np.int64)
    return a - b


def max_pmf_bound(params: SkellamParams) -> float:
    """exp(-(l1+l2)) * I_0(l1+l2): a ceiling for every pmf value."""
    return special.bessel_i(0, params.total, scaled=True)
