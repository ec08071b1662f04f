"""The integer-valued law of a difference of two independent Poisson counts.

A pmf value at one point runs in log scale with a single final
exponentiation, so large rates stay inside float64.  Below |k| = 64 it is
the tilt (k/2) log(l1/l2) plus special's log Bessel value; from |k| = 64 on
it is Olver's uniform expansion with the tilt folded in
(special.log_skellam_debye).  Both are O(1) work at any rate, with no
cancellation between terms of the size of the rates.  A window's ends come
from special.window_ends, Chernoff's bound, before any value is built; it
takes one pmf value at its centre and walks outward once by ratios
p(k +- 1) / p(k) = (l1/l2)^(+-1/2) I_|k+-1|(x) / I_|k|(x), x = 2 sqrt(l1 l2),
with the Bessel ratios from Miller's backward recurrence
(special.backward_ratios_lockstep).  `windows` builds the windows of many
rate pairs at once, packed in one array: the ends of all rows first, then one
walk over given ends, whose positive pairs step in lockstep numpy chunks, one
cumprod along each window; a pair's window depends on that pair alone.
`to_dist` is a batch of one pair, and `pmf_window` the same walk over any
range.
Zero rates are admitted only through the explicit `extended` flag: they
arise as continuity limits (the law degenerates to a single Poisson or a
point mass) and downstream models can produce them.  The walk takes them as
rows like any other: a Poisson row is special's Poisson walk from the mode,
reflected where l1 = 0, and a row of two zero rates the point mass at 0.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import special
from .dists import PASS_POINTS, IntegerDist, blocks, check_window_size


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
# expansion takes them.  A value costs O(1) at any rate, and no two of its
# terms of the size of the rates cancel.  Its error is then mostly the
# rounding of log p, which exp carries into p: 1.1e-13 relative where
# log p is near -700.  Against mpmath, far-tail values below |k| = 64 at
# rates up to 1e10 are within 1e-12 relative (tests/test_skellam.py);
# MAX_RATE is the largest rate that check covers.
MAX_ABS_K = 2**53
MAX_RATE = 1e10


def _log_pmf_at(l1: float, l2: float, k: int) -> float:
    """log P(X = k); -inf where the mass is exactly zero.  A zero rate takes
    special.log_poisson_pmf; a positive pair is _log_pmf_rows on one row."""
    if l1 == 0.0 or l2 == 0.0:
        return special.log_poisson_pmf(l1, k) if l2 == 0.0 else special.log_poisson_pmf(l2, -k)
    return float(_log_pmf_rows(np.array([l1]), np.array([l2]), np.array([k]))[0])


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
        # log pmf = (k/2) log(l1/l2) - (sqrt(l1) - sqrt(l2))^2 + log ive_|k|(2 sqrt(l1 l2)),
        # with the root gap as (l1 - l2) / (sqrt(l1) + sqrt(l2)), so no two
        # terms of the size of the rates cancel; swapping the rates only flips
        # signs, so pmf(l1, l2, k) and pmf(l2, l1, -k) agree bit for bit.
        l1, l2, ks = l1[near], l2[near], ks[near]
        s1, s2 = np.sqrt(l1), np.sqrt(l2)
        x = 2.0 * s1 * s2
        big, small = np.maximum(l1, l2).tolist(), np.minimum(l1, l2).tolist()
        log_ratio = np.fromiter(map(_log_rate_ratio, big, small), float, l1.size)
        tilt = 0.5 * ks * np.where(l1 >= l2, log_ratio, -log_ratio)
        root_gap = (l1 - l2) / (s1 + s2)
        out[near] = tilt - root_gap * root_gap + special.log_scaled_iv_pairs(ks, x)
    return out


def _log_rate_ratio(big: float, small: float) -> float:
    """log(big / small) for big >= small > 0, as log1p of the relative gap
    where that is finite."""
    gap = (big - small) / small
    return math.log1p(gap) if gap < math.inf else math.log(big) - math.log(small)


def log_pmf(params: SkellamParams, k: int) -> float:
    """log P(X = k); -inf where the mass is exactly zero.

    Takes an integer k, |k| <= MAX_ABS_K, and rates up to MAX_RATE;
    ValueError beyond.
    """
    k = special.as_int(k, "k")
    if abs(k) > MAX_ABS_K:
        raise ValueError(f"|k| = {abs(k)} is above the largest supported |k|, 2**53")
    _check_pmf_rates(params)
    return _log_pmf_at(params.lambda1, params.lambda2, k)


def _check_pmf_rates(params: SkellamParams) -> None:
    for name, rate in (("lambda1", params.lambda1), ("lambda2", params.lambda2)):
        if rate > MAX_RATE:
            raise ValueError(f"{name} = {rate:g} is above the largest supported pmf rate, {MAX_RATE:g}")


def pmf(params: SkellamParams, k: int) -> float:
    return math.exp(log_pmf(params, k))


def moments(params: SkellamParams) -> tuple[float, float]:
    """(mean, variance) = (lambda1 - lambda2, lambda1 + lambda2)."""
    return params.lambda1 - params.lambda2, params.lambda1 + params.lambda2


def to_dist(params: SkellamParams, tail_tol: float = 1e-12) -> IntegerDist:
    """Window around the mean capturing at least 1 - tail_tol of the mass:
    windows() of the one rate pair.  Raises ResourceLimitError when the
    window would exceed dists.WINDOW_CAP points."""
    return IntegerDist(*windows([params.lambda1], [params.lambda2], tail_tol)[0])


def pmf_window(params: SkellamParams, lo: int, hi: int) -> np.ndarray:
    """P(X = k) for integers k = lo..hi (special.as_int) by to_dist's walk
    from the centre, run over the orders from the centre to lo..hi; where
    to_dist's window reaches, within a few units of roundoff of its values."""
    lo, hi = special.as_int(lo, "lo"), special.as_int(hi, "hi")
    _check_pmf_rates(params)
    l1, l2 = np.array([params.lambda1]), np.array([params.lambda2])
    center = _centers(l1, l2).astype(np.int64)
    a, b = min(lo, int(center[0])), max(hi, int(center[0]))
    check_window_size(b - a + 1, "pmf window")
    _, _, values = _walk(l1, l2, center, np.array([a]), np.array([b]))
    return np.array(values[lo - a : hi - a + 1])


def windows(l1, l2, tail_tol: float = 1e-12) -> "Windows":
    """to_dist's window of each finite, non-negative rate pair (l1[i],
    l2[i]), packed in one array: row i is P(X = lo + j) on its window around
    its centre, with tail = max(0, 1 - fsum(p)).

    A positive pair's window is special.window_ends' around round(l1 - l2),
    from one array pass; a pair with one zero rate has
    special.poisson_dist's window of the other, reflected where l1 = 0; a
    pair of zeros has the point mass at 0.  A window past dists.WINDOW_CAP
    is refused before any value is built: the widest positive one, else the
    first zero-rate one.  Then _walk builds every row, and each row gets the
    same bits whatever else is in its batch.  The caller bounds the batch:
    its values are all live at once.
    """
    if not 0.0 < tail_tol < 1.0:
        raise ValueError("tail_tol must lie in (0, 1)")
    l1 = np.asarray(l1, dtype=np.float64)
    l2 = np.asarray(l2, dtype=np.float64)
    if l1.ndim != 1 or l1.shape != l2.shape:
        raise ValueError("l1 and l2 must be 1-D arrays of one length")
    if not np.all(np.isfinite(l1) & np.isfinite(l2) & (l1 >= 0.0) & (l2 >= 0.0)):
        raise ValueError("windows() takes finite non-negative rates")
    center = _centers(l1, l2)
    lo, hi = center.copy(), center.copy()
    positive = (l1 > 0.0) & (l2 > 0.0)
    if positive.any():
        lo[positive], hi[positive] = special.window_ends(center[positive], l1[positive], l2[positive], tail_tol)
        # On floats: the ends of rates far past the cap are infinite.
        check_window_size(float(np.max(hi[positive] - lo[positive])) + 1.0, "pmf window")
    for i in np.flatnonzero(~positive & ((l1 > 0.0) | (l2 > 0.0))).tolist():
        lam = float(max(l1[i], l2[i]))  # the one positive rate
        a, b = special.window_ends(float(int(lam)), lam, 0.0, tail_tol)
        check_window_size(b - a + 1.0, "pmf window")
        lo[i], hi[i] = (a, b) if l2[i] == 0.0 else (-b, -a)
    lo, hi = lo.astype(np.int64), hi.astype(np.int64)
    start, size, values = _walk(l1, l2, center.astype(np.int64), lo, hi)
    return Windows(lo, size, start, _tails(values, start, size), values)


def _centers(l1: np.ndarray, l2: np.ndarray) -> np.ndarray:
    """Each row's centre, as integral floats: round(l1 - l2) for positive
    rates, the Poisson mode int(l1) - int(l2) where a rate is 0."""
    return np.where((l1 > 0.0) & (l2 > 0.0), np.rint(l1 - l2), np.trunc(l1) - np.trunc(l2))


def _walk(l1, l2, center, lo, hi):
    """(start, size, values): row i's pmf on lo[i]..hi[i], lo <= center <=
    hi, is values[start[i] : start[i] + size[i]].

    Positive rows walk from their centre values (pmf's, from one array pass)
    by Bessel ratio steps, in lockstep chunks; a row with one zero rate is
    special._poisson_walk of the other rate, reflected where l1 = 0; a row
    of two zeros is the point mass at 0.
    """
    size = hi - lo + 1
    start = np.cumsum(size) - size
    values = np.empty(int(size.sum()))
    positive = (l1 > 0.0) & (l2 > 0.0)
    sel = np.flatnonzero(positive)
    rows = _Rows(l1[sel], l2[sel], center[sel], lo[sel], hi[sel])
    anchor = special._libm(math.exp, _log_pmf_rows(rows.l1, rows.l2, rows.center))
    for idx in _chunks(rows):
        _lockstep(rows.take(idx), anchor[idx], values, start[sel[idx]])
    for i in np.flatnonzero(~positive).tolist():
        a, b = int(lo[i]), int(hi[i])
        row = values[start[i] : start[i] + size[i]]
        if l2[i] > 0.0:
            row[:] = special._poisson_walk(float(l2[i]), -b, -a)[::-1]
        elif l1[i] > 0.0:
            row[:] = special._poisson_walk(float(l1[i]), a, b)
        else:
            row[:] = np.arange(a, b + 1) == 0
    return start, size, values


class Windows(Sequence):
    """windows()' rows, packed: row i is the window p = values[start[i] :
    start[i] + size[i]] on lo[i].., with tail[i] the mass outside it, and
    self[i] is (lo, p, tail), as to_dist gives them."""

    def __init__(self, lo, size, start, tail, values):
        self.lo, self.size, self.start, self.tail, self.values = lo, size, start, tail, values

    def __len__(self) -> int:
        return self.lo.size

    def __getitem__(self, i):
        a = int(self.start[i])
        return int(self.lo[i]), self.values[a : a + int(self.size[i])], float(self.tail[i])


def _tails(values: np.ndarray, start: np.ndarray, size: np.ndarray) -> np.ndarray:
    """max(0, 1 - fsum(p)) of each row p packed in values in row order.

    fsum gives the correctly rounded exact sum, so fsum of any few floats
    with a row's exact sum has the row's bits.  They come from error-free
    extraction (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31, 2008): with
    sigma = 2^e at least 2^b times every |value|, and every row shorter than
    2^b (b <= 24 under WINDOW_CAP), q = (sigma + v) - sigma and v - q are
    exact, and the q of a row sum exactly in any order.  Each pass leaves
    residuals v - q of at most 2^-53 sigma, so the next takes sigma down by
    2^(b - 53), until no residual is left: three passes on the Haar sweep.
    A block of about dists.PASS_POINTS values is extracted at a time.
    """
    sums = np.empty(size.size)
    for i, j in blocks(size, PASS_POINTS):
        rows = size[i:j]
        block = values[start[i] : start[j - 1] + size[j - 1]]
        bits = int(rows.max()).bit_length()
        sigma = math.ldexp(1.0, math.frexp(float(block.max()))[1] + bits)
        rest, row, parts = block, None, []  # row: each residual's row, once some are dropped
        while rest.size and sigma > 0.0:  # sigma reaches 0 only past a non-finite value
            q = sigma + rest
            q -= sigma
            parts.append(np.add.reduceat(q, np.cumsum(rows) - rows) if row is None
                         else np.bincount(row, q, rows.size))
            rest = rest - q
            kept = rest != 0.0
            if not kept.all():
                row = np.repeat(np.arange(rows.size), rows) if row is None else row
                rest, row = rest[kept], row[kept]
            sigma = math.ldexp(sigma, bits - 53)
        sums[i:j] = list(map(math.fsum, zip(*(part.tolist() for part in parts))))
    tails = 1.0 - sums
    return np.where(tails > 0.0, tails, 0.0)  # max(0.0, t): 0.0 where t is nan


class _Rows:
    """Per-row constants of _walk's positive rows, as arrays: x = 2 sqrt(l1 l2),
    the tilts rho = sqrt(l1) / sqrt(l2) and sigma = sqrt(l2) / sqrt(l1)
    (neither overflows where l1 / l2 would), and each row's orders."""

    def __init__(self, l1, l2, center, lo, hi):
        self.l1, self.l2 = l1, l2
        s1, s2 = np.sqrt(l1), np.sqrt(l2)
        self.x = 2.0 * s1 * s2
        self.rho, self.sigma = s1 / s2, s2 / s1
        self.center, self.lo, self.hi = center, lo, hi
        # The walk over lo..hi steps by the ratios of orders lo_ord < m <= hi_ord,
        # whose recurrence starts at m_top (special.ratio_start).
        self.lo_ord = np.where((lo <= 0) & (hi >= 0), 0, np.minimum(np.abs(lo), np.abs(hi)))
        self.hi_ord = np.maximum(np.abs(lo), np.abs(hi))
        self.m_top = special.ratio_start(self.hi_ord, self.x)

    def take(self, idx) -> "_Rows":
        sub = object.__new__(_Rows)
        for key, value in vars(self).items():
            setattr(sub, key, value[idx])
        return sub


def _chunks(rows: _Rows):
    """Index arrays of the rows in order of m_top, each chunk holding at most
    dists.PASS_POINTS points of its padded ratio and value arrays."""
    order = np.argsort(rows.m_top, kind="stable")
    top, low = rows.m_top[order], rows.lo_ord[order]
    left, right = (rows.center - rows.lo)[order], (rows.hi - rows.center)[order]
    reach = PASS_POINTS // int((left + right).min() + 1) + 1 if order.size else 0
    start = 0
    while start < order.size:
        end = min(order.size, start + reach)
        width = np.maximum(
            top[start:end] - np.minimum.accumulate(low[start:end]),
            np.maximum.accumulate(left[start:end]) + np.maximum.accumulate(right[start:end]) + 1,
        )
        over = np.arange(1, end - start + 1) * width > PASS_POINTS
        stop = start + (max(1, int(over.argmax())) if over.any() else end - start)
        yield order[start:stop]
        start = stop


def _lockstep(rows: _Rows, anchor: np.ndarray, out: np.ndarray, start: np.ndarray) -> None:
    """The walk of every row of one of _walk's chunks from the centre values
    anchor: row i's window goes to out[start[i]:].  Each side of every row is one cumprod of
    ratio steps."""
    n = rows.x.size
    # Bessel ratios by absolute order: ratio[m - g0 - 1, i] = r_m of row i
    # for every order its walk reads, recurred from m_top.
    g0, g1 = int(rows.lo_ord.min()), int(rows.hi_ord.max())
    ratio = special.backward_ratios_lockstep(rows.x, rows.m_top, g0, g1)
    # values[i, big + j] = p(center + j), big = the longest left walk.  A
    # step from k to k + side crosses to order |k + side|: times tilt * r_m
    # on the way up, tilt / r_m on the way down, m the larger order.
    # cumprod multiplies in sequence, p(k + side) = p(k) * factor, so each
    # value depends on its own row alone.  Padding past a row's own window
    # is never read.
    left, right = rows.center - rows.lo, rows.hi - rows.center
    big, steps = int(left.max()), max(int(left.max()), int(right.max()))
    values = np.empty((n, big + int(right.max()) + 1))
    factors = np.empty((n, steps + 1))  # the anchor, then one factor per step
    factors[:, 0] = anchor
    col = np.arange(n)[:, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for side, tilt, half in ((1, rows.rho, values[:, big:]), (-1, rows.sigma, values[:, big::-1])):
            width = half.shape[1]
            k = np.abs(rows.center[:, None] + side * np.arange(width))
            up = k[:, 1:] > k[:, :-1]
            r_m = ratio[np.clip(np.maximum(k[:, 1:], k[:, :-1]) - g0 - 1, 0, g1 - g0 - 1), col]
            f = factors[:, :width]
            np.multiply(tilt[:, None], r_m, out=f[:, 1:], where=up)
            np.divide(tilt[:, None], r_m, out=f[:, 1:], where=~up)
            np.cumprod(f, axis=1, out=half)
    del ratio, factors, r_m, k, up
    offset = np.arange(values.shape[1]) - (big - left)[:, None]  # index in the row's window
    inside = (offset >= 0) & (offset <= (rows.hi - rows.lo)[:, None])
    out[(start[:, None] + offset)[inside]] = values[inside]


def cdf(params: SkellamParams, k: int, tail_tol: float = 1e-12) -> float:
    """P(X <= k) for an integer k (special.as_int), to within tail_tol."""
    k = special.as_int(k, "k")
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
