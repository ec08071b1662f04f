"""Finite-support integer distributions: exact convolution, negation,
empirical histograms, the size cap on every window, and total variation with
tracked truncation slack.  pmf windows are sized in special.window_ends.

An :class:`IntegerDist` is the common currency for exact computation: a
probability vector on a contiguous integer window plus the mass that the
window does not capture.  Total variation is always reported as an interval
(value, slack) so truncation can never manufacture a false pass when the
upper endpoint is compared against a bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels

MASS_ATOL = 1e-9         # |sum + tail - 1| tolerated on construction
DIRECT_CONV_LIMIT = 4096  # windows below this convolve by the direct kernel
WINDOW_CAP = 10**7        # points in any pmf span, convolution output or sample batch
# Points that one numpy pass over packed windows holds live: a lockstep chunk
# of skellam's walk, a block of its tail extraction, a tv_rows block.
PASS_POINTS = 1 << 15
SIM_BLOCK_CELLS = 10**7   # draws that one block of a Monte Carlo simulation holds


class ResourceLimitError(RuntimeError):
    """An exact computation would exceed a declared size cap."""


@dataclass
class IntegerDist:
    """Probability vector on the window [min_support, min_support + len - 1].

    tail_mass is the probability not captured by the window; the captured
    mass plus the tail must account for the whole distribution.
    """

    min_support: int
    probabilities: np.ndarray
    tail_mass: float = 0.0

    def __post_init__(self):
        p = np.ascontiguousarray(np.asarray(self.probabilities, dtype=np.float64))
        if p.ndim != 1 or p.size == 0:
            raise ValueError("probabilities must be a non-empty 1-D vector")
        # FFT round-off may leave values like -1e-17; anything worse is a bug.
        if np.any(p < -1e-12):
            raise ValueError("negative probability in distribution window")
        np.maximum(p, 0.0, out=p)
        self.probabilities = p
        self.min_support = int(self.min_support)
        self.tail_mass = float(self.tail_mass)
        if not 0.0 <= self.tail_mass < 1.0:
            raise ValueError(f"tail_mass {self.tail_mass} outside [0, 1)")
        total = float(p.sum()) + self.tail_mass
        if abs(total - 1.0) > MASS_ATOL:
            raise ValueError(f"window mass + tail = {total}, not 1 within {MASS_ATOL}")

    @classmethod
    def point_mass(cls, k: int) -> "IntegerDist":
        return cls(k, np.ones(1))

    @property
    def max_support(self) -> int:
        return self.min_support + self.probabilities.size - 1

    def support(self) -> np.ndarray:
        return np.arange(self.min_support, self.max_support + 1)

    def prob(self, k: int) -> float:
        if self.min_support <= k <= self.max_support:
            return float(self.probabilities[k - self.min_support])
        return 0.0

    def window_mass(self) -> float:
        return float(self.probabilities.sum())

    def mean(self) -> float:
        return float(self.probabilities @ self.support())

    def variance(self) -> float:
        m = self.mean()
        return float(self.probabilities @ (self.support() - m) ** 2)


@dataclass(frozen=True)
class TVInterval:
    """TV estimate with truncation slack: true TV lies in [value - slack, value + slack]."""

    value: float
    slack: float

    @property
    def upper(self) -> float:
        return self.value + self.slack

    @property
    def lower(self) -> float:
        return max(0.0, self.value - self.slack)


def tv_distance(d1: IntegerDist, d2: IntegerDist) -> TVInterval:
    """Total variation over the union window, with slack from the tails."""
    lo1, p1, lo2, p2 = d1.min_support, d1.probabilities, d2.min_support, d2.probabilities
    lo = min(lo1, lo2)
    hi = max(lo1 + p1.size, lo2 + p2.size)
    p = np.zeros(hi - lo)
    q = np.zeros(hi - lo)
    p[lo1 - lo : lo1 - lo + p1.size] = p1
    q[lo2 - lo : lo2 - lo + p2.size] = p2
    value = 0.5 * float(np.abs(p - q).sum())
    slack = 0.5 * (d1.tail_mass + d2.tail_mass)
    return TVInterval(value, slack)


def tv_rows(values: np.ndarray, lo1, start1, size1, lo2, start2, size2) -> np.ndarray:
    """tv_distance's value, bit for bit, of each pair of windows packed in
    values: p of pair i is values[start1[i] : start1[i] + size1[i]] on
    lo1[i].., and q is values[start2[i] : start2[i] + size2[i]] on lo2[i]...

    Each pair's |p - q| is laid out on its union window, and the pairs of
    one union length L are summed as the rows of one C-contiguous (m, L)
    array: numpy sums each such row as it sums a 1-D array of length L,
    where a zero-padded or reduceat sum would associate differently.  A
    block of about PASS_POINTS union-window points is laid out at a time.
    """
    lo = np.minimum(lo1, lo2)
    length = np.maximum(lo1 + size1, lo2 + size2) - lo
    order = np.argsort(length, kind="stable")
    lengths = length[order]
    out = np.empty(order.size)
    for i, j in blocks(lengths, PASS_POINTS):
        sel, span = order[i:j], lengths[i:j]
        pair = np.repeat(np.arange(sel.size), span)
        offset = np.cumsum(span) - span
        k = np.arange(pair.size) - offset[pair] + lo[sel][pair]  # the support point
        diff = np.abs(_placed(values, k, pair, lo1[sel], start1[sel], size1[sel])
                      - _placed(values, k, pair, lo2[sel], start2[sel], size2[sel]))
        runs = np.flatnonzero(np.diff(span)) + 1
        for a, b in zip([0, *runs.tolist()], [*runs.tolist(), sel.size]):
            rows = diff[offset[a] : offset[a] + (b - a) * span[a]].reshape(b - a, span[a])
            out[sel[a:b]] = rows.sum(axis=1)
    return 0.5 * out


def blocks(sizes: np.ndarray, cap: float):
    """(i, j) of each run of consecutive items i..j - 1 whose sizes sum to
    at most cap, or of one item alone where it is larger."""
    ends = np.cumsum(sizes)
    i = 0
    while i < ends.size:
        j = max(i + 1, int(np.searchsorted(ends, (ends[i - 1] if i else 0) + cap, "right")))
        yield i, j
        i = j


def _placed(values, k, pair, lo, start, size) -> np.ndarray:
    """The value at support point k[j] of window pair[j] (lo, start, size
    per window), 0 off the window."""
    at = k - lo[pair]
    inside = (at >= 0) & (at < size[pair])
    return np.where(inside, values[np.where(inside, start[pair] + at, 0)], 0.0)


def convolve(d1: IntegerDist, d2: IntegerDist) -> IntegerDist:
    """Exact law of the sum of independent draws; tail masses combine."""
    n1, n2 = d1.probabilities.size, d2.probabilities.size
    n_out = n1 + n2 - 1
    check_window_size(n_out, "convolution window")
    if max(n1, n2) < DIRECT_CONV_LIMIT:
        probs = kernels.convolve(d1.probabilities, d2.probabilities)
    else:
        probs = _fft_convolve(d1.probabilities, d2.probabilities)
    # mass not captured: 1 - (1 - t1)(1 - t2)
    tail = d1.tail_mass + d2.tail_mass - d1.tail_mass * d2.tail_mass
    return IntegerDist(d1.min_support + d2.min_support, probs, tail)


def check_window_size(points, what: str) -> None:
    """Refuse a window, span or batch of more than WINDOW_CAP points; points
    may be a float, and an infinite or nan count is refused too."""
    if not points <= WINDOW_CAP:
        raise ResourceLimitError(f"{what} of {points:.0f} points exceeds cap {WINDOW_CAP}")


def _fft_convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n_out = a.size + b.size - 1
    n_fft = 1 << (n_out - 1).bit_length()
    out = np.fft.irfft(np.fft.rfft(a, n_fft) * np.fft.rfft(b, n_fft), n_fft)[:n_out]
    return np.maximum(out, 0.0)


def negate(d: IntegerDist) -> IntegerDist:
    """Law of -X: reflected window."""
    return IntegerDist(-d.max_support, d.probabilities[::-1].copy(), d.tail_mass)


def empirical_dist(samples) -> IntegerDist:
    """Normalized histogram of integer samples; no tail mass."""
    arr = np.asarray(samples)
    if arr.size == 0:
        raise ValueError("cannot build an empirical distribution from no samples")
    arr = arr.astype(np.int64)
    lo = int(arr.min())
    counts = np.bincount(arr - lo)
    return IntegerDist(lo, counts / arr.size, 0.0)
