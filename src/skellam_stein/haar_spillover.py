"""Haar coefficients of Poisson count vectors under one-bin spillover.

Bin i collects Po(f[i]) photons; each photon independently lands one bin
below its origin (index i - 1) with probability p before being read out.
For a window split into a positive half and a negative half, the true
coefficient pos.X - neg.X and its observed counterpart are each a
difference of two independent Poisson sums, so both are Skellam with
closed-form rates.  This module computes both laws, the exact TV between
them, the closed-form bound on that TV, and simulation cross-checks.

A model's four window sums are correctly rounded (math.fsum), so they do
not depend on the order a BLAS build sums in.  The sweep over every dyadic
window is one array pass over all scales: window sums over slices, one
finiteness check and the bounds as arrays, the Skellam windows of every
window whose laws differ, zero rates among them, from one skellam.windows
call (one per _SWEEP_POINTS window points), their TVs from one
dists.tv_rows pass, and its rows as columns.  A single window's verify is
the same engine on a batch of one, so each sweep row equals its verify
report bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dists import SIM_BLOCK_CELLS, TVInterval, blocks, tv_rows
from .jsonwriter import Rows
from .skellam import SkellamParams, windows
from .special import chernoff_level
from .verification import VerificationReport, make_report, report_columns

# Window points that the sweep holds live at once, bounded before any window
# is built; a 2048-bin Gamma(2, 2.5) signal needs about 4e5, so one call.
_SWEEP_POINTS = 1 << 20


def _indicator_vector(name: str, values) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D vector")
    arr = arr.astype(np.int64)
    if not np.all((arr == 0) | (arr == 1)):
        raise ValueError(f"{name} entries must be 0 or 1")
    return arr


@dataclass(frozen=True)
class HaarSpilloverModel:
    """Intensities f, positive/negative half-window indicators, spillover p."""

    f: np.ndarray
    pos: np.ndarray
    neg: np.ndarray
    p: float

    def __post_init__(self):
        object.__setattr__(self, "f", _check_signal(self.f))
        object.__setattr__(self, "pos", _indicator_vector("pos", self.pos))
        object.__setattr__(self, "neg", _indicator_vector("neg", self.neg))
        if not (self.f.size == self.pos.size == self.neg.size):
            raise ValueError("f, pos, neg must share one length")
        if np.any(self.pos * self.neg != 0):
            raise ValueError("pos and neg windows must be disjoint")
        object.__setattr__(self, "p", _check_p(self.p))

    @property
    def n(self) -> int:
        return self.f.size

    @cached_property
    def window_sums(self) -> tuple[float, float, float, float]:
        """(pos.f, neg.f, pos.fs, neg.fs): the window rates before and after
        spillover, with fs the signal one bin up (fs[i] = f[i+1], 0 at the end).

        Each is math.fsum over the selected entries.  Raises ValueError when
        the total rate of the true or the observed coefficient is not finite.
        """
        fs = np.append(self.f[1:], 0.0)
        pos, neg = self.pos != 0, self.neg != 0
        sums = (_fsum(self.f[pos]), _fsum(self.f[neg]), _fsum(fs[pos]), _fsum(fs[neg]))
        _check_rates(
            lambda: f"window (pos bins {_bins(pos)}, neg bins {_bins(neg)})", self.p, *sums
        )
        return sums


def _check_signal(f) -> np.ndarray:
    f = np.asarray(f, dtype=np.float64)
    if f.ndim != 1 or f.size == 0:
        raise ValueError("f must be a non-empty 1-D vector")
    if not np.all(np.isfinite(f)) or np.any(f < 0.0):
        raise ValueError("intensities must be finite and nonnegative")
    return f


def _check_p(p) -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError("spillover probability must lie in [0, 1]")
    return p


def _fsum(values) -> float:
    """Correctly rounded sum; inf where it leaves the float range."""
    try:
        return math.fsum(values.tolist() if isinstance(values, np.ndarray) else values)
    except OverflowError:
        return math.inf


def _bins(selected: np.ndarray) -> str:
    """Indices of the selected bins as runs, e.g. '0-3,8'; 'none' if none."""
    idx = np.flatnonzero(selected)
    if idx.size == 0:
        return "none"
    cut = np.flatnonzero(np.diff(idx) != 1)
    starts, ends = idx[np.r_[0, cut + 1]], idx[np.r_[cut, idx.size - 1]]
    return ",".join(str(a) if a == b else f"{a}-{b}" for a, b in zip(starts, ends))


def _check_rates(window, p: float, pf: float, nf: float, pfs: float, nfs: float) -> None:
    """Refuse a window whose true or observed coefficient has no finite total
    rate; window() names it, and is called only then."""
    for l1, l2 in ((pf, nf), (_mix(p, pf, pfs), _mix(p, nf, nfs))):
        if not math.isfinite(l1 + l2):
            raise ValueError(f"{window()}: total rate {l1!r} + {l2!r} is not finite")


def haar_windows(n: int, scale: int, location: int) -> tuple[np.ndarray, np.ndarray]:
    """Half-window indicators of the dyadic window at (scale, location).

    The window [location * 2^scale, (location+1) * 2^scale) must lie inside
    [0, n); its left half is the positive window, its right half the negative.
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    if location < 0:
        raise ValueError("location must be >= 0")
    width = 1 << scale
    start = location * width
    if start + width > n:
        raise ValueError(
            f"window [{start}, {start + width}) extends past the signal of length {n}"
        )
    pos = np.zeros(n, dtype=np.int64)
    neg = np.zeros(n, dtype=np.int64)
    half = width // 2
    pos[start : start + half] = 1
    neg[start + half : start + width] = 1
    return pos, neg


def load_signal(path) -> np.ndarray:
    """Newline-separated nonnegative decimal intensities; blanks skipped."""
    values = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            text = line.strip()
            if not text:
                continue
            try:
                v = float(text)
            except ValueError:
                raise ValueError(f"line {lineno}: not a number: {text!r}") from None
            if not math.isfinite(v) or v < 0.0:
                raise ValueError(f"line {lineno}: intensity must be finite and nonnegative")
            values.append(v)
    if not values:
        raise ValueError("signal file contains no intensities")
    return np.asarray(values)


def true_coeff_params(model: HaarSpilloverModel) -> SkellamParams:
    pf, nf, _, _ = model.window_sums
    return SkellamParams(pf, nf, extended=True)


def _mix(p: float, a: float, b: float) -> float:
    # (1-p)a + pb, exact (returns a bitwise) when p == 0 or a == b
    if p == 0.0 or a == b:
        return a
    return (1.0 - p) * a + p * b


def observed_coeff_params(model: HaarSpilloverModel) -> SkellamParams:
    """Rates after spillover: each window rate mixes with its shifted value."""
    pf, nf, pfs, nfs = model.window_sums
    return SkellamParams(_mix(model.p, pf, pfs), _mix(model.p, nf, nfs), extended=True)


@dataclass(frozen=True)
class SpilloverBound:
    """Closed-form TV bound between observed and true coefficient laws.

    value is +inf when both window rates vanish while a shift gap is
    positive: the closed form divides by max(window rates) and offers no
    information there.
    """

    value: float
    shift_gap_pos: float
    shift_gap_neg: float
    max_rate: float

    def __float__(self) -> float:
        return self.value


def bound_theorem32(model: HaarSpilloverModel) -> SpilloverBound:
    pf, nf, pfs, nfs = model.window_sums
    arrays = _bounds(model.p, *(np.array([v]) for v in (pf, nf, pfs, nfs)))
    return SpilloverBound(*(float(a[0]) for a in arrays))


def _bounds(p: float, pf, nf, pfs, nfs):
    """(value, shift_gap_pos, shift_gap_neg, max_rate) of SpilloverBound for
    arrays of window sums: sqrt(2 p^2 / (e max_rate)) (gap_pos + gap_neg),
    +inf where that leaves the float range.

    That is p (gap_pos + gap_neg) times the first-difference Stein factor
    stein.bound_first_diff at m = max_rate = max(pf, nf), without that
    factor's clamp at 1."""
    gap_pos = np.abs(pf - pfs)
    gap_neg = np.abs(nf - nfs)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        numerator = gap_pos + gap_neg
        max_rate = np.maximum(pf, nf)
        value = np.sqrt(2.0 * p**2 / (math.e * max_rate)) * numerator
    value[max_rate == 0.0] = math.inf
    if p == 0.0:
        value[:] = 0.0
    value[numerator == 0.0] = 0.0
    return value, gap_pos, gap_neg, max_rate


def tv_observed_vs_true(model: HaarSpilloverModel, tail_tol: float = 1e-10) -> TVInterval:
    """Exact truncated TV between the observed and true coefficient laws,
    by _tv_pairs: coinciding parameters give an exact zero."""
    obs, true = observed_coeff_params(model), true_coeff_params(model)
    tv, slack = _tv_pairs(*(np.array([v]) for v in (obs.lambda1, obs.lambda2, true.lambda1, true.lambda2)), tail_tol)
    return TVInterval(float(tv[0]), float(slack[0]))


def simulate_spillover(
    model: HaarSpilloverModel, rng: np.random.Generator, trials: int
) -> tuple[np.ndarray, np.ndarray]:
    """Paired draws of (true coefficient, observed coefficient).

    Each trial draws the bin counts once; the observed counts move a
    Binomial(count, p) thinning of every bin one index down (spill below
    bin 0 leaves the array).
    """
    if trials < 0:
        raise ValueError("trials must be >= 0")
    weights = (model.pos - model.neg).astype(np.int64)
    true_out = np.zeros(trials, dtype=np.int64)
    obs_out = np.zeros(trials, dtype=np.int64)
    block = max(1, SIM_BLOCK_CELLS // model.n)
    for start in range(0, trials, block):
        stop = min(trials, start + block)
        m = stop - start
        counts = rng.poisson(model.f, size=(m, model.n))
        spilled = rng.binomial(counts, model.p)
        observed = counts - spilled
        observed[:, :-1] += spilled[:, 1:]
        true_out[start:stop] = counts @ weights
        obs_out[start:stop] = observed @ weights
    return true_out, obs_out


def verify(model: HaarSpilloverModel, tail_tol: float = 1e-10) -> VerificationReport:
    """Exact TV between observed and true coefficient laws, checked against
    the closed-form bound."""
    tv = tv_observed_vs_true(model, tail_tol)
    b = bound_theorem32(model)
    return make_report(tv, b.value)


def sweep_windows(model_f: np.ndarray, p: float, tail_tol: float = 1e-10) -> Rows:
    """Verification reports for every dyadic window of the signal.

    Returns the columns of one row per (scale, location), scale by scale,
    with the TV, bound and ratio; useful for mapping where spillover
    distorts coefficients the most.  Each row is the verify() report of
    HaarSpilloverModel(f, *haar_windows(n, scale, location), p), bit for
    bit.  A window whose total rate is not finite is refused, the first in
    that order, before any Skellam window is built.
    """
    f = _check_signal(model_f).tolist()
    p = _check_p(p)
    fs = f[1:] + [0.0]
    n = len(f)
    scales = range(1, n.bit_length())  # every scale with 2^scale <= n
    scale = np.repeat(np.arange(1, n.bit_length()), [n >> s for s in scales])
    location = np.concatenate([np.arange(n >> s) for s in scales] or [np.zeros(0, np.int64)])
    start = location << scale
    mid, end = start + (1 << (scale - 1)), start + (1 << scale)
    pos, neg = list(zip(start.tolist(), mid.tolist())), list(zip(mid.tolist(), end.tolist()))
    pf, nf, pfs, nfs = (_fsums(v, w) for v, w in ((f, pos), (f, neg), (fs, pos), (fs, neg)))
    o1, o2 = _mixes(p, pf, pfs), _mixes(p, nf, nfs)
    with np.errstate(over="ignore"):
        finite = np.isfinite(np.stack([pf + nf, o1 + o2])).all(axis=0)
    if not finite.all():
        i = int(finite.argmin())
        _check_rates(lambda: f"window (scale {scale[i]}, location {location[i]})", p,
                     *(float(v[i]) for v in (pf, nf, pfs, nfs)))
    bound = _bounds(p, pf, nf, pfs, nfs)[0]
    tv, slack = _tv_pairs(o1, o2, pf, nf, tail_tol)
    satisfied, ratio = report_columns(tv, slack, bound)
    return Rows(scale=scale, location=location, tv=tv, tv_slack=slack, bound=bound,
                satisfied=satisfied, ratio=ratio)


def _fsums(values: list, spans: list) -> np.ndarray:
    """_fsum of values[a:b] for each (a, b) in spans."""
    try:
        return np.array([math.fsum(values[a:b]) for a, b in spans])
    except OverflowError:
        return np.array([_fsum(values[a:b]) for a, b in spans])


def _mixes(p: float, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """_mix of each entry of a and b, by the same operations."""
    if p == 0.0:
        return a
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(a == b, a, (1.0 - p) * a + p * b)


def _tv_pairs(o1, o2, t1, t2, tail_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(tv, slack) of tv_observed_vs_true for each window's observed rates
    (o1, o2) and true rates (t1, t2); coinciding rates give an exact zero.

    The other windows, zero rates among them, go to skellam.windows in
    blocks of at most _SWEEP_POINTS window points, bounded by Bernstein's
    inequality before any is built, and each block's TVs come from one
    dists.tv_rows pass.
    """
    tv, slack = np.zeros(o1.size), np.zeros(o1.size)
    differ = np.flatnonzero((o1 != t1) | (o2 != t2))
    points = _width_bound(o1[differ] + o2[differ], tail_tol) + _width_bound(t1[differ] + t2[differ], tail_tol)
    for i, j in blocks(points, _SWEEP_POINTS):
        block = differ[i:j]
        m = block.size
        w = windows(np.concatenate([o1[block], t1[block]]), np.concatenate([o2[block], t2[block]]), tail_tol)
        tv[block] = tv_rows(w.values, w.lo[:m], w.start[:m], w.size[:m], w.lo[m:], w.start[m:], w.size[m:])
        slack[block] = 0.5 * (w.tail[:m] + w.tail[m:])
    return tv, slack


def _width_bound(total: np.ndarray, tail_tol: float) -> np.ndarray:
    """At least the points of a pmf window of total rate v at tail_tol:
    Bernstein's inequality, P(|X - EX| >= t) <= 2 exp(-t^2 / (2 (v + t / 3)))
    for a difference of Poisson counts, is at most tail_tol / 2 on each side
    at t = T / 3 + sqrt(T^2 / 9 + 2 T v), T = special.chernoff_level(tail_tol),
    and Chernoff's window ends lie within t + 1 of the mean."""
    t_max = chernoff_level(tail_tol)
    with np.errstate(over="ignore"):
        return 2.0 * (t_max / 3.0 + np.sqrt(t_max * t_max / 9.0 + 2.0 * t_max * total)) + 3.0
