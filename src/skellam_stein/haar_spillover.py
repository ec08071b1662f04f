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
window runs scale by scale: window sums over slices, bounds as arrays, and
the Skellam windows of up to 256 windows from one skellam.windows batch;
each of its records equals the single-window verify report bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dists import TVInterval, tv_interval
from .skellam import SkellamParams, to_dist, windows
from .verification import VerificationReport, make_report

_SIM_BLOCK_CELLS = 10**7
_SWEEP_BLOCK = 256  # windows per skellam.windows call in sweep_windows


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
    arrays of window sums: sqrt(2 p^2 / (e max_rate)) (gap_pos + gap_neg)."""
    gap_pos = np.abs(pf - pfs)
    gap_neg = np.abs(nf - nfs)
    numerator = gap_pos + gap_neg
    max_rate = np.maximum(pf, nf)
    with np.errstate(divide="ignore", invalid="ignore"):
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
    return _tv_pairs([(obs.lambda1, obs.lambda2)], [(true.lambda1, true.lambda2)], tail_tol)[0]


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
    block = max(1, _SIM_BLOCK_CELLS // model.n)
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


def sweep_windows(
    model_f: np.ndarray, p: float, tail_tol: float = 1e-10
) -> list[dict]:
    """Verification reports for every dyadic window of the signal.

    Returns one record per (scale, location) with the TV, bound and ratio;
    useful for mapping where spillover distorts coefficients the most.
    Each record is the verify() report of HaarSpilloverModel(f,
    *haar_windows(n, scale, location), p), computed a scale at a time.
    """
    f = _check_signal(model_f).tolist()
    p = _check_p(p)
    fs = f[1:] + [0.0]
    n = len(f)
    records = []
    scale = 1
    while (1 << scale) <= n:
        width = 1 << scale
        half = width // 2
        count = n // width
        # A block of windows at a time keeps the live Skellam windows few.
        for first in range(0, count, _SWEEP_BLOCK):
            sums = []
            for location in range(first, min(count, first + _SWEEP_BLOCK)):
                start = location * width
                mid, end = start + half, start + width
                row = (_fsum(f[start:mid]), _fsum(f[mid:end]),
                       _fsum(fs[start:mid]), _fsum(fs[mid:end]))
                _check_rates(lambda: f"window (scale {scale}, location {location})", p, *row)
                sums.append(row)
            pf, nf, pfs, nfs = np.array(sums).T
            bounds = _bounds(p, pf, nf, pfs, nfs)[0].tolist()
            true = list(zip(pf.tolist(), nf.tolist()))
            obs = [(_mix(p, a, a_s), _mix(p, b, b_s)) for a, b, a_s, b_s in sums]
            for location, tv, bound in zip(
                range(first, count), _tv_pairs(obs, true, tail_tol), bounds
            ):
                report = make_report(tv, bound)
                records.append(
                    {
                        "scale": scale,
                        "location": location,
                        "tv": report.tv.value,
                        "tv_slack": report.tv.slack,
                        "bound": report.bound,
                        "satisfied": report.satisfied,
                        "ratio": report.ratio,
                    }
                )
        scale += 1
    return records


def _tv_pairs(obs: list, true: list, tail_tol: float) -> list[TVInterval]:
    """tv_observed_vs_true of each (observed, true) pair of rate pairs, with
    the windows of all positive rate pairs from one skellam.windows call.
    The windows of one block stay live until its TVs are taken."""
    differ = [j for j, (o, t) in enumerate(zip(obs, true)) if o != t]
    pairs = [obs[j] for j in differ] + [true[j] for j in differ]
    positive = [i for i, (l1, l2) in enumerate(pairs) if l1 > 0.0 and l2 > 0.0]
    built = dict(zip(positive, windows(
        [pairs[i][0] for i in positive], [pairs[i][1] for i in positive], tail_tol
    )))
    for i, (l1, l2) in enumerate(pairs):
        if i not in built:  # a zero rate: a Poisson window or a point mass
            d = to_dist(SkellamParams(l1, l2, extended=True), tail_tol)
            built[i] = (d.min_support, d.probabilities, d.tail_mass)
    out = [TVInterval(0.0, 0.0)] * len(obs)
    for i, j in enumerate(differ):
        out[j] = tv_interval(*built[i], *built[len(differ) + i])
    return out
