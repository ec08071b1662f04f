"""Haar coefficients of Poisson count vectors under one-bin spillover.

Bin i collects Po(f[i]) photons; each photon independently lands one bin
below its origin (index i - 1) with probability p before being read out.
For a window split into a positive half and a negative half, the true
coefficient pos.X - neg.X and its observed counterpart are each a
difference of two independent Poisson sums, so both are Skellam with
closed-form rates.  This module computes both laws, the exact TV between
them, the closed-form bound on that TV, and simulation cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dists import TVInterval, tv_distance
from .skellam import SkellamParams, to_dist
from .verification import VerificationReport, make_report

_SIM_BLOCK_CELLS = 10**7


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
        f = np.asarray(self.f, dtype=np.float64)
        if f.ndim != 1 or f.size == 0:
            raise ValueError("f must be a non-empty 1-D vector")
        if not np.all(np.isfinite(f)) or np.any(f < 0.0):
            raise ValueError("intensities must be finite and nonnegative")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "pos", _indicator_vector("pos", self.pos))
        object.__setattr__(self, "neg", _indicator_vector("neg", self.neg))
        if not (self.f.size == self.pos.size == self.neg.size):
            raise ValueError("f, pos, neg must share one length")
        if np.any(self.pos * self.neg != 0):
            raise ValueError("pos and neg windows must be disjoint")
        p = float(self.p)
        if not 0.0 <= p <= 1.0:
            raise ValueError("spillover probability must lie in [0, 1]")
        object.__setattr__(self, "p", p)

    @property
    def n(self) -> int:
        return self.f.size

    @cached_property
    def window_sums(self) -> tuple[float, float, float, float]:
        """(pos.f, neg.f, pos.fs, neg.fs): the window rates before and after
        spillover, with fs the signal one bin up (fs[i] = f[i+1], 0 at the end)."""
        fs = np.append(self.f[1:], 0.0)
        return (
            float(self.pos @ self.f), float(self.neg @ self.f),
            float(self.pos @ fs), float(self.neg @ fs),
        )


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
    gap_pos = abs(pf - pfs)
    gap_neg = abs(nf - nfs)
    numerator = gap_pos + gap_neg
    max_rate = max(pf, nf)
    if model.p == 0.0 or numerator == 0.0:
        value = 0.0
    elif max_rate == 0.0:
        value = math.inf
    else:
        value = math.sqrt(2.0 * model.p**2 / (math.e * max_rate)) * numerator
    return SpilloverBound(value, gap_pos, gap_neg, max_rate)


def tv_observed_vs_true(model: HaarSpilloverModel, tail_tol: float = 1e-10) -> TVInterval:
    """Exact truncated TV between the observed and true coefficient laws.

    Coinciding parameters short-circuit to an exact zero.
    """
    true_params = true_coeff_params(model)
    obs_params = observed_coeff_params(model)
    if (
        true_params.lambda1 == obs_params.lambda1
        and true_params.lambda2 == obs_params.lambda2
    ):
        return TVInterval(0.0, 0.0)
    return tv_distance(to_dist(obs_params, tail_tol), to_dist(true_params, tail_tol))


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
    """
    f = np.asarray(model_f, dtype=np.float64)
    n = f.size
    records = []
    scale = 1
    while (1 << scale) <= n:
        width = 1 << scale
        for location in range(n // width):
            pos, neg = haar_windows(n, scale, location)
            report = verify(HaarSpilloverModel(f, pos, neg, p), tail_tol)
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
