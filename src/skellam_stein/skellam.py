"""The integer-valued law of a difference of two independent Poisson counts.

All pmf arithmetic runs in log scale with a single final exponentiation, so
rates up to 10^6 stay inside float64.  Zero rates are admitted only through
the explicit `extended` flag: they arise as continuity limits (the law
degenerates to a single Poisson or a point mass) and downstream models can
produce them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import special
from .dists import IntegerDist, check_window_size, negate, unimodal_window


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


def _log_poisson_pmf(lam: float, ks: np.ndarray) -> np.ndarray:
    out = np.full(ks.shape, float("-inf"))
    if lam == 0.0:
        out[ks == 0] = 0.0
        return out
    pos = ks >= 0
    kp = ks[pos]
    lgam = np.fromiter(map(math.lgamma, (kp + 1).tolist()), float, kp.size)
    out[pos] = kp * math.log(lam) - lam - lgam
    return out


def _log_pmf_array(params: SkellamParams, ks) -> np.ndarray:
    """log P(X = k) for each integer k in ks; -inf where the mass is exactly zero."""
    ks = np.asarray(ks, dtype=np.int64)
    l1, l2 = params.lambda1, params.lambda2
    if l2 == 0.0:
        return _log_poisson_pmf(l1, ks)
    if l1 == 0.0:
        return _log_poisson_pmf(l2, -ks)
    # log pmf = (k/2) log(l1/l2) - (sqrt(l1) - sqrt(l2))^2 + log ive_|k|(2 sqrt(l1 l2))
    x = 2.0 * math.sqrt(l1) * math.sqrt(l2)
    tilt = 0.5 * ks * (math.log(l1) - math.log(l2))
    root_gap = math.sqrt(l1) - math.sqrt(l2)
    # Bessel values once per order: a span across 0 holds most |k| twice.
    orders = np.abs(ks)
    first = int(orders.min()) if orders.size else 0
    iv = special.log_scaled_iv_orders(np.arange(first, int(orders.max(initial=first)) + 1), x)
    return tilt - root_gap * root_gap + iv[orders - first]


def pmf_array(params: SkellamParams, ks) -> np.ndarray:
    """P(X = k) for each integer k in ks."""
    # math.exp (libm) rather than numpy's SIMD exp, whose last bit varies
    # with the CPU: records stay the same across machines.
    return np.fromiter(map(math.exp, _log_pmf_array(params, ks).tolist()), float)


def log_pmf(params: SkellamParams, k: int) -> float:
    """log P(X = k); -inf where the mass is exactly zero."""
    return float(_log_pmf_array(params, [int(k)])[0])


def pmf(params: SkellamParams, k: int) -> float:
    return math.exp(log_pmf(params, k))


def moments(params: SkellamParams) -> tuple[float, float]:
    """(mean, variance) = (lambda1 - lambda2, lambda1 + lambda2)."""
    return params.lambda1 - params.lambda2, params.lambda1 + params.lambda2


def to_dist(params: SkellamParams, tail_tol: float = 1e-12) -> IntegerDist:
    """Window around the mean capturing at least 1 - tail_tol of the mass.

    The pmf is unimodal: dists.unimodal_window expands greedily from
    round(mean) over pmf_array values, and a zero rate leaves a
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
    return unimodal_window(
        lambda a, b: pmf_array(params, np.arange(a, b + 1)).tolist(),
        int(round(l1 - l2)), math.sqrt(params.total), tail_tol,
    )


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
