"""Edge-count discrepancy of independently perturbed random graphs.

Each of n vertex pairs carries an edge independently with probability p[i].
The observation channel drops a real edge with probability r[i] and invents
a missing edge with probability s[i], independently across pairs.  The
observable of interest is (#dropped real edges) - (#invented edges): this
module computes its exact law, the Skellam approximation, the closed-form
TV bound between the two, and Monte Carlo cross-checks.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .dists import SIM_BLOCK_CELLS, IntegerDist, ResourceLimitError, tv_distance
from .skellam import SkellamParams, to_dist
from .verification import VerificationReport, make_report

EXACT_EDGE_CAP = 10**5
# Rows at most this wide are convolved by shift-and-add, wider ones by one
# batched rfft per level.  Measured on a 2-core host at n = 10^5 (p in
# U[0.05, 0.5], r and s in U[0, 0.2], the benchmark's graph inputs), with
# the handover at width 4/8/16/32/64/128/256: the tree took
# 0.154/0.147/0.151/0.156/0.171/0.190/0.235 s (median of 7 interleaved
# runs), and the largest |dtv| to the Skellam law against the tree of one
# `dists.convolve` per pair over 3 seeds was
# 2.0e-13/1.1e-13/4.7e-14/2.0e-14/2.8e-14/4.2e-14/3.9e-14.  32 is within
# 6% of the fastest and has the smallest |dtv|.
SHIFT_ADD_WIDTH = 32

_log = logging.getLogger("skellam_stein")


def _probability_vector(name: str, values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D vector")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr > 1.0):
        raise ValueError(f"{name} entries must all lie in [0, 1]")
    return arr


@dataclass(frozen=True)
class NoisyGraphModel:
    """Per-pair edge probability p, false-negative rate r, false-positive rate s."""

    p: np.ndarray
    r: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", _probability_vector("p", self.p))
        object.__setattr__(self, "r", _probability_vector("r", self.r))
        object.__setattr__(self, "s", _probability_vector("s", self.s))
        if not (self.p.size == self.r.size == self.s.size):
            raise ValueError("p, r, s must share one length")

    @classmethod
    def homogeneous(cls, n: int, p: float, r: float, s: float) -> "NoisyGraphModel":
        if n < 1:
            raise ValueError("n must be >= 1")
        return cls(np.full(n, p), np.full(n, r), np.full(n, s))

    @classmethod
    def from_dict(cls, obj: dict) -> "NoisyGraphModel":
        if not isinstance(obj, dict):
            raise ValueError("model document must be a JSON object")
        missing = {"p", "r", "s"} - obj.keys()
        if missing:
            raise ValueError(f"model document lacks fields: {sorted(missing)}")
        if "n" in obj:
            n = obj["n"]
            # JSON's 1e5 is a whole number; 2.7 or true would truncate to another model.
            if isinstance(n, bool) or (isinstance(n, float) and not n.is_integer()):
                raise ValueError(f'"n" must be a whole number, got {n!r}')
            n = int(n)
            check_exact_size(n)
            return cls.homogeneous(n, obj["p"], obj["r"], obj["s"])
        return cls(obj["p"], obj["r"], obj["s"])

    @property
    def n(self) -> int:
        return self.p.size

    @property
    def drop_rates(self) -> np.ndarray:
        """Per-pair probability the discrepancy is +1 (real edge dropped)."""
        return self.p * self.r

    @property
    def invent_rates(self) -> np.ndarray:
        """Per-pair probability the discrepancy is -1 (missing edge invented)."""
        return (1.0 - self.p) * self.s


def check_exact_size(n: int) -> None:
    """Refuse more than EXACT_EDGE_CAP pairs, the most the exact law takes,
    before any per-pair array is built (ResourceLimitError)."""
    if n > EXACT_EDGE_CAP:
        raise ResourceLimitError(
            f"exact mode supports n <= {EXACT_EDGE_CAP}, got {n}; use simulate"
        )


def load_model(path) -> NoisyGraphModel:
    with open(path) as fh:
        return NoisyGraphModel.from_dict(json.load(fh))


def model_digest(model: NoisyGraphModel) -> str:
    """Hex SHA-256 of p, then r, then s as little-endian float64 bytes.

    The arrays are the model's validated, expanded ones, so a homogeneous
    model hashes the same however it was given (--homogeneous, the {"n": ...}
    shorthand or written-out arrays), and -0.0 and 0.0 hash differently.
    """
    import hashlib  # here, not at module top: it would add ~3 ms to every CLI import

    h = hashlib.sha256()
    for arr in (model.p, model.r, model.s):
        h.update(arr.astype("<f8", copy=False).tobytes())
    return h.hexdigest()


def skellam_params(model: NoisyGraphModel) -> SkellamParams:
    """Approximating rates: total drop rate and total invent rate."""
    return SkellamParams(
        float(model.drop_rates.sum()),
        float(model.invent_rates.sum()),
        extended=True,
    )


def _convolve_pairs(rows: np.ndarray) -> np.ndarray:
    """Row i of the result is the convolution of rows 2i and 2i+1."""
    a, b = rows[0::2], rows[1::2]
    m, w = a.shape
    n_out = 2 * w - 1
    if w <= SHIFT_ADD_WIDTH:
        out = np.zeros((m, n_out))
        for j in range(w):
            out[:, j : j + w] += a[:, j, None] * b
        return out
    # n_fft >= n_out - 1, so at most the last point wraps onto the first.
    # Both end points are single products and are set directly.
    n_fft = 1 << (n_out - 2).bit_length()
    out = np.empty((m, n_out))
    out[:, :-1] = np.fft.irfft(
        np.fft.rfft(a, n_fft) * np.fft.rfft(b, n_fft), n_fft
    )[:, : n_out - 1]
    out[:, 0] = a[:, 0] * b[:, 0]
    out[:, -1] = a[:, -1] * b[:, -1]
    return np.maximum(out, 0.0, out=out)


def edge_difference_dist(model: NoisyGraphModel) -> IntegerDist:
    """Exact law of the discrepancy: convolution of n three-point laws.

    The laws are convolved in a pairwise tree, one stacked array per level.
    Level 0 holds row i = [P(-1), P(0), P(+1)] of pair i on the window
    [-1, 1]; each level convolves rows 2i and 2i+1, so every row of level L
    is a law on [-2^L, 2^L].  A level with an odd row count first gains a
    point mass at 0 (a 1 in the centre column), which keeps that window, and
    the finished row is cut to [-n, n].  Narrow rows are convolved by
    shift-and-add, rows wider than SHIFT_ADD_WIDTH by a batched rfft whose
    round-off is clipped at 0.  Only the finished law is an IntegerDist.
    Emits one DEBUG event with n, the level count, the first rfft level
    (None if every level is shift-and-add) and |1 - window mass|.
    """
    n = model.n
    check_exact_size(n)
    plus = model.drop_rates
    minus = model.invent_rates
    rows = np.column_stack([minus, 1.0 - plus - minus, plus])
    levels = 0
    rfft_level = None
    while rows.shape[0] > 1:
        if rows.shape[0] % 2:
            pad = np.zeros((1, rows.shape[1]))
            pad[0, rows.shape[1] // 2] = 1.0
            rows = np.vstack([rows, pad])
        levels += 1
        if rfft_level is None and rows.shape[1] > SHIFT_ADD_WIDTH:
            rfft_level = levels
        rows = _convolve_pairs(rows)
    centre = rows.shape[1] // 2
    law = IntegerDist(-n, rows[0, centre - n : centre + n + 1])
    _log.debug(
        "edge_difference_dist: n=%d levels=%d rfft_level=%s mass_defect=%.3g",
        n, levels, rfft_level, abs(1.0 - law.window_mass()),
    )
    return law


def _log_plus(z: float) -> float:
    return math.log(z) if z > 1.0 else 0.0


@dataclass(frozen=True)
class EdgeCountBound:
    """Closed-form TV bound for the edge-count discrepancy.

    value clamps the logarithm at zero (a negative log would make the
    expression meaningless as a bound); raw_log_value keeps the plain
    logarithm and is reported alongside whenever the two differ.
    s1 and s2 are the first and second power sums of the per-pair
    discrepancy rates.
    """

    value: float
    raw_log_value: float
    s1: float
    s2: float

    def __float__(self) -> float:
        return self.value


def bound_theorem31(model: NoisyGraphModel) -> EdgeCountBound:
    """Theorem 3.1's bound s2 (2/s1^2 + 2 sqrt(2) log+(sqrt(2) s1)/s1), where
    s1 and s2 sum q and q^2 over the pairs' rates q = drop + invent.

    It is s2 times the order-2 Stein factor stein.bound_relaxed(params, 2)
    at the total rate L = s1, without that factor's clamp at 1.
    """
    q = model.drop_rates + model.invent_rates
    s1 = float(q.sum())
    s2 = float((q * q).sum())
    if s1 == 0.0:
        return EdgeCountBound(0.0, 0.0, 0.0, 0.0)
    root2 = math.sqrt(2.0)
    clamped = s2 * (2.0 / s1**2 + 2.0 * root2 * _log_plus(root2 * s1) / s1)
    raw = s2 * (2.0 / s1**2 + 2.0 * root2 * math.log(root2 * s1) / s1)
    return EdgeCountBound(clamped, raw, s1, s2)


def simulate(model: NoisyGraphModel, rng: np.random.Generator, trials: int) -> np.ndarray:
    """Monte Carlo draws of (#real edges) - (#observed edges).

    Per trial each pair draws presence ~ Bernoulli(p[i]), then the observed
    indicator from the conditional error rates; the two sums difference to
    (#dropped) - (#invented).
    """
    if trials < 0:
        raise ValueError("trials must be >= 0")
    out = np.zeros(trials, dtype=np.int64)
    block = max(1, SIM_BLOCK_CELLS // model.n)
    for start in range(0, trials, block):
        stop = min(trials, start + block)
        m = stop - start
        present = rng.random((m, model.n)) < model.p
        err = rng.random((m, model.n))
        observed = np.where(present, err >= model.r, err < model.s)
        out[start:stop] = present.sum(axis=1) - observed.sum(axis=1)
    return out


def verify(model: NoisyGraphModel, tail_tol: float = 1e-10) -> VerificationReport:
    """Exact TV between the discrepancy law and its Skellam approximation,
    checked against the closed-form bound."""
    exact = edge_difference_dist(model)
    approx = to_dist(skellam_params(model), tail_tol)
    tv = tv_distance(exact, approx)
    b = bound_theorem31(model)
    extra = {}
    if b.raw_log_value != b.value:
        extra["bound_raw_log"] = b.raw_log_value
    return make_report(tv, b.value, extra)
