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
from functools import reduce

import numpy as np

from .dists import SIM_BLOCK_CELLS, IntegerDist, ResourceLimitError, tv_distance
from .skellam import SkellamParams, to_dist
from .verification import VerificationReport, make_report

EXACT_EDGE_CAP = 10**5
# A join whose narrower law has at most this many points goes by shift-and-add,
# any other by one batched rfft.  Measured with laws as rows on a 2-core host at
# n = 10^5 (p in U[0.05, 0.5], r and s in U[0, 0.2], the benchmark's graph
# inputs), handover at width 4/8/16/32/64/128/256: the tree took
# 0.154/0.147/0.151/0.156/0.171/0.190/0.235 s (median of 7 interleaved
# runs); the largest |dtv| to the Skellam law against one `dists.convolve`
# per pair, 3 seeds: 2.0e-13/1.1e-13/4.7e-14/2.0e-14/2.8e-14/4.2e-14/3.9e-14.
# 32 was within 6% of the fastest with the smallest |dtv|; any other moves bits.
SHIFT_ADD_WIDTH = 32
# From this many pairs on, a worker thread builds the law of the leaves past the first
# 2^(levels-1).  Split over serial time, 2-core host, 31 interleaved runs (split wins):
# n = 10^4 1.09 (3), 12000 1.03 (7), 16384 0.86 (27), 32768 0.84 (31); past 2^k the
# worker has few leaves: 16385 1.04 (5), 33000 1.01 (12).  Rounds differ by up to 0.2.
SPLIT_PAIRS = 16384

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
            for name in "prs":  # np.full would take a list, or true as 1.0
                if isinstance(obj[name], bool) or not isinstance(obj[name], (int, float)):
                    kind = type(obj[name]).__name__
                    raise ValueError(f'"{name}" must be one number when "n" is given, got {kind}')
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


def _convolve_pairs(level: list[np.ndarray]) -> np.ndarray:
    """Row i is a[i] convolved with b[i], for level = [a, b] with a's laws no
    narrower than b's.  Each array is popped, to be freed once it is used."""
    a, b = level.pop(0), level.pop(0)
    wa, wb = a.shape[1], b.shape[1]
    if wb <= SHIFT_ADD_WIDTH:
        # out keeps a's layout, so laws given as columns stay columns; from
        # b's top, so each point sums its terms in the order of a's index.
        out = np.zeros_like(a, shape=(len(a), wa + wb - 1))
        for j in range(wb - 1, -1, -1):
            out[:, j : j + wa] += b[:, j, None] * a
        return out
    # With n_fft the least power of two at or above width - 1, at most the
    # last point wraps onto the first: both ends are set directly.
    width = wa + wb - 1
    n_fft = 1 << (width - 2).bit_length()
    ends = a[:, :: wa - 1] * b[:, :: wb - 1]
    conv = np.fft.rfft(a, n_fft)
    conv *= np.fft.rfft(b, n_fft)
    del a, b
    conv = np.fft.irfft(conv, n_fft)  # rebinding lets the spectrum go
    out = np.empty((len(conv), width))
    out[:, :-1] = conv[:, : width - 1]
    out[:, :: width - 1] = ends
    return np.maximum(out, 0.0, out=out)


def _levels(leaves: np.ndarray) -> np.ndarray:
    """The tree on the leaf laws, given as columns; the law as one row.  A
    level with an odd count sets its last law aside, a finished block of 2^L
    leaves at level L; the blocks join the last law left, smallest first."""
    rows, aside = leaves.T, []
    while len(rows) > 1:
        if len(rows) % 2:
            aside.append(rows[-1:].copy())  # a slice would keep the level alive
        level = [rows[0 : len(rows) - 1 : 2], rows[1::2]]
        del rows  # freed once both halves are used
        rows = _convolve_pairs(level)
    return reduce(lambda law, block: _convolve_pairs([block, law]), aside + [rows])


def _split_levels(leaves: np.ndarray) -> np.ndarray:
    """_levels' law: the first 2^(levels-1) leaves on the caller, the rest on an
    executor's worker, joined on leaving the with block even if a side raises."""
    from concurrent.futures import ThreadPoolExecutor  # here: only a split pays its import

    half = 1 << ((leaves.shape[1] - 1).bit_length() - 1)
    with ThreadPoolExecutor(1) as pool:
        right = pool.submit(_levels, leaves[:, half:])
        left = _levels(leaves[:, :half])
    return _convolve_pairs([left, right.result()])


def edge_difference_dist(model: NoisyGraphModel) -> IntegerDist:
    """Exact law of the discrepancy: convolution of n three-point laws.

    The leaves are the pairs' laws [P(-1), P(0), P(+1)], convolved by the
    pairwise tree of _levels, which never pads: a law of k leaves has exactly
    2k + 1 points.  A join whose narrower law has SHIFT_ADD_WIDTH points or
    fewer goes by shift-and-add, any other by an rfft clipped at 0.  From
    SPLIT_PAIRS pairs on, _split_levels' one executor thread builds the law
    of the leaves past the first 2^(levels-1).  Every sum has the same terms
    in the same order either way, so the bits do not depend on the core
    count.  Emits one DEBUG event: n, levels, first rfft level, |1 - mass|.
    """
    n = model.n
    check_exact_size(n)
    levels = (n - 1).bit_length()
    first_rfft = (SHIFT_ADD_WIDTH - 1).bit_length()  # level k takes 2^k + 1 points
    plus, minus = model.drop_rates, model.invent_rates
    leaves = np.stack([minus, 1.0 - plus - minus, plus])
    law = IntegerDist(-n, (_split_levels if n >= SPLIT_PAIRS else _levels)(leaves)[0])
    _log.debug(
        "edge_difference_dist: n=%d levels=%d rfft_level=%s mass_defect=%.3g",
        n, levels, first_rfft if levels >= first_rfft else None,
        abs(1.0 - law.window_mass()),
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
