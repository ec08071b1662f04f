"""Shared verification report structure and empirical-comparison thresholds."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dists import TVInterval


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking an exact TV distance against a closed-form bound.

    satisfied means the upper end of the TV interval does not exceed the
    bound; an infinite bound is vacuously satisfied.  ratio is tv/bound,
    taken as 0 when both vanish.
    """

    tv: TVInterval
    bound: float
    satisfied: bool
    ratio: float
    extra: dict = field(default_factory=dict)


def make_report(tv: TVInterval, bound: float, extra: dict | None = None) -> VerificationReport:
    bound = float(bound)
    satisfied, ratio = report_columns(*(np.array([v]) for v in (tv.value, tv.slack, bound)))
    return VerificationReport(tv, bound, bool(satisfied[0]), float(ratio[0]), extra or {})


def report_columns(tv, slack, bound) -> tuple[np.ndarray, np.ndarray]:
    """(satisfied, ratio) of VerificationReport for each entry of arrays of
    TV values, slacks and bounds."""
    satisfied = np.isinf(bound) | (tv + slack <= bound)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(bound > 0.0, tv / bound, np.where(tv == 0.0, 0.0, math.inf))
    return satisfied, ratio


def empirical_tv_threshold(trials: int, support_size: int, failure_prob: float = 1e-3) -> float:
    """Level exceeded by the empirical-vs-true TV with probability < failure_prob.

    Mean term: E TV = (1/2) E sum_k |phat_k - p_k| <= (1/2) sum_k sqrt(p_k / trials)
    <= (1/2) sqrt(support_size / trials) by Cauchy-Schwarz.  Deviation term:
    one sample moves TV by at most 1/trials, so a bounded-differences bound
    adds sqrt(log(1/failure_prob) / (2 trials)).
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if support_size <= 0:
        raise ValueError("support_size must be positive")
    mean = 0.5 * math.sqrt(support_size / trials)
    deviation = math.sqrt(math.log(1.0 / failure_prob) / (2.0 * trials))
    return mean + deviation
