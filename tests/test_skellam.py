import math
import time

import numpy as np
import pytest
import scipy.special as sps
import scipy.stats as sstats

from skellam_stein import skellam, special
from skellam_stein.dists import IntegerDist, ResourceLimitError, convolve, negate, tv_distance
from skellam_stein.skellam import (
    SkellamParams,
    cdf,
    log_pmf,
    max_pmf_bound,
    moments,
    pmf,
    sample,
    to_dist,
    windows,
)
from skellam_stein.special import poisson_dist

RATE_GRID = [0.1, 1.0, 10.0, 100.0]


def test_params_validation():
    with pytest.raises(ValueError):
        SkellamParams(0.0, 1.0)
    with pytest.raises(ValueError):
        SkellamParams(-1.0, 1.0)
    with pytest.raises(ValueError):
        SkellamParams(-1.0, 1.0, extended=True)
    with pytest.raises(ValueError):
        SkellamParams(math.nan, 1.0)
    p = SkellamParams(0.0, 2.0, extended=True)
    assert p.lambda1 == 0.0 and p.total == 2.0


def test_pmf_matches_poisson_convolution_oracle():
    for l1 in RATE_GRID:
        for l2 in RATE_GRID:
            if max(l1, l2) > 30:
                continue
            params = SkellamParams(l1, l2)
            oracle = convolve(poisson_dist(l1, 1e-14), negate(poisson_dist(l2, 1e-14)))
            for k in oracle.support():
                assert pmf(params, int(k)) == pytest.approx(
                    oracle.prob(int(k)), abs=1e-10
                )


def test_pmf_matches_scipy_reference():
    for l1, l2 in [(0.3, 0.7), (2.0, 5.0), (30.0, 10.0), (100.0, 100.0)]:
        params = SkellamParams(l1, l2)
        sigma = math.sqrt(l1 + l2)
        ks = np.arange(int(l1 - l2 - 8 * sigma), int(l1 - l2 + 8 * sigma) + 1)
        ref = sstats.skellam.pmf(ks, l1, l2)
        got = np.array([pmf(params, int(k)) for k in ks])
        assert np.max(np.abs(got - ref)) < 1e-12


def test_window_mass_and_moments_on_grid():
    for l1 in RATE_GRID:
        for l2 in RATE_GRID:
            params = SkellamParams(l1, l2)
            d = to_dist(params, 1e-12)
            assert abs(d.window_mass() + d.tail_mass - 1.0) <= 1e-9
            assert d.window_mass() >= 1.0 - 1e-9
            mean, var = moments(params)
            assert mean == l1 - l2 and var == l1 + l2
            assert d.mean() == pytest.approx(mean, rel=1e-6, abs=1e-6)
            assert d.variance() == pytest.approx(var, rel=1e-6)


def test_skew_symmetry_is_bit_exact():
    for l1, l2 in [(0.1, 1.0), (3.0, 0.2), (10.0, 100.0)]:
        a, b = SkellamParams(l1, l2), SkellamParams(l2, l1)
        for k in range(-25, 26):
            assert pmf(a, k) == pmf(b, -k)
            assert log_pmf(a, k) == log_pmf(b, -k)


def _window_rates():
    rng = np.random.default_rng(20261018)
    grid = [tuple(10.0 ** rng.uniform(-3, 4, 2)) for _ in range(12)]
    ties = [(lam, lam) for lam in (1e-3, 0.5, 4.0, 250.0, 3e4)]
    tiny = [(1e-3, 1e-6), (2e-4, 3e-4), (1e-6, 1e-6), (1e-3, 7.0)]
    return grid + ties + tiny


def _rate_scan(center, la, lb, tail_tol):
    """(lo, hi) by a direct scan of Chernoff's rate function
    I(k) = k log((k + s) / (2 la)) - s + la + lb, s = sqrt(k^2 + 4 la lb), over
    every integer out to Bernstein's bound, with T = log(2 / tail_tol)."""
    t_max = math.log(2.0 / tail_tol)
    reach = int(t_max / 3.0 + math.sqrt(t_max * t_max / 9.0 + 2.0 * t_max * (la + lb))) + 2
    ks = np.arange(center - reach, center + reach + 1, dtype=np.float64)

    def rate(k, a, b):  # k >= 0; the k < 0 side is the rate of (b, a) at -k
        s = np.sqrt(k * k + 4.0 * a * b)
        return sps.xlogy(k, (k + s) / (2.0 * a)) - s + a + b

    with np.errstate(divide="ignore", invalid="ignore"):
        neg = rate(-ks, lb, la) if lb > 0.0 else np.full(ks.shape, np.inf)
        rates = np.where(ks >= 0, rate(np.abs(ks), la, lb), neg)
    assert rates[0] >= t_max and rates[-1] >= t_max
    up = (ks > center) & (rates >= t_max)
    down = (ks < center) & (rates >= t_max)
    return int(ks[down].max()) + 1, int(ks[up].min()) - 1


def _contract_rates():
    """A seeded log-uniform grid of pairs in [1e-3, 1e6], very unequal
    splits and zero rates."""
    rng = np.random.default_rng(20261020)
    grid = [tuple(10.0 ** rng.uniform(-3, 6, 2)) for _ in range(16)]
    unequal = [(1e6, 1e-3), (2e-3, 4e5), (3e4, 1e-200), (1e-300, 5.0), (1e-300, 0.54), (1e-3, 1e-3)]
    zero = [(1e6, 0.0), (0.0, 3e4), (7.5, 0.0), (0.0, 1e-3), (47.0, 0.0)]
    return grid + unequal + zero


@pytest.mark.parametrize("tail_tol", [1e-10, 1e-12, 1e-15])
def test_window_contract_on_rate_grid(tail_tol):
    for l1, l2 in _contract_rates():
        params = SkellamParams(l1, l2, extended=True)
        d = to_dist(params, tail_tol)
        lo, hi = d.min_support, d.max_support
        # Chernoff's window: ends by a direct scan of the rate function.
        if l1 > 0.0:
            assert (lo, hi) == _rate_scan(int(l1) if l2 == 0.0 else int(round(l1 - l2)), l1, l2, tail_tol), (l1, l2)
        else:
            assert (-hi, -lo) == _rate_scan(int(l2), l2, 0.0, tail_tol), (l1, l2)
        # At most tail_tol lies outside it.  tail_mass = 1 - fsum(p) reports
        # no more, up to the rounding of the window's values, which is above
        # 1e-15 on large windows: their L1 distance from scipy's.
        ks = d.support()
        if l2 == 0.0:
            outside = sstats.poisson.cdf(lo - 1, l1) + sstats.poisson.sf(hi, l1)
            ref = sstats.poisson.pmf(ks, l1)
        elif l1 == 0.0:
            outside = sstats.poisson.cdf(-hi - 1, l2) + sstats.poisson.sf(-lo, l2)
            ref = sstats.poisson.pmf(-ks, l2)
        else:
            outside = sstats.skellam.cdf(lo - 1, l1, l2) + sstats.skellam.sf(hi, l1, l2)
            ref = sstats.skellam.pmf(ks, l1, l2)
        assert outside <= tail_tol, (l1, l2, outside)
        value_err = np.abs(d.probabilities - ref).sum()
        assert d.tail_mass <= tail_tol + value_err + 2.0**-52, (l1, l2, d.tail_mass, value_err)
        assert d.tail_mass == max(0.0, 1.0 - math.fsum(d.probabilities.tolist()))
        # The centre value is pmf's, bit for bit.
        center = int(l1) - int(l2) if 0.0 in (l1, l2) else int(round(l1 - l2))
        assert d.prob(center) == pmf(params, center), (l1, l2)


def test_pmf_window_matches_to_dist():
    # An explicit window walks from the centre over its own orders, so its
    # values differ from to_dist's in the last bits only.
    for l1, l2 in [(3.0, 2.0), (40.0, 0.0), (0.0, 6.5), (2e4, 1e4), (0.01, 5.0)]:
        params = SkellamParams(l1, l2, extended=True)
        d = to_dist(params, 1e-12)
        for lo, hi in [(d.min_support, d.max_support), (d.min_support + 3, d.max_support - 5),
                       (d.max_support - 4, d.max_support + 30), (d.min_support - 20, d.min_support + 2)]:
            got = skellam.pmf_window(params, lo, hi)
            assert got.size == hi - lo + 1
            ks = np.arange(lo, hi + 1)
            inside = (ks >= d.min_support) & (ks <= d.max_support)
            want = d.probabilities[ks[inside] - d.min_support]
            assert np.all(np.abs(got[inside] - want) <= 1e-14 * want), (l1, l2, lo, hi)
            assert np.all(got[~inside] <= 1e-12)
    assert skellam.pmf_window(SkellamParams(0.0, 0.0, extended=True), -2, 1).tolist() == [0.0, 0.0, 1.0, 0.0]


def test_centre_value_on_floats_is_bit_identical():
    # A value on Python floats has the bits of its place in an array.
    pairs = [(64.3, 0.001), (1000.0, 300.0), (7e5, 3e5), (3e5, 1e-200), (50.0, 20.0), (5.0, 69.0)]
    for l1, l2 in pairs:
        c = int(round(l1 - l2))
        ks = [c, -c, c + 64, c - 200, 63, -64, 64, 0]
        want = skellam._log_pmf_rows(np.full(len(ks), l1), np.full(len(ks), l2), np.array(ks))
        assert [skellam._log_pmf_at(l1, l2, k) for k in ks] == want.tolist(), (l1, l2)


def test_log_pmf_below_order_64_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")

    def ref(l1, l2, k):
        a, b = mpmath.mpf(l1), mpmath.mpf(l2)
        return mpmath.exp(-(a + b)) * (a / b) ** (mpmath.mpf(k) / 2) * mpmath.besseli(abs(k), 2 * mpmath.sqrt(a * b))

    with mpmath.workdps(50):
        # Near-equal rates: the tilt once cancelled to 1.8e-14 here.
        want = ref(5e7, 5e7 + 30, -30)
        got = pmf(SkellamParams(5e7, 5e7 + 30), -30)
        assert abs(got - want) <= 4e-15 * want
        # Far tails near k = 0 (values 1e-98 to 1e-272), where the root gap
        # once lost up to 4e-10: what is left is the rounding of log p.
        for rate in (1e8, 1e10):
            for gap in (15.0, 25.0):
                for j in range(3):
                    l1 = rate * (1.0 - 0.2 * j)
                    l2 = (math.sqrt(l1) - gap) ** 2 * (1.0 + 1e-9 * j)
                    for k in (0, 17, -40, 63):
                        want = ref(l1, l2, k)
                        got = pmf(SkellamParams(l1, l2), k)
                        assert abs(got - want) <= 1e-12 * want, (l1, l2, k)


def test_window_values_match_scipy():
    for l1, l2 in _window_rates():
        for tail_tol in (1e-10, 1e-12):
            d = to_dist(SkellamParams(l1, l2), tail_tol)
            ref = sstats.skellam.pmf(d.support(), l1, l2)
            sel = ref > 1e-290
            rel = np.abs(d.probabilities[sel] - ref[sel]) / ref[sel]
            assert rel.max() <= 5e-12, (l1, l2, tail_tol, rel.max())


def _float_walk(l1: float, l2: float, a: int, b: int) -> list[float]:
    """The Skellam(l1, l2) pmf on a..b by a walk on Python floats, one step
    at a time, from the centre c = round(l1 - l2), a <= c <= b, whose value
    is pmf's: p(k + 1) = p(k) * (rho * r_{k+1}) for k >= 0, p(k) * (rho /
    r_|k|) below, and p(k - 1) = p(k) * (sigma * r_{|k|+1}) for k <= 0,
    p(k) * (sigma / r_k) above, with rho = sqrt(l1) / sqrt(l2), sigma =
    sqrt(l2) / sqrt(l1), and the ratios r from one backward recurrence over
    the orders of a..b.  The reference that every window walk matches bit
    for bit."""
    center = round(l1 - l2)
    s1, s2 = math.sqrt(l1), math.sqrt(l2)
    x = 2.0 * s1 * s2
    rho, sigma = s1 / s2, s2 / s1
    base = 0 if a <= 0 <= b else min(abs(a), abs(b))
    r = special.backward_ratios(x, special.ratio_start(max(abs(a), abs(b)), x), base, 0.0)
    p = q = anchor = math.exp(skellam._log_pmf_at(l1, l2, center))
    left, right = [], []  # a..center - 1 reversed, and center + 1..b
    for k in range(center, a, -1):
        p *= sigma * r[-k - base] if k <= 0 else sigma / r[k - base - 1]
        left.append(p)
    for k in range(center, b):
        q *= rho / r[-k - base - 1] if k < 0 else rho * r[k - base]
        right.append(q)
    return left[::-1] + [anchor] + right


def test_pmf_window_matches_float_walk():
    # Ranges wider than to_dist's, and ranges off the centre, which the walk
    # reaches from the centre.
    for l1, l2 in [(3.0, 2.0), (2e4, 1e4), (0.01, 5.0), (6.8, 5.2), (3e4, 1e-200), (7e5, 3e5)]:
        params = SkellamParams(l1, l2)
        d = to_dist(params, 1e-12)
        center = round(l1 - l2)
        for lo, hi in [(d.min_support - 20, d.max_support + 30), (d.max_support - 4, d.max_support + 30),
                       (d.min_support - 200, d.min_support + 2), (center, center)]:
            a, b = min(lo, center), max(hi, center)
            want = np.array(_float_walk(l1, l2, a, b)[lo - a : hi - a + 1])
            assert skellam.pmf_window(params, lo, hi).tobytes() == want.tobytes(), (l1, l2, lo, hi)


def test_batch_rows_match_single_windows():
    rng = np.random.default_rng(7)
    rates = [tuple(10.0 ** rng.uniform(-3, 2.5, 2)) for _ in range(2 * special._LOCKSTEP_ROWS)]
    rates += [(0.01, 5.0), (3.0, 3.0), (1e-6, 1e-6), (3e4, 1e-200), (2e4, 1e4)]
    rng.shuffle(rates)
    l1, l2 = np.array(rates).T
    for tail_tol in (1e-10, 1e-12, 1e-15):
        # Batches of every size, so the ratios of a chunk step in lockstep
        # and, in chunks too small for that, row by row on Python floats.
        for size in (1, 5, special._LOCKSTEP_ROWS - 1, special._LOCKSTEP_ROWS, len(rates)):
            for (a, b), (lo, p, tail) in zip(rates[:size], windows(l1[:size], l2[:size], tail_tol)):
                # The oracle: the float walk on window_ends' ends, solved on floats.
                ends = special.window_ends(float(round(a - b)), a, b, tail_tol)
                want = _float_walk(a, b, int(ends[0]), int(ends[1]))
                assert (lo, tail) == (int(ends[0]), max(0.0, 1.0 - math.fsum(want))), (a, b)
                assert p.tobytes() == np.array(want).tobytes(), (a, b)
    assert len(windows([], [], 1e-12)) == 0
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            windows([1.0, bad], [1.0, 1.0])


@pytest.mark.parametrize("positives", [special._LOCKSTEP_ROWS - 13, special._LOCKSTEP_ROWS - 12,
                                       special._LOCKSTEP_ROWS])
def test_zero_rate_rows_match_poisson_windows(positives):
    # Zero-rate rows share a batch with positive pairs: batches of 23 and 24
    # rows, and one whose positive rows alone step in lockstep.  Each row is
    # the old zero-rate branch bit for bit, and each positive row its window
    # alone.
    rng = np.random.default_rng(21)
    pos = [tuple(10.0 ** rng.uniform(-3, 3, 2)) for _ in range(positives)]
    zero = [pair for lam in (5e-324, 0.3, 38.0, 1e5) for pair in ((lam, 0.0), (0.0, lam), (0.0, 0.0))]
    rates = pos + zero
    rng.shuffle(rates)
    l1, l2 = np.array(rates).T
    for tail_tol in (1e-10, 1e-15):
        for (a, b), (lo, p, tail) in zip(rates, windows(l1, l2, tail_tol)):
            if a == 0.0 and b == 0.0:
                want = IntegerDist.point_mass(0)
            elif b == 0.0:
                want = poisson_dist(a, tail_tol)
            elif a == 0.0:
                want = negate(poisson_dist(b, tail_tol))
            else:
                want = IntegerDist(*windows([a], [b], tail_tol)[0])
            assert (lo, tail) == (want.min_support, want.tail_mass), (a, b)
            assert p.tobytes() == want.probabilities.tobytes(), (a, b)


def test_pmf_window_at_zero_rates_matches_poisson_walk():
    # Ranges that reach below 0 and past the window on either side.
    for lam in (5e-324, 0.3, 38.0, 1e5):
        d = poisson_dist(lam, 1e-12)
        mode = int(lam)
        for lo, hi in [(-10, d.max_support + 20), (d.min_support - 5, mode), (mode, d.max_support + 3),
                       (-3, -1), (d.max_support + 1, d.max_support + 9)]:
            a, b = min(lo, mode), max(hi, mode)
            right = special._poisson_walk(lam, a, b)[lo - a : hi - a + 1]
            got = skellam.pmf_window(SkellamParams(lam, 0.0, extended=True), lo, hi)
            assert got.tobytes() == np.array(right).tobytes(), (lam, lo, hi)
            left = skellam.pmf_window(SkellamParams(0.0, lam, extended=True), -hi, -lo)
            assert left.tobytes() == np.array(right[::-1]).tobytes(), (lam, lo, hi)
    both = SkellamParams(0.0, 0.0, extended=True)
    assert skellam.pmf_window(both, -2, 1).tolist() == [0.0, 0.0, 1.0, 0.0]
    assert skellam.pmf_window(both, 3, 5).tolist() == [0.0, 0.0, 0.0]


def test_window_beyond_cap_names_the_widest_positive_then_the_first_zero_rate_window():
    def refusal(l1, l2):
        with pytest.raises(ResourceLimitError) as info:
            to_dist(SkellamParams(l1, l2, extended=True))
        return str(info.value)

    with pytest.raises(ResourceLimitError) as info:
        windows([0.0, 1e13, 3.0, 2e13, 0.0], [5e13, 1e13, 2.0, 0.0, 0.0])
    assert str(info.value) == refusal(1e13, 1e13)
    with pytest.raises(ResourceLimitError) as info:
        windows([0.0, 3.0, 2e13], [5e13, 2.0, 0.0])
    assert str(info.value) == refusal(0.0, 5e13) != refusal(2e13, 0.0)


def test_window_beyond_cap_fails_fast():
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        to_dist(SkellamParams(1e12, 1e12))
    assert time.perf_counter() - start < 1.0


def test_extreme_rates_stay_finite():
    params = SkellamParams(1e6, 0.5)
    center = round(1e6 - 0.5)
    assert 0.0 < pmf(params, center) < 1.0
    assert math.isfinite(log_pmf(params, 0))
    d = to_dist(params, 1e-9)
    assert d.window_mass() >= 1.0 - 1e-6


def test_deep_tail_log_pmf_finite():
    params = SkellamParams(2.0, 3.0)
    lp = log_pmf(params, 400)
    assert math.isfinite(lp) and lp < -700
    assert pmf(params, 400) == 0.0  # underflows cleanly


def test_extended_degenerate_laws():
    both = to_dist(SkellamParams(0.0, 0.0, extended=True))
    assert both.prob(0) == 1.0
    right = to_dist(SkellamParams(2.5, 0.0, extended=True), 1e-12)
    po = poisson_dist(2.5, 1e-12)
    for k in po.support():
        assert right.prob(int(k)) == pytest.approx(po.prob(int(k)), abs=1e-12)
    left = to_dist(SkellamParams(0.0, 2.5, extended=True), 1e-12)
    assert left.prob(-1) == pytest.approx(po.prob(1), abs=1e-12)
    assert left.max_support <= 0


def test_cdf_matches_window_cumsum():
    params = SkellamParams(3.0, 1.5)
    d = to_dist(params, 1e-13)
    run = 0.0
    for k in range(d.min_support, d.max_support + 1):
        run += d.prob(k)
        assert cdf(params, k) == pytest.approx(run, abs=1e-11)
    assert cdf(params, d.min_support - 1) <= 1e-12
    assert cdf(params, d.max_support + 5) == pytest.approx(1.0, abs=1e-12)


def test_cdf_complement_symmetry():
    a, b = SkellamParams(2.0, 0.7), SkellamParams(0.7, 2.0)
    for k in range(-8, 9):
        assert cdf(a, k) + cdf(b, -k - 1) == pytest.approx(1.0, abs=1e-10)


def test_sampling_is_deterministic_and_calibrated():
    params = SkellamParams(3.0, 2.0)
    one = sample(params, np.random.default_rng(7), 2000)
    two = sample(params, np.random.default_rng(7), 2000)
    assert np.array_equal(one, two)
    big = sample(params, np.random.default_rng(8), 200_000)
    assert big.mean() == pytest.approx(1.0, abs=5 * math.sqrt(5.0 / 200_000))
    assert big.var() == pytest.approx(5.0, rel=0.05)
    assert sample(params, np.random.default_rng(9), 0).size == 0


def test_max_pmf_bound_dominates_window():
    for l1 in RATE_GRID:
        for l2 in RATE_GRID:
            params = SkellamParams(l1, l2)
            d = to_dist(params, 1e-14)
            assert float(d.probabilities.max()) <= max_pmf_bound(params) + 1e-15


def _large_rate_pairs():
    """A seeded log-uniform grid of rate pairs in [1e-3, 1e6], with the
    skewed pairs whose centre values once cancelled the tilt."""
    rng = np.random.default_rng(20261019)
    grid = [tuple(10.0 ** rng.uniform(-3, 6, 2)) for _ in range(12)]
    return grid + [(7e5, 3e5), (6e5, 4e5), (3e5, 1e-200), (1e6, 0.5), (649212.0, 350788.0)]


def test_windows_at_large_rates_match_scipy_in_l1():
    for l1, l2 in _large_rate_pairs():
        params = SkellamParams(l1, l2)
        d = to_dist(params, 1e-12)
        ref = sstats.skellam.pmf(d.support(), l1, l2)
        assert np.abs(d.probabilities - ref).sum() <= 1e-12, (l1, l2)
        # Chernoff's window at 1e-12 is about 15 sd wide.
        assert d.max_support - d.min_support < 16.0 * math.sqrt(params.total) + 20, (l1, l2)
        center = int(round(l1 - l2))
        assert d.prob(center) == pmf(params, center), (l1, l2)


def test_log_pmf_from_order_64_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    # Centres at orders up to about 2000, then tails: (64.3, 0.001) at
    # k = -236 is where log1p in place of log loses digits, and a rate of
    # 1e-320 makes 2 la / (nu + s) underflow.
    pairs = [(70.0, 5.0), (300.0, 1e-3), (0.5, 130.0), (1000.0, 300.0), (2500.0, 500.0),
             (2000.0, 1e-200), (1.0, 1950.0), (1500.0, 1400.0), (900.0, 1000.0)]
    cases = [(l1, l2, int(round(l1 - l2))) for l1, l2 in pairs]
    cases += [(64.3, 0.001, -236), (64.3, 0.001, 200), (1000.0, 300.0, 1100),
              (1000.0, 300.0, 64), (1e-320, 5.0, 100), (5.0, 1e-300, -70)]
    with mpmath.workdps(30):
        for l1, l2, k in cases:
            a, b = mpmath.mpf(l1), mpmath.mpf(l2)
            ref = float(
                -(a + b) + k * (mpmath.log(a) - mpmath.log(b)) / 2
                + mpmath.log(mpmath.besseli(abs(k), 2 * mpmath.sqrt(a * b)))
            )
            got = log_pmf(SkellamParams(l1, l2), k)
            assert abs(got - ref) <= 1e-15 * abs(ref), (l1, l2, k, got, ref)


def test_skew_symmetry_and_centres_are_bit_exact_past_order_64():
    pairs = [(64.3, 0.001), (1000.0, 300.0), (7e5, 3e5), (3e5, 1e-200)]
    for l1, l2 in pairs:
        a, b = SkellamParams(l1, l2), SkellamParams(l2, l1)
        c = int(round(l1 - l2))
        for k in list(range(-300, 301, 7)) + [c - 1000, c, c + 1000]:
            assert log_pmf(a, k) == log_pmf(b, -k), (l1, l2, k)
    # The lockstep centres equal log_pmf bit for bit, on either side of 64.
    l1 = np.array([64.3, 1000.0, 7e5, 3e5, 50.0, 5.0, 100.0])
    l2 = np.array([0.001, 300.0, 3e5, 1e-200, 20.0, 69.0, 36.5])
    ks = np.array([64, 700, 400000, -300000, 30, -64, 63])
    got = skellam._log_pmf_rows(l1, l2, ks)
    want = [log_pmf(SkellamParams(a, b), int(k)) for a, b, k in zip(l1, l2, ks)]
    assert got.tolist() == want


def test_large_rate_window_takes_few_backward_ratio_steps(monkeypatch):
    # The centre value is O(1) work: only the walk's own orders, about
    # 16k at (7e5, 3e5), are stepped (a whole ratio table took 5.2e5).
    steps = []
    real = skellam.special.backward_ratios

    def counting(x, top, low, seed, high=None):
        steps.append(top - low)
        return real(x, top, low, seed, high)

    monkeypatch.setattr(skellam.special, "backward_ratios", counting)
    to_dist(SkellamParams(7e5, 3e5), 1e-12)
    assert 0 < sum(steps) < 5 * 10**4


def test_poisson_pmf_and_window_share_the_mode_value():
    for lam in (100.0, 1e4, 1e5, 2e6):
        mode = int(lam)
        params = SkellamParams(lam, 0.0, extended=True)
        d = to_dist(params, 1e-12)
        assert d.prob(mode) == pmf(params, mode), lam
        assert negate(d).prob(-mode) == pmf(SkellamParams(0.0, lam, extended=True), -mode)
        # Away from the mode they differ by the walk's rounding, two
        # roundings a step (below 64 pmf takes lgamma, with its own error).
        ks = np.arange(max(d.min_support, 64), d.max_support + 1)
        got = np.exp([special.log_poisson_pmf(lam, k) for k in ks.tolist()])
        walked = d.probabilities[ks - d.min_support]
        rel = np.abs(got - walked) / walked
        assert np.all(rel <= 2e-15 + 4.5e-16 * np.abs(ks - mode)), lam


def test_poisson_mode_value_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for lam in (64.5, 1e5, 2e6, 1e10):
            mode = int(lam)
            ref = float(mode * mpmath.log(lam) - lam - mpmath.loggamma(mode + 1))
            got = log_pmf(SkellamParams(lam, 0.0, extended=True), mode)
            assert abs(got - ref) <= 1e-15 * abs(ref), (lam, got, ref)


def test_pmf_domain_limits_are_typed():
    params = SkellamParams(3.0, 1.0)
    assert pmf(params, skellam.MAX_ABS_K) == 0.0
    with pytest.raises(ValueError, match="largest supported"):
        pmf(params, 10**20)
    with pytest.raises(ValueError, match="largest supported"):
        pmf(params, -(skellam.MAX_ABS_K + 1))
    with pytest.raises(ValueError, match="largest supported pmf rate"):
        pmf(SkellamParams(1e300, 1.0), 0)
    assert math.isfinite(log_pmf(SkellamParams(skellam.MAX_RATE, 1.0), 0))
