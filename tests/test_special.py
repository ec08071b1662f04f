import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.special as sps
import scipy.stats as sstats

from skellam_stein import SkellamParams, special
from skellam_stein.dists import ResourceLimitError
from skellam_stein import stein
from skellam_stein.special import (
    QuadratureError,
    adaptive_gauss_kronrod,
    bernstein_box,
    bessel_i,
    binomial_thin_dist,
    kronrod_bound,
    kronrod_rule,
    log_scaled_iv,
    log_scaled_iv_pairs,
    poisson_dist,
)
from skellam_stein.skellam import to_dist as skellam_to_dist
from skellam_stein.stein import bound_first_diff_integral

BESSEL_ORDERS = [0, 1, 2, 3, 7, 20, 64, 300, 1000]
BESSEL_ARGS = [1e-12, 1e-3, 0.5, 1.0, 7.0, 29.7, 30.3, 100.0, 1e4, 1e6]


def test_scaled_bessel_matches_reference():
    for k in BESSEL_ORDERS:
        for x in BESSEL_ARGS:
            ours = bessel_i(k, x, scaled=True)
            ref = float(sps.ive(k, x))
            if ref < 1e-290:
                # reference underflowed; ours must vanish as well
                assert ours < 1e-280
            else:
                assert ours == pytest.approx(ref, rel=1e-10)


def test_bessel_order_symmetry():
    for k in (1, 5, 40):
        assert bessel_i(-k, 3.7, scaled=True) == bessel_i(k, 3.7, scaled=True)


def test_bessel_unscaled_consistency():
    for k in (0, 2, 11):
        for x in (0.5, 30.0, 400.0):
            assert bessel_i(k, x) == pytest.approx(
                bessel_i(k, x, scaled=True) * math.exp(x), rel=1e-12
            )


def test_bessel_unscaled_overflow_contract():
    # exp(710) overflows but I_0(710) itself is still representable
    assert bessel_i(0, 710.0) == pytest.approx(float(sps.iv(0, 710.0)), rel=1e-12)
    with pytest.raises(OverflowError):
        bessel_i(0, 800.0)
    assert bessel_i(0, 800.0, scaled=True) > 0


def test_bessel_domain_errors():
    with pytest.raises(ValueError):
        bessel_i(10**6 + 1, 5.0)
    with pytest.raises(ValueError):
        bessel_i(0, -1.0)
    for k in (0, 63, 64):  # an infinite argument is refused, not a nan
        with pytest.raises(ValueError):
            bessel_i(k, math.inf, scaled=True)


def test_bessel_at_zero_argument():
    assert bessel_i(0, 0.0, scaled=True) == 1.0
    assert bessel_i(3, 0.0, scaled=True) == 0.0
    assert bessel_i(0, 0.0) == 1.0
    zero = bessel_i(3, 0.0)
    assert zero == 0.0 and math.copysign(1.0, zero) == 1.0


def _log_scaled_iv_series(k: int, x: float) -> float:
    """Oracle: log(exp(-x) * I_k(x)) by the scalar ascending series; k >= 0, x >= 0."""
    if x == 0.0:
        return 0.0 if k == 0 else float("-inf")
    log_t0 = k * math.log(0.5 * x) - math.lgamma(k + 1) - x
    q = 0.25 * x * x
    s = 1.0
    term = 1.0
    log_scale = 0.0
    m = 0
    while True:
        m += 1
        term *= q / (m * (k + m))
        s += term
        if term <= s * 1e-18 and m >= 2:
            break
        if s > 1e280:
            s *= 1e-280
            term *= 1e-280
            log_scale += 280.0 * math.log(10.0)
        if m > 5_000_000:
            raise RuntimeError("Bessel series failed to converge")
    return log_t0 + log_scale + math.log(s)


def _switch_cases():
    """Orders on both sides of each series/ratio-table switch."""
    for x in (29.9, 30.0, 30.1):
        yield x, np.arange(0, 40)
    for x in (40.0, 100.0, 200.0, 400.0, 1000.0):
        edge = int(x * x / 256.0)  # the series takes over near k = x^2/256 - 1
        yield x, np.arange(max(0, edge - 8), edge + 9)


def test_log_scaled_iv_orders_across_switches():
    # The log's own rounding scales with its size (k log(x/2) and lgamma
    # terms), so the tolerance is relative to max(1, |log|).
    for x, ks in _switch_cases():
        got = np.array([log_scaled_iv(int(k), x) for k in ks])
        oracle = np.array([_log_scaled_iv_series(int(k), x) for k in ks])
        scale = np.maximum(1.0, np.abs(oracle))
        assert np.all(np.abs(got - oracle) <= 1e-13 * scale), x
        if x <= 30.0:  # every order on the series: the same arithmetic
            assert np.array_equal(got, oracle), x
        ref = sps.ive(ks, x)
        seen = ref > 1e-300
        assert np.all(
            np.abs(got[seen] - np.log(ref[seen])) <= 1e-13 * scale[seen]
        ), x
        # one order alone, bit for bit its place among the window's pairs
        assert np.array_equal(log_scaled_iv_pairs(ks, np.full(ks.shape, x)), got), x


def test_log_scaled_iv_pairs_match_single_values():
    orders = [0, 3, 40, 40000, 65535, 65536, 10**5, -70000, 5]
    xs = [0.5, 29.9, 200.0, 1e5, 1e5, 3e4, 2e5, 1e5, 1e6]
    got = log_scaled_iv_pairs(orders, xs)
    for i, (k, x) in enumerate(zip(orders, xs)):
        assert got[i] == log_scaled_iv(k, x), (k, x)
    assert log_scaled_iv_pairs([40000], [1e5])[0] == log_scaled_iv(40000, 1e5)


def test_ratio_start_of_arrays_matches_scalars():
    kmax = np.array([0, 64, 1 << 15, 1 << 16, 1 << 20], dtype=np.int32)
    x = np.array([1.0, 500.0, 1e5, 1e5, 1e6])
    got = special.ratio_start(kmax, x)
    assert got.tolist() == [special.ratio_start(int(k), float(v)) for k, v in zip(kmax, x)]


@pytest.mark.parametrize("x", [1e3, 1e6, 2e10])
def test_orders_below_64_take_at_most_64_backward_ratio_steps(monkeypatch, x):
    # Olver's orders 64 and 65 seed the recurrence: no step depends on x
    # (a ratio table from order sqrt(100 x) took 1.4e6 steps at 2e10).
    steps = []
    real = special.backward_ratios

    def counting(x, top, low, seed, high=None):
        steps.append(top - low)
        return real(x, top, low, seed, high)

    monkeypatch.setattr(special, "backward_ratios", counting)
    for k in (0, 17, 63):
        steps.clear()
        assert math.isfinite(log_scaled_iv(k, x))
        assert 0 < sum(steps) <= 64, (k, x, steps)


def test_orders_below_64_match_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20261019)
    cases = list(zip(rng.integers(0, 64, 120).tolist(),
                     np.exp(rng.uniform(math.log(30.0), math.log(2e10), 120)).tolist()))
    # Small x, where exp(-x) I_64(x) is far below 1 (its log is -47 at x = 40).
    cases += list(zip(rng.integers(0, 64, 40).tolist(), rng.uniform(30.0, 130.0, 40).tolist()))
    # The series switch: x just above 30, and x just above 16 sqrt(k + 1).
    cases += [(k, 30.1) for k in (0, 1, 2)]
    cases += [(k, math.nextafter(16.0 * math.sqrt(k + 1.0), math.inf)) for k in (3, 20, 47, 63)]
    cases += [(k, 16.0 * math.sqrt(k + 1.0) * 1.01) for k in (3, 20, 47, 63)]
    with mpmath.workdps(40):
        for k, x in cases:
            if 0.25 * x * x / (k + 1.0) <= 64.0:
                continue  # on the series
            ref = mpmath.log(mpmath.besseli(k, x)) - x
            got = log_scaled_iv(k, x)
            assert abs(math.expm1(got - float(ref))) <= 1e-14, (k, x, got, float(ref))


def test_log_scaled_iv_pairs_in_one_batch_match_single_values():
    # Seeded rows step together and series rows are summed in groups of like
    # x; each value keeps the bits it has alone.
    rng = np.random.default_rng(64)
    ks = rng.integers(0, 64, 300)
    xs = np.exp(rng.uniform(math.log(1e-3), math.log(1e9), 300))
    got = log_scaled_iv_pairs(ks, xs)
    want = [log_scaled_iv(int(k), float(x)) for k, x in zip(ks, xs)]
    assert got.tolist() == want
    seeded = (xs > 30.0) & (0.25 * xs * xs / (ks + 1.0) > 64.0)
    assert 50 < seeded.sum() < 250


def test_lockstep_ratios_from_per_row_seeds_match_floats():
    x = np.array([35.0, 1e3, 2e5, 31.5])
    seed = np.array([0.9, 0.99, 0.3, 0.0])
    tops = [64, 64, 70, 40]
    # 4 rows step row by row; 28 rows step in lockstep.
    for reps in (1, special._LOCKSTEP_ROWS // 4 + 1):
        got = special.backward_ratios_lockstep(np.tile(x, reps), np.array(tops * reps), 0, 64,
                                               np.tile(seed, reps))
        for i, top in enumerate(tops * reps):
            want = special.backward_ratios(float(x[i % 4]), top, 0, float(seed[i % 4]))[:64]
            assert got[:, i].tolist() == want + [0.0] * (64 - len(want))  # 0 above the row's top


def test_log_scaled_iv_at_subnormal_argument():
    # 0.5 x underflows to 0 at x = 5e-324: log(0.5 x) is log(x) - log(2) there.
    assert log_scaled_iv(0, 5e-324) == -5e-324
    assert log_scaled_iv(3, 5e-324) == 3 * (math.log(5e-324) - math.log(2.0)) - math.lgamma(4.0) - 5e-324
    # where 0.5 x does not underflow, the series keeps its bits
    assert log_scaled_iv(3, 1e-323) == _log_scaled_iv_series(3, 1e-323)
    assert bessel_i(0, 5e-324) == 1.0


def test_log_scaled_iv_orders_at_zero_argument():
    got = np.array([log_scaled_iv(k, 0.0) for k in (0, 1, 5, -3)])
    assert got[0] == 0.0
    assert np.all(got[1:] == -np.inf)


def test_poisson_window_against_reference():
    for lam in (1e-8, 0.5, 3.0, 47.0, 1000.0):
        d = poisson_dist(lam, 1e-12)
        assert d.tail_mass <= 1e-12
        ks = d.support()
        ref = sstats.poisson.pmf(ks, lam)
        assert np.max(np.abs(d.probabilities - ref)) < 1e-13
        assert d.mean() == pytest.approx(lam, abs=1e-9 + 1e-9 * lam)


def _poisson_ratio_loop(lam, tail_tol):
    """Self-contained Poisson window, the reference poisson_dist must match
    bit for bit (window, values and tail): ends by a direct scan of
    Chernoff's rate function I(k) = k log(k / lam) - k + lam against
    T = log(2 / tail_tol), values by ratio steps from the mode."""
    mode = int(lam)
    t_max = math.log(2.0 / tail_tol)
    reach = int(t_max / 3.0 + math.sqrt(t_max * t_max / 9.0 + 2.0 * t_max * lam)) + 2
    ks = np.arange(max(mode - reach, 0), mode + reach + 1, dtype=np.float64)
    rates = sps.xlogy(ks, ks / lam) - ks + lam
    above = rates >= t_max
    hi = int(ks[(ks > mode) & above].min()) - 1
    below = (ks < mode) & above
    lo = int(ks[below].max()) + 1 if below.any() else 0
    if mode >= special.DEBYE_MIN_ORDER:  # the skellam.pmf source, lb = 0
        log_pm = float(special.log_skellam_debye(mode, lam, 0.0)[0])
    else:
        log_pm = mode * math.log(lam) - lam - math.lgamma(mode + 1)
    p = q = pm = math.exp(log_pm)
    left, right = [], []
    for k in range(mode, lo, -1):
        p = p * k / lam
        left.append(p)
    for k in range(mode + 1, hi + 1):
        q = q * lam / k
        right.append(q)
    probs = left[::-1] + [pm] + right
    return lo, np.array(probs), max(0.0, 1.0 - math.fsum(probs))


def test_poisson_window_bit_identical_to_ratio_loop():
    rng = np.random.default_rng(20261018)
    lams = np.exp(rng.uniform(math.log(1e-4), math.log(2e5), 100))
    for lam in [float(v) for v in lams] + [1.0, 7.0, 7.5, 2e4, 1e5]:
        for tol in (1e-10, 1.25e-11, 1e-12, 1e-15):
            d = poisson_dist(lam, tol)
            lo, probs, tail = _poisson_ratio_loop(lam, tol)
            assert d.min_support == lo, (lam, tol)
            assert d.probabilities.tobytes() == probs.tobytes(), (lam, tol)
            assert d.tail_mass == tail, (lam, tol)


class _StepCountingRate(float):
    """A rate that counts the ratio steps p * k / lam and q * lam / k."""

    steps = 0

    def __rtruediv__(self, other):
        _StepCountingRate.steps += 1
        return other / float(self)

    def __rmul__(self, other):
        _StepCountingRate.steps += 1
        return other * float(self)


@pytest.mark.parametrize("lam", [0.3, 40.0, 2e4, 1e5])
def test_poisson_window_takes_one_ratio_step_per_walked_point(lam):
    """One walk from the mode over the window: its ratio steps are its
    points at k >= 0, less the mode."""
    d = poisson_dist(lam, 1e-12)
    _StepCountingRate.steps = 0
    special.log_poisson_pmf(_StepCountingRate(lam), int(lam))
    mode_steps = _StepCountingRate.steps
    _StepCountingRate.steps = 0
    walked = special._poisson_walk(_StepCountingRate(lam), d.min_support, d.max_support)
    assert np.array(walked).tobytes() == d.probabilities.tobytes()
    assert _StepCountingRate.steps - mode_steps == d.max_support - max(d.min_support, 0)


def test_poisson_windows_nest_as_the_rate_falls():
    # A sweep node at rate l (1 - u) must stay inside the full-rate window
    # (stein._sweep), and the order-0 stationary row inside -pb.max..pa.max.
    rng = np.random.default_rng(20261021)
    for _ in range(40):
        lam, lam2 = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 2))
        lower = lam * np.exp(rng.uniform(math.log(1e-3), 0.0, 6))
        for tol in (1e-10, 1.25e-11, 1e-15):
            pa, pb = poisson_dist(lam, tol), poisson_dist(lam2, tol)
            for lam_low in lower:
                low = poisson_dist(lam_low, tol)
                assert low.max_support <= pa.max_support, (lam, lam_low, tol)
                assert low.min_support <= pa.min_support, (lam, lam_low, tol)
            d = skellam_to_dist(SkellamParams(lam, lam2), tol)
            assert -pb.max_support <= d.min_support and d.max_support <= pa.max_support, (lam, lam2, tol)


def test_poisson_rows_against_reference():
    """Rows span the window from the smallest rate's lower end to the
    largest rate's upper end; they agree with each rate's own ratio walk
    (poisson_dist) to 4 roundings per step from the mode, and with scipy at
    small rates, and each leaves out at most the window's tail_tol."""
    rng = np.random.default_rng(20261019)
    eps = 2.0**-53
    for top in (1.0, 12.0, 90.0, 2e3):
        for lams in (np.concatenate([[0.0, top], top * rng.random(40)]), top * (0.5 + 0.5 * rng.random(9))):
            lo, rows = special.poisson_rows(lams, 1e-11)
            small, large = (poisson_dist(float(f(lams)), 1e-11) for f in (np.min, np.max))
            assert (lo, lo + rows.shape[1] - 1) == (small.min_support, large.max_support)
            for lam, row in zip(lams.tolist(), rows):
                own = poisson_dist(lam, 1e-11)
                ks = own.support() - lo
                steps = np.abs(own.support() - int(lam)) + 3.0
                got = row[ks]
                assert np.all(np.abs(got - own.probabilities) <= 4.0 * steps * eps * own.probabilities), lam
                assert math.fsum(row) >= 1.0 - 1e-11 - 1e-12, lam
                if top <= 90.0:
                    ref = sstats.poisson.pmf(np.arange(lo, lo + row.size), lam)
                    assert np.max(np.abs(row - ref)) <= 1e-13, lam
    assert special.poisson_rows(np.array([0.0]), 1e-11)[1].tolist() == [[1.0]]


def test_poisson_window_above_cap_refused_before_building():
    tracemalloc.start()
    try:
        # A 1e-12 window is about 15 sd wide, so the cap falls near 4.4e11.
        with pytest.raises(ResourceLimitError, match="exceeds cap"):
            poisson_dist(1e12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_poisson_degenerate():
    d = poisson_dist(0.0)
    assert d.min_support == 0 and d.prob(0) == 1.0 and d.tail_mass == 0.0


def test_binomial_window_against_reference():
    for n in (0, 1, 5, 40):
        for q in (0.0, 0.3, 1.0):
            d = binomial_thin_dist(n, q)
            ks = d.support()
            ref = sstats.binom.pmf(ks, n, q)
            assert np.max(np.abs(d.probabilities - ref)) < 1e-13


def test_binomial_degenerate_points():
    assert binomial_thin_dist(7, 0.0).prob(0) == 1.0
    assert binomial_thin_dist(7, 1.0).prob(7) == 1.0
    assert binomial_thin_dist(0, 0.4).prob(0) == 1.0


def _pointwise(fn, calls=None):
    """The rule integrand of a pointwise f(u): its values summed node by
    node, and each rule's sum added into rule.total, rule after rule."""

    def rule(points, wk):
        if calls is not None:
            calls.append(points)
        acc = None
        for u, w in zip(points, wk):
            acc = w * fn(u) if acc is None else acc + w * fn(u)
        rule.total = acc if rule.total is None else rule.total + acc

    rule.total = None
    return rule


def _exact(lo, hi):
    """The bound of an integrand the rule integrates exactly."""
    return 0.0


def test_quadrature_polynomial_exact():
    rule = _pointwise(lambda u: 3.0 * u * u)
    err = adaptive_gauss_kronrod(rule, 0.0, 1.0, 1e-12, _exact)
    value = rule.total
    assert value == pytest.approx(1.0, abs=1e-12)
    assert err <= 1e-12


def _cos40_bound(lo, hi):
    # |cos(40 u)| <= cosh(40 Im u) <= exp(40 |Im u|) inside the ellipse.
    return kronrod_bound(lo, hi, 40.0 * bernstein_box(lo, hi)[2])


def test_quadrature_oscillatory_error_is_honest():
    truth = math.sin(40.0) / 40.0
    rule = _pointwise(lambda u: math.cos(40.0 * u))
    err = adaptive_gauss_kronrod(rule, 0.0, 1.0, 1e-10, _cos40_bound)
    value = rule.total
    assert err <= 1e-10
    assert abs(value - truth) <= err


def test_quadrature_vector_integrand():
    rule = _pointwise(lambda u: np.array([1.0, u, u * u]))
    err = adaptive_gauss_kronrod(rule, 0.0, 1.0, 1e-12, _exact)
    value = rule.total
    assert np.allclose(value, [1.0, 0.5, 1.0 / 3.0], atol=1e-12)
    assert err < 1e-10


def test_quadrature_unreachable_tolerance_raises():
    # 1/sqrt(u) has no analytic continuation around 0: no rule that touches 0
    # has a finite bound.  The partition is fixed before any node, so the
    # integrand is never called.
    calls = []

    def bound(lo, hi):
        return math.inf if lo == 0.0 else 0.0

    with pytest.raises(QuadratureError):
        adaptive_gauss_kronrod(_pointwise(lambda u: 1.0 / math.sqrt(u), calls), 0.0, 1.0, 1e-13, bound)
    with pytest.raises(QuadratureError):  # bounds that never shrink: the rule cap
        adaptive_gauss_kronrod(_pointwise(math.cos, calls), 0.0, 1.0, 1e-3, lambda lo, hi: 1.0)
    with pytest.raises(QuadratureError):  # a nan bound meets no tolerance
        adaptive_gauss_kronrod(_pointwise(math.cos, calls), 0.0, 1.0, 1e-3, lambda lo, hi: math.nan)
    assert calls == []


def test_quadrature_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        adaptive_gauss_kronrod(_pointwise(lambda u: u), 0.0, 1.0, 0.0, _exact)


def test_kronrod_constants_integrate_to_degree_22():
    points, wk = kronrod_rule(-1.0, 1.0)
    assert np.all(wk > 0.0) and np.all(np.diff(points) > 0.0)
    for d in range(0, 23):
        exact = (1.0 - (-1.0) ** (d + 1)) / (d + 1)
        assert abs(float(wk @ points**d) - exact) <= 4e-16, d
    # The rule is not exact at degree 24, so the bound's degree 22 is its own.
    assert abs(float(wk @ points**24) - 2.0 / 25.0) > 1e-9


@pytest.mark.parametrize("c, lo, hi", [(20.0, 0.0, 1.0), (40.0, 0.0, 1.0), (40.0, 0.5, 1.0), (80.0, 0.25, 0.5)])
def test_kronrod_bound_covers_one_rule_on_exp(c, lo, hi):
    # exp(c u) has modulus exp(c Re u) <= exp(c right) inside the ellipse.
    # These rules err far above rounding, and above what a degree-30 bound
    # would allow (by 2 to 160 times): the degree is the rule's own.
    points, wk = kronrod_rule(lo, hi)
    exact = (math.exp(c * hi) - math.exp(c * lo)) / c
    err = abs(math.fsum(w * math.exp(c * u) for u, w in zip(points.tolist(), wk.tolist())) - exact)
    assert err > 1e-12 * exact
    assert err <= kronrod_bound(lo, hi, c * bernstein_box(lo, hi)[1])


@pytest.mark.parametrize("lam", [0.3, 12.0, 400.0])
def test_integral_bound_bit_identical_to_node_by_node(lam, monkeypatch):
    """The integral's rules sum g node by node, in node order, over the
    partition the integrator fixed."""
    rules = []
    real = stein.adaptive_gauss_kronrod

    def recording(fn, a, b, abs_tol, bound):
        def rule(points, wk):
            rules.append((points, wk))
            return fn(points, wk)

        return real(rule, a, b, abs_tol, bound)

    monkeypatch.setattr(stein, "adaptive_gauss_kronrod", recording)
    got = bound_first_diff_integral(SkellamParams(lam / 2, lam / 2), 1e-8)

    def g(u):
        return min(1.0, bessel_i(0, lam * (1.0 - u), scaled=True))

    want = None
    for points, wk in rules:
        acc = None
        for i in range(15):
            v = wk[i] * g(points[i])
            acc = v if acc is None else acc + v
        want = acc if want is None else want + acc
    assert got.value == float(want)


@pytest.mark.parametrize("l1, l2, want", [
    (0.15, 0.15, 0.8699581858223866),
    (0.5, 0.25, 0.7310530125083504),
    (20.0, 20.0, 0.12576050894969867),
])
def test_integral_bound_bits_do_not_depend_on_the_python_version(l1, l2, want):
    """The rules add their node values with plain +, in order.  From Python
    3.12 on the builtin sum of floats is compensated, which moved the last
    bit of each of these."""
    assert bound_first_diff_integral(SkellamParams(l1, l2)).value == want


def test_integral_bound_refuses_a_tolerance_that_is_not_positive():
    for quad_tol in (0.0, -1e-8, math.nan):
        with pytest.raises(ValueError, match="^quad_tol must be positive$"):
            bound_first_diff_integral(SkellamParams(3.0, 4.0), quad_tol)


def _debye_u_fractions(count):
    """u_1..u_count of DLMF 10.41.9 in exact rationals, each as its
    coefficients of t^j, t^(j+2), ..., t^(3j)."""
    u = {0: Fraction(1)}
    rows = []
    for j in range(1, count + 1):
        nxt = {}
        for p, c in u.items():
            if p:  # t^2 (1 - t^2) u'(t) / 2
                nxt[p + 1] = nxt.get(p + 1, 0) + c * p / 2
                nxt[p + 3] = nxt.get(p + 3, 0) - c * p / 2
            # int_0^t (1 - 5 v^2) u(v) dv / 8
            nxt[p + 1] = nxt.get(p + 1, 0) + c / (8 * (p + 1))
            nxt[p + 3] = nxt.get(p + 3, 0) - 5 * c / (8 * (p + 3))
        u = nxt
        rows.append([u[j + 2 * i] for i in range(j + 1)])
    return rows


def test_debye_coefficients_equal_the_exact_recurrence():
    exact = _debye_u_fractions(len(special._DEBYE_U) + 1)
    assert exact[0] == [Fraction(1, 8), Fraction(-5, 24)]  # u_1 = (3t - 5t^3) / 24
    for row, want in zip(special._DEBYE_U, exact):
        assert list(row) == [float(c) for c in want]
    # The first omitted term is far below rounding at the lowest order.
    t = np.linspace(0.0, 1.0, 1001)
    omitted = sum(float(c) * t ** (len(exact) + 2 * i) for i, c in enumerate(exact[-1]))
    assert np.abs(omitted).max() / special.DEBYE_MIN_ORDER ** len(exact) < 2e-18


def test_debye_orders_match_mpmath():
    mpmath = pytest.importorskip("mpmath")
    cases = [(x, k) for x in (200.0, 1500.0, 4000.0) for k in range(58, 72)]
    cases += [(3000.0, 300), (4000.0, 700), (2500.0, 2000), (1e4, 4000)]
    with mpmath.workdps(30):
        for x, k in cases:
            if 0.25 * x * x / (k + 1.0) <= 64.0:
                continue  # on the series
            ref = float(mpmath.log(mpmath.besseli(k, x)) - x)
            got = log_scaled_iv(k, x)
            assert abs(got - ref) <= 2e-15 * max(1.0, abs(ref)), (k, x, got, ref)


def test_debye_pmf_one_value_bit_identical_to_array():
    """A Poisson window's mode takes Olver's expansion on Python floats; it
    gives the bits of the array path, at seeded orders in [64, 1e6], rates
    near and far from the order, and rates whose ratio underflows."""
    rng = np.random.default_rng(14)
    n = 3000
    nu = np.floor(np.exp(rng.uniform(math.log(64.0), math.log(1e6), n)))
    la = nu * np.exp(rng.uniform(-4.0, 4.0, n))
    lb = np.where(rng.random(n) < 0.5, 0.0, la * rng.uniform(0.0, 2.0, n))
    nu = np.append(nu, [64.0, 1e6, 1e6])
    la = np.append(la, [1e-300, 1e-303, 5e5])
    lb = np.append(lb, [0.0, 0.0, 5e5])
    array = special.log_skellam_debye(nu, la, lb)
    one = np.array([special._log_skellam_debye(*v) for v in zip(nu.tolist(), la.tolist(), lb.tolist())])
    assert np.array_equal(one.view(np.uint64), array.view(np.uint64))
    poisson = np.array([special.log_poisson_pmf(l, k) for l, k in zip(la.tolist(), nu.astype(int).tolist())])
    array = special.log_skellam_debye(nu, la, 0.0)
    assert np.array_equal(poisson.view(np.uint64), array.view(np.uint64))


def test_poisson_window_tail_is_the_mass_outside():
    # The mode value from order 64 on is the skellam.pmf source, so values
    # sum to 1 to rounding and the reported tail is what lies outside.
    for lam in (7300.0, 1e5, 2e6):
        d = poisson_dist(lam, 1e-12)
        outside = sstats.poisson.cdf(d.min_support - 1, lam) + sstats.poisson.sf(d.max_support, lam)
        assert abs(d.tail_mass - outside) <= 1e-14, (lam, d.tail_mass, outside)


def _fuzzed_rows(rng, n):
    """n positive rate pairs: l1 log-uniform over [1e-6, 1e10], l2 at a skew
    down to 1e-17 either way or within a factor 10, centred at
    round(l1 - l2)."""
    l1 = np.exp(rng.uniform(math.log(1e-6), math.log(1e10), n))
    skew = np.exp(rng.uniform(math.log(1e-17), 0.0, n))
    l2 = np.where(rng.random(n) < 0.5, l1 * skew, l1 / skew)
    l2 = np.where(rng.random(n) < 0.3, l1 * rng.uniform(0.1, 10.0, n), l2)
    keep = l2 <= 1e10
    l1, l2 = l1[keep], l2[keep]
    return np.rint(l1 - l2), l1, l2


def _float_ends(center, l1, l2, tail_tol):
    """window_ends of each row, solved on Python floats."""
    ends = [special.window_ends(c, a, b, tail_tol) for c, a, b in zip(center.tolist(), l1.tolist(), l2.tolist())]
    return np.array(ends).T


def test_array_window_ends_match_floats_on_fuzzed_rows():
    # The array solve steps on numpy's rate and asks libm's only where its
    # margin leaves a check open; the float solve takes libm's everywhere.
    rng = np.random.default_rng(20261020)
    rows = 0
    for _ in range(30):
        center, l1, l2 = _fuzzed_rows(rng, 500)
        tail_tol = math.exp(rng.uniform(math.log(1e-300), math.log(0.5)))
        lo, hi = special.window_ends(center, l1, l2, tail_tol)
        want_lo, want_hi = _float_ends(center, l1, l2, tail_tol)
        assert lo.tolist() == want_lo.tolist() and hi.tolist() == want_hi.tolist(), tail_tol
        rows += center.size
    assert rows >= 10**4


def test_array_window_ends_match_floats_where_an_end_rests_on_the_last_bits():
    # tail_tol = 2 exp(-I(k)) puts T within a few ulps of libm's I(k) at a
    # point k next to a row's end, so the end turns on I's last bits: the
    # margin must hand these checks to libm.  T just below I(k) also needs
    # that no step goes outward from a point reaching T: out and back by one
    # would cycle forever.
    rng = np.random.default_rng(2026102)
    center, l1, l2 = _fuzzed_rows(rng, 120)
    checked = 0
    for c, a, b in zip(center.tolist(), l1.tolist(), l2.tolist()):
        lo, hi = special.window_ends(c, a, b, 1e-10)
        for k in (hi, hi + 1.0, hi + 2.0, lo - 2.0, lo - 1.0, lo):
            rate = special._chernoff_rate(k, a, b)[0]
            tail = 2.0 * math.exp(-rate)
            if not 0.0 < tail < 1.0:
                continue
            for tail_tol in (math.nextafter(tail, 0.0), tail, math.nextafter(tail, 1.0)):
                got = special.window_ends(np.array([c]), np.array([a]), np.array([b]), tail_tol)
                assert [v[0] for v in got] == list(special.window_ends(c, a, b, tail_tol)), (c, a, b, tail_tol)
                checked += 1
    assert checked >= 1000


def test_haar_sweep_end_solve_rarely_needs_the_libm_rate(monkeypatch):
    # Each check takes libm's rate only where numpy's margin leaves it open:
    # on the seed-0 2048-bin signal, none of the rows.
    from skellam_stein import haar_spillover

    seen = {"fast": 0, "exact": 0}
    fast, exact = special._chernoff_rates_fast, special._chernoff_rates

    def counting_fast(k, la, lb):
        seen["fast"] += k.size
        return fast(k, la, lb)

    def counting_exact(k, la, lb):
        seen["exact"] += k.size
        return exact(k, la, lb)

    monkeypatch.setattr(special, "_chernoff_rates_fast", counting_fast)
    monkeypatch.setattr(special, "_chernoff_rates", counting_exact)
    f = np.random.default_rng(0).gamma(2.0, 2.5, 2048)
    haar_spillover.sweep_windows(f, 0.2, 1e-10)
    assert seen["fast"] >= 4 * 2047
    assert seen["exact"] <= 0.01 * seen["fast"], seen


def test_chernoff_level_past_the_float_range_of_two_over_tail_tol():
    # T = log(2 / tail_tol) keeps its bits wherever 2 / tail_tol is finite.
    for tail_tol in (0.5, 1e-12, 1e-300, 1.2e-308):
        assert special.chernoff_level(tail_tol) == math.log(2.0 / tail_tol)
    for tail_tol in (1e-310, 5e-324):
        assert special.chernoff_level(tail_tol) == math.log(2.0) - math.log(tail_tol)
    assert special.chernoff_level(5e-324) == pytest.approx(745.13, abs=0.01)
