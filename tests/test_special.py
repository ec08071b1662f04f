import heapq
import math

import numpy as np
import pytest
import scipy.special as sps
import scipy.stats as sstats

from skellam_stein import SkellamParams
from skellam_stein.special import (
    _GK_NODES,
    _GK_WDIFF,
    _GK_WK,
    QuadratureError,
    adaptive_gauss_kronrod,
    bessel_i,
    binomial_thin_dist,
    log_scaled_iv_orders,
    pointwise_rule,
    poisson_dist,
)
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
        got = log_scaled_iv_orders(ks, x)
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
        for i in (0, ks.size // 2, ks.size - 1):  # one order alone, bit for bit
            assert log_scaled_iv_orders(ks[i : i + 1], x)[0] == got[i]


def test_log_scaled_iv_orders_at_zero_argument():
    got = log_scaled_iv_orders(np.array([0, 1, 5, -3]), 0.0)
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


def test_quadrature_polynomial_exact():
    value, err = adaptive_gauss_kronrod(pointwise_rule(lambda u: 3.0 * u * u), 0.0, 1.0, 1e-12)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert err <= 1e-12


def test_quadrature_oscillatory_error_is_honest():
    truth = math.sin(40.0) / 40.0
    value, err = adaptive_gauss_kronrod(
        pointwise_rule(lambda u: math.cos(40.0 * u)), 0.0, 1.0, 1e-10
    )
    assert abs(value - truth) <= max(err, 1e-10)


def test_quadrature_vector_integrand():
    value, err = adaptive_gauss_kronrod(
        pointwise_rule(
            lambda u: np.array([1.0, u, u * u]),
            norm=lambda a: float(np.max(np.abs(a))),
        ),
        0.0,
        1.0,
        1e-12,
    )
    assert np.allclose(value, [1.0, 0.5, 1.0 / 3.0], atol=1e-12)
    assert err < 1e-10


def test_quadrature_unreachable_tolerance_raises():
    with pytest.raises(QuadratureError):
        adaptive_gauss_kronrod(
            pointwise_rule(lambda u: 1.0 / math.sqrt(u)), 0.0, 1.0, 1e-13
        )


def test_quadrature_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        adaptive_gauss_kronrod(pointwise_rule(lambda u: u), 0.0, 1.0, 0.0)



def _node_by_node_gauss_kronrod(fn, a, b, abs_tol, norm, max_depth=60):
    """The integrator before a rule became one integrand call: fn(u) per
    node, summed in node order.  Kept as the oracle of pointwise_rule."""

    def rule(lo, hi):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        acc_k = None
        acc_d = None
        for i in range(15):
            v = fn(mid + half * _GK_NODES[i])
            wk = half * _GK_WK[i]
            wd = half * _GK_WDIFF[i]
            if acc_k is None:
                acc_k = wk * v
                acc_d = wd * v
            else:
                acc_k += wk * v
                acc_d += wd * v
        return acc_k, norm(acc_d)

    done_val = None
    done_err = 0.0
    tick = 0
    val, err = rule(a, b)
    heap = [(-err, tick, a, b, 0, val, err)]
    pending_err = err
    floor = abs_tol / (64.0 * 15.0)
    while heap:
        if done_err + pending_err <= abs_tol:
            break
        neg, _, lo, hi, depth, val, err = heapq.heappop(heap)
        pending_err -= err
        if err <= floor:
            done_val = val if done_val is None else done_val + val
            done_err += err
            continue
        if depth >= max_depth:
            raise QuadratureError(f"unmet on [{lo}, {hi}]")
        mid = 0.5 * (lo + hi)
        for c_lo, c_hi in ((lo, mid), (mid, hi)):
            c_val, c_err = rule(c_lo, c_hi)
            tick += 1
            heapq.heappush(heap, (-c_err, tick, c_lo, c_hi, depth + 1, c_val, c_err))
            pending_err += c_err
    for _, _, _, _, _, val, err in heap:
        done_val = val if done_val is None else done_val + val
        done_err += err
    return done_val, done_err


def _abs(v):
    return abs(v)


def _max_abs(a):
    return float(np.max(np.abs(a)))


@pytest.mark.parametrize(
    "fn, tol, norm",
    [
        (lambda u: 3.0 * u * u, 1e-12, _abs),
        (lambda u: math.cos(40.0 * u), 1e-10, _abs),
        (lambda u: np.array([1.0, u, u * u]), 1e-12, _max_abs),
        (lambda u: np.array([math.exp(-30.0 * u), math.sqrt(u)]), 1e-9, _max_abs),
    ],
    ids=["polynomial", "oscillatory", "vector", "vector-steep"],
)
def test_pointwise_rule_bit_identical_to_node_by_node(fn, tol, norm):
    value, err = adaptive_gauss_kronrod(pointwise_rule(fn, norm), 0.0, 1.0, tol)
    want_value, want_err = _node_by_node_gauss_kronrod(fn, 0.0, 1.0, tol, norm)
    assert type(value) is type(want_value)
    assert np.array_equal(value, want_value)
    assert err == want_err


def test_pointwise_rule_unreachable_tolerance_raises_alike():
    def fn(u):
        return 1.0 / math.sqrt(u)

    with pytest.raises(QuadratureError):
        _node_by_node_gauss_kronrod(fn, 0.0, 1.0, 1e-13, _abs)
    with pytest.raises(QuadratureError):
        adaptive_gauss_kronrod(pointwise_rule(fn), 0.0, 1.0, 1e-13)


@pytest.mark.parametrize("lam", [0.3, 12.0, 400.0])
def test_integral_bound_bit_identical_to_node_by_node(lam):
    def g(u):
        return min(1.0, bessel_i(0, lam * (1.0 - u), scaled=True))

    want, _ = _node_by_node_gauss_kronrod(g, 0.0, 1.0, 1e-8, _abs)
    got = bound_first_diff_integral(SkellamParams(lam / 2, lam / 2), 1e-8)
    assert got.value == float(want)
