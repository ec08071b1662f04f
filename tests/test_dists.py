import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skellam_stein.dists import (
    WINDOW_CAP,
    IntegerDist,
    ResourceLimitError,
    convolve,
    empirical_dist,
    negate,
    tv_distance,
)
from skellam_stein.skellam import SkellamParams, pmf, sample, to_dist
from skellam_stein.special import poisson_dist


def test_construction_validation():
    with pytest.raises(ValueError):
        IntegerDist(0, np.array([0.5, -0.1, 0.6]))
    with pytest.raises(ValueError):
        IntegerDist(0, np.array([0.5, 0.4]))  # mass 0.9, no tail
    with pytest.raises(ValueError):
        IntegerDist(0, np.array([0.5]), tail_mass=1.0)
    with pytest.raises(ValueError):
        IntegerDist(0, np.array([]))
    # fft-scale negative roundoff is forgiven
    d = IntegerDist(0, np.array([1.0, -1e-15]))
    assert d.prob(1) == 0.0


def test_integer_dist_clips_into_a_new_array():
    given = np.array([0.5, 0.5 + 1e-13, -1e-13])
    d = IntegerDist(0, given)
    assert given[2] == -1e-13 and d.probabilities[2] == 0.0
    assert d.probabilities[:2].tobytes() == given[:2].tobytes()
    clean = np.array([0.25, 0.75])
    assert IntegerDist(0, clean).probabilities is clean  # nothing to clip, no copy


def test_integer_dist_takes_a_read_only_array():
    given = np.array([0.5, 0.5 + 1e-13, -1e-13])
    given.flags.writeable = False
    assert IntegerDist(0, given).probabilities.tolist() == [0.5, 0.5 + 1e-13, 0.0]


@pytest.mark.parametrize("probabilities, tail", [([math.nan, 1.0], 0.0), ([math.nan], 0.0), ([0.5, math.nan], 0.5)])
def test_integer_dist_refuses_nan(probabilities, tail):
    with pytest.raises(ValueError, match="window mass \\+ tail = nan"):
        IntegerDist(0, np.array(probabilities), tail)


def test_point_mass_and_accessors():
    d = IntegerDist.point_mass(-3)
    assert d.prob(-3) == 1.0 and d.prob(0) == 0.0
    assert d.mean() == -3.0 and d.variance() == 0.0
    assert d.max_support == -3


def test_convolve_point_mass_identity():
    d = poisson_dist(2.5, 1e-12)
    out = convolve(d, IntegerDist.point_mass(0))
    assert out.min_support == d.min_support
    assert np.array_equal(out.probabilities, d.probabilities)
    shifted = convolve(IntegerDist.point_mass(2), IntegerDist.point_mass(-3))
    assert shifted.prob(-1) == 1.0


def test_convolve_poisson_pair_matches_skellam():
    a = poisson_dist(1.0, 1e-14)
    b = negate(poisson_dist(1.0, 1e-14))
    conv = convolve(a, b)
    sk = to_dist(SkellamParams(1.0, 1.0), 1e-14)
    for k in range(sk.min_support, sk.max_support + 1):
        assert conv.prob(k) == pytest.approx(sk.prob(k), abs=1e-10)


def test_convolve_tail_combination():
    a = IntegerDist(0, np.array([0.9]), tail_mass=0.1)
    b = IntegerDist(0, np.array([0.8]), tail_mass=0.2)
    out = convolve(a, b)
    assert out.tail_mass == pytest.approx(0.1 + 0.2 - 0.02)


def test_convolve_fft_path_agrees_with_direct():
    rng = np.random.default_rng(5)
    wide_p = rng.random(6000)
    wide_p /= wide_p.sum()
    small_p = rng.random(40)
    small_p /= small_p.sum()
    wide = IntegerDist(-17, wide_p)
    small = IntegerDist(3, small_p)
    out = convolve(wide, small)  # 6000-point window takes the fft route
    direct = np.convolve(wide_p, small_p)
    assert out.min_support == -14
    assert np.max(np.abs(out.probabilities - direct)) < 1e-12


def test_convolve_window_cap():
    p = np.full(6_000_000, 1.0 / 6_000_000)
    big = IntegerDist(0, p)
    with pytest.raises(ResourceLimitError):
        convolve(big, big)


@st.composite
def small_dists(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    weights = draw(
        st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n)
    )
    lo = draw(st.integers(min_value=-5, max_value=5))
    p = np.asarray(weights)
    return IntegerDist(lo, p / p.sum())


@given(small_dists(), small_dists())
@settings(max_examples=60, deadline=None)
def test_convolve_commutative(d1, d2):
    a = convolve(d1, d2)
    b = convolve(d2, d1)
    assert a.min_support == b.min_support
    assert np.max(np.abs(a.probabilities - b.probabilities)) < 1e-12


@given(small_dists(), small_dists(), small_dists())
@settings(max_examples=40, deadline=None)
def test_convolve_associative(d1, d2, d3):
    a = convolve(convolve(d1, d2), d3)
    b = convolve(d1, convolve(d2, d3))
    assert a.min_support == b.min_support
    assert np.max(np.abs(a.probabilities - b.probabilities)) < 1e-12


@given(small_dists(), small_dists())
@settings(max_examples=60, deadline=None)
def test_convolve_mean_adds(d1, d2):
    out = convolve(d1, d2)
    assert out.mean() == pytest.approx(d1.mean() + d2.mean(), abs=1e-9)


def test_negate():
    assert negate(IntegerDist.point_mass(3)).prob(-3) == 1.0
    d = poisson_dist(1.7, 1e-12)
    back = negate(negate(d))
    assert back.min_support == d.min_support
    assert np.array_equal(back.probabilities, d.probabilities)


def test_negate_skellam_skew_symmetry():
    d = negate(to_dist(SkellamParams(2.0, 0.7), 1e-12))
    e = to_dist(SkellamParams(0.7, 2.0), 1e-12)
    lo = min(d.min_support, e.min_support)
    hi = max(d.max_support, e.max_support)
    for k in range(lo, hi + 1):
        assert d.prob(k) == pytest.approx(e.prob(k), abs=1e-12)


def test_tv_identical_and_disjoint():
    d = poisson_dist(1.0, 1e-12)
    same = tv_distance(d, d)
    assert same.value == 0.0 and same.slack < 1e-11
    apart = tv_distance(IntegerDist.point_mass(0), IntegerDist.point_mass(1))
    assert apart.value == 1.0 and apart.slack == 0.0


def test_tv_symmetric_and_triangle():
    rng = np.random.default_rng(11)
    dists = []
    for _ in range(9):
        p = rng.random(int(rng.integers(2, 9)))
        dists.append(IntegerDist(int(rng.integers(-4, 4)), p / p.sum()))
    for i in range(0, 9, 3):
        a, b, c = dists[i], dists[i + 1], dists[i + 2]
        ab, ba = tv_distance(a, b), tv_distance(b, a)
        assert ab.value == ba.value
        ac, cb = tv_distance(a, c), tv_distance(c, b)
        assert ab.value <= ac.value + cb.value + 2.0 * (ab.slack + ac.slack + cb.slack) + 1e-15


def test_tv_against_independent_resummation():
    """Recompute the same TV by a plain reversed-order loop over a wider window."""
    d1 = to_dist(SkellamParams(1.0, 1.0), 1e-13)
    d2 = to_dist(SkellamParams(1.2, 1.0), 1e-13)
    got = tv_distance(d1, d2)
    p1, p2 = SkellamParams(1.0, 1.0), SkellamParams(1.2, 1.0)
    total = 0.0
    for k in range(60, -61, -1):
        total += abs(pmf(p1, k) - pmf(p2, k))
    assert got.value == pytest.approx(0.5 * total, abs=1e-9)


def test_empirical_dist_small_cases():
    one = empirical_dist([0])
    assert one.prob(0) == 1.0 and one.tail_mass == 0.0
    half = empirical_dist([0, 0, 1, 1])
    assert half.prob(0) == 0.5 and half.prob(1) == 0.5
    with pytest.raises(ValueError):
        empirical_dist([])


@pytest.mark.parametrize("samples", [
    [0.5, 1.7, 2.2], [3.0, 2.5], [math.nan], [math.inf], [1e30], ["a"], np.array([2**63, 2**63], dtype=np.uint64),
])
def test_empirical_dist_refuses_non_integral_samples(samples):
    with pytest.raises(ValueError, match="samples must be integers"):
        empirical_dist(samples)


def test_empirical_dist_takes_whole_floats_and_refuses_a_span_past_the_cap():
    whole = empirical_dist(np.array([-1.0, 2.0, 2.0]))
    ints = empirical_dist([-1, 2, 2])
    assert (whole.min_support, whole.probabilities.tobytes()) == (ints.min_support, ints.probabilities.tobytes())
    with pytest.raises(ResourceLimitError, match="empirical histogram span of 10000001 points"):
        empirical_dist([0, WINDOW_CAP])  # built an 80 MB histogram before


def test_empirical_skellam_draws_concentrate():
    trials = 10**5
    rng = np.random.default_rng(123)
    draws = sample(SkellamParams(1.0, 1.0), rng, trials)
    emp = empirical_dist(draws)
    exact = to_dist(SkellamParams(1.0, 1.0), 1e-12)
    threshold = 3.0 * math.sqrt(math.log(2.0 / 0.001) / (2.0 * trials))
    assert tv_distance(emp, exact).value <= threshold
