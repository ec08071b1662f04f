import math
import subprocess
import sys
import time
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.special as sps
import scipy.stats as sstats
from hypothesis import given, settings
from hypothesis import strategies as st

from skellam_stein import kernels, stein
from skellam_stein.dists import IntegerDist, ResourceLimitError, tv_distance
from skellam_stein.skellam import SkellamParams, to_dist
from skellam_stein.special import QuadratureError, bernstein_box, poisson_dist
from skellam_stein.stein import (
    BivariateState,
    TestSet,
    bound_first_diff,
    bound_first_diff_integral,
    bound_relaxed,
    bound_second_diff,
    default_state_grid,
    difference_kernel,
    exact_stein_factor,
    generator_apply,
    intermediate_law,
    prior_bound_comparison,
    set_expectation,
    skellam_expectation,
    skellam_second_diff_sum,
    stein_solution,
    stein_solution_grid,
)

QUAD_TOL = 1e-8
RESIDUAL_PARAMS = [SkellamParams(1.0, 1.0), SkellamParams(3.0, 1.0), SkellamParams(10.0, 7.0)]


def residual_test_sets():
    rng = np.random.default_rng(2026)
    sets = [TestSet.geq(-2), TestSet.geq(0), TestSet.leq(3)]
    for _ in range(3):
        size = int(rng.integers(2, 6))
        sets.append(TestSet.finite(rng.choice(np.arange(-8, 9), size, replace=False)))
    return sets


# ---------------------------------------------------------------------------
# Test sets.

def test_state_validation():
    with pytest.raises(ValueError):
        BivariateState(-1, 0)
    assert BivariateState(2, 3).x == 2


def test_testset_parse_describe_roundtrip():
    for text, norm in [
        ("k>=0", "k>=0"),
        ("k >= -2", "k>=-2"),
        ("k<=3", "k<=3"),
        ("{1,2,3}", "{1,2,3}"),
        ("{ -1, 4 }", "{-1,4}"),
    ]:
        assert TestSet.parse(text).describe() == norm
    for bad in ("k==3", "k>3", "{}", "3", "k>=", "{1,}"):
        with pytest.raises(ValueError):
            TestSet.parse(bad)


@given(st.sets(st.integers(min_value=-50, max_value=50), min_size=1, max_size=8))
@settings(max_examples=80, deadline=None)
def test_testset_finite_roundtrip(members):
    f = TestSet.finite(members)
    again = TestSet.parse(f.describe())
    assert again.members == frozenset(members)


def test_testset_indicator_and_contains():
    f = TestSet.geq(1)
    assert list(f.indicator(-1, 4)) == [0.0, 0.0, 1.0, 1.0]
    g = TestSet.leq(-2)
    assert g.contains(-2) and not g.contains(-1)
    h = TestSet.finite([0, 5])
    assert list(h.indicator(4, 3)) == [0.0, 1.0, 0.0]


def test_set_expectation_basics():
    d = IntegerDist(0, np.array([0.25, 0.75]))
    assert set_expectation(d, TestSet.geq(1)) == 0.75
    assert set_expectation(d, TestSet.finite([0])) == 0.25
    params = SkellamParams(1.0, 1.0)
    assert skellam_expectation(params, TestSet.geq(-10**6)) == pytest.approx(1.0, abs=1e-10)


# ---------------------------------------------------------------------------
# Generator and intermediate laws.

def test_generator_on_simple_functions():
    params = SkellamParams(2.0, 3.0)
    assert generator_apply(lambda x, y: 1.0, params, (4, 2)) == 0.0
    for state in [(0, 0), (3, 1), (5, 5)]:
        got = generator_apply(lambda x, y: float(x), params, state)
        assert got == pytest.approx(2.0 - state[0], abs=1e-12)


def test_intermediate_law_limits():
    params = SkellamParams(1.5, 0.7)
    stationary = to_dist(params, 1e-12)
    late = intermediate_law((3, 1), params, 40.0)
    assert tv_distance(late, stationary).value <= 1e-8
    early = intermediate_law((3, 1), params, 1e-9)
    assert early.prob(2) >= 1.0 - 1e-6
    with pytest.raises(ValueError):
        intermediate_law((3, 1), params, 0.0)


def test_intermediate_law_from_origin_is_thinned_skellam():
    params = SkellamParams(1.5, 0.7)
    t = 0.8
    grown = 1.0 - math.exp(-t)
    got = intermediate_law((0, 0), params, t)
    want = to_dist(SkellamParams(1.5 * grown, 0.7 * grown), 1e-12)
    for k in range(want.min_support, want.max_support + 1):
        assert got.prob(k) == pytest.approx(want.prob(k), abs=1e-10)


# ---------------------------------------------------------------------------
# Stein solutions.

def test_solution_trivial_sets_vanish():
    params = SkellamParams(1.0, 1.0)
    whole_line = TestSet.geq(-10**9)
    empty = TestSet.finite([])
    for state in [(0, 0), (2, 1)]:
        assert abs(stein_solution(params, whole_line, state, QUAD_TOL)) <= 10 * QUAD_TOL
        assert stein_solution(params, empty, state, QUAD_TOL) == 0.0


def test_solution_grid_matches_single_state():
    params = SkellamParams(3.0, 1.0)
    f = TestSet.geq(0)
    grid = stein_solution_grid(params, f, 3, 4, QUAD_TOL)
    assert grid.shape == (4, 5)
    for state in [(0, 0), (2, 3), (3, 1)]:
        single = stein_solution(params, f, state, QUAD_TOL)
        assert single == pytest.approx(grid[state], abs=1e-14)


@pytest.mark.parametrize("l1, l2", [(0.3, 7.0), (40.0, 25.0), (2.0, 1.0)])
def test_single_state_kernel_is_its_grid_corner(l1, l2):
    """A single state (x, y) is the (x+1) x (y+1) grid's [x, y] kernel, on
    the same window and with the same slack, up to the rounding of the
    weighted node sum."""
    params = SkellamParams(l1, l2)
    for order, tuples in {0: [()], **ALL_TUPLES}.items():
        for coords in tuples:
            for x, y in [(0, 0), (2, 3), (5, 0), (0, 4), (7, 6)]:
                grid = stein._sweep(params, order, coords, x + 1, y + 1, QUAD_TOL)
                single = stein._sweep(params, order, coords, x + 1, y + 1, QUAD_TOL, single_state=(x, y))
                assert (single.lo, single.slack) == (grid.lo, grid.slack)
                assert np.abs(single.tensor - grid.tensor[x, y]).sum() <= 1e-20, (order, coords, x, y)


def test_solution_at_zero_rates_is_a_harmonic_number():
    """At rates (0, 0), W_{x,0}(t) is Bin(x, u) and pi the point mass at 0, so
    h_f(x, 0) = -int_0^1 (1 - (1 - u)^x) du / u = -H_x for f = 1{k >= 1};
    likewise h_f(0, y) = -H_y for f = 1{k <= -1}."""
    params = SkellamParams(0.0, 0.0, extended=True)
    for n in range(1, 9):
        harmonic = math.fsum(1.0 / j for j in range(1, n + 1))
        assert abs(stein_solution(params, TestSet.geq(1), (n, 0), QUAD_TOL) + harmonic) <= QUAD_TOL
        assert abs(stein_solution(params, TestSet.leq(-1), (0, n), QUAD_TOL) + harmonic) <= QUAD_TOL


def test_stein_equation_residuals_on_declared_grid():
    """Generator applied to the solution must reproduce f - Sk{f} at x,y <= 4."""
    sets = residual_test_sets()
    worst = 0.0
    for params in RESIDUAL_PARAMS:
        for f in sets:
            grid = stein_solution_grid(params, f, 5, 5, QUAD_TOL)
            target = skellam_expectation(params, f)
            h = lambda a, b: grid[a, b]
            for x in range(5):
                for y in range(5):
                    got = generator_apply(h, params, (x, y))
                    want = (1.0 if f.contains(x - y) else 0.0) - target
                    worst = max(worst, abs(got - want))
    assert worst <= 10 * QUAD_TOL


def test_stein_identity_under_bivariate_poisson():
    params = SkellamParams(1.0, 1.0)
    f = TestSet.geq(0)
    pa = poisson_dist(params.lambda1, 5e-11)
    pb = poisson_dist(params.lambda2, 5e-11)
    xmax, ymax = pa.max_support, pb.max_support
    grid = stein_solution_grid(params, f, xmax + 1, ymax + 1, QUAD_TOL)
    total = 0.0
    for x in range(xmax + 1):
        for y in range(ymax + 1):
            total += pa.prob(x) * pb.prob(y) * generator_apply(
                lambda a, b: grid[a, b], params, (x, y)
            )
    assert abs(total) <= 10 * QUAD_TOL


# ---------------------------------------------------------------------------
# Difference kernels.

def test_kernel_mass_balances():
    params = SkellamParams(1.0, 1.0)
    for order, coords in [(1, (1,)), (1, (2,)), (2, (1, 1)), (2, (2, 2)), (2, (1, 2))]:
        g = difference_kernel(params, order, coords, (1, 2), QUAD_TOL)
        assert abs(g.total()) <= 10 * QUAD_TOL
        assert abs(g.apply(TestSet.geq(-10**9))) <= 10 * QUAD_TOL


def test_kernels_match_solution_stencils():
    params = SkellamParams(3.0, 1.0)
    rng = np.random.default_rng(77)
    states = [(int(rng.integers(0, 5)), int(rng.integers(0, 5))) for _ in range(5)]
    fsets = [TestSet.geq(0), TestSet.finite([-1, 2])]
    grid = {f: stein_solution_grid(params, f, 7, 7, QUAD_TOL) for f in fsets}
    for x, y in states:
        for f in fsets:
            h = grid[f]
            checks = {
                (1, (1,)): h[x + 1, y] - h[x, y],
                (1, (2,)): h[x, y + 1] - h[x, y],
                (2, (1, 1)): h[x + 2, y] - 2 * h[x + 1, y] + h[x, y],
                (2, (2, 2)): h[x, y + 2] - 2 * h[x, y + 1] + h[x, y],
                (2, (1, 2)): h[x + 1, y + 1] - h[x + 1, y] - h[x, y + 1] + h[x, y],
            }
            for (order, coords), want in checks.items():
                g = difference_kernel(params, order, coords, (x, y), QUAD_TOL)
                assert g.apply(f) == pytest.approx(want, abs=2 * QUAD_TOL)


# ---------------------------------------------------------------------------
# Exact factors.

def test_factor_trivial_caps():
    params = SkellamParams(0.3, 0.9)
    one = exact_stein_factor(params, 1, (1,), 6, QUAD_TOL)
    assert one.value <= 1.0 + 10 * QUAD_TOL
    two = exact_stein_factor(params, 2, (1, 1), 6, QUAD_TOL)
    assert two.value <= 2.0 + 10 * QUAD_TOL
    assert float(two) == two.value
    assert 0 <= two.argmax_state[0] <= 6 and 0 <= two.argmax_state[1] <= 6


def test_factor_domination_at_moderate_rates():
    params = SkellamParams(10.0, 10.0)
    first = exact_stein_factor(params, 1, (1,), None, QUAD_TOL)
    assert first.value <= bound_first_diff(params) + 10 * QUAD_TOL
    second = exact_stein_factor(params, 2, (1, 1), None, QUAD_TOL)
    assert second.value <= bound_second_diff(params) + 10 * QUAD_TOL


def test_factor_coordinate_symmetry():
    a, b = SkellamParams(1.0, 0.5), SkellamParams(0.5, 1.0)
    for (o, ca, cb) in [(1, (1,), (2,)), (2, (1, 1), (2, 2)), (2, (1, 2), (1, 2))]:
        fa = exact_stein_factor(a, o, ca, 12, QUAD_TOL)
        fb = exact_stein_factor(b, o, cb, 12, QUAD_TOL)
        assert fa.value == pytest.approx(fb.value, abs=2 * QUAD_TOL)


ALL_TUPLES = {1: [(1,), (2,)], 2: [(1, 1), (2, 2), (1, 2)]}


@given(
    st.sampled_from([0.2, 0.7, 1.0, 2.5, 4.0, 6.0]),
    st.sampled_from([0.2, 0.7, 1.0, 2.5, 4.0, 6.0]),
)
@settings(max_examples=6, deadline=None, derandomize=True)
def test_factor_coordinate_invariance_at_same_rates(l1, l2):
    """Every coordinate tuple of one order has the same per-state sup.

    The oracle is difference_kernel, one single-state integration per
    tuple, which does not pass through the factor's cached sweep.
    """
    params = SkellamParams(l1, l2)
    for order, tuples in ALL_TUPLES.items():
        factor = exact_stein_factor(params, order, tuples[0], 8, QUAD_TOL)
        others = [s for s in [(0, 0), (3, 1), (1, 4)] if s != factor.argmax_state]
        for state in [factor.argmax_state] + others[:2]:
            sups = [
                difference_kernel(params, order, c, state, QUAD_TOL).sup_over_indicators()
                for c in tuples
            ]
            assert max(sups) - min(sups) <= 1e-12, (order, state, sups)
            if state == factor.argmax_state:
                for value in sups:
                    assert abs(value - factor.value) <= factor.quad_error + 2 * QUAD_TOL


CRITERION_4_RATES = [0.2, 1.0, 5.0, 20.0]


@pytest.mark.parametrize("l1", CRITERION_4_RATES)
def test_coarse_tolerance_errors_cover_a_reference(l1):
    """At quad_tol 1e-3 each reported error covers the distance to a
    reference: the factor at QUAD_TOL (within its own error; criterion 4's,
    while the cache holds it), the solution at 1e-12 and the integral
    bound's closed form."""
    for l2 in CRITERION_4_RATES:
        params = SkellamParams(l1, l2)
        for order in (1, 2):
            coarse = exact_stein_factor(params, order, (1,) * order, None, 1e-3)
            ref = exact_stein_factor(params, order, (1,) * order, None, QUAD_TOL)
            assert coarse.quad_error <= 1e-3
            assert abs(coarse.value - ref.value) + ref.quad_error <= coarse.quad_error, (l2, order)
        for state in [(0, 0), (3, 1)]:
            coarse = stein_solution(params, TestSet.geq(0), state, 1e-3)
            assert abs(coarse - stein_solution(params, TestSet.geq(0), state, 1e-12)) <= 1e-3
        lam = params.total
        want = float(sps.ive(0, lam) + sps.ive(1, lam))
        assert abs(bound_first_diff_integral(params, 1e-3).value - want) <= 1e-3


def test_factor_runs_one_sweep_per_order(monkeypatch):
    calls = []
    real_sweep = stein._sweep

    def counting_sweep(*args, **kwargs):
        calls.append(args[1:3])
        return real_sweep(*args, **kwargs)

    monkeypatch.setattr(stein, "_sweep", counting_sweep)
    stein._exact_stein_factor_cached.cache_clear()
    params = SkellamParams(1.5, 2.5)
    results = {
        (order, coords): exact_stein_factor(params, order, coords, 6, QUAD_TOL)
        for order, tuples in ALL_TUPLES.items()
        for coords in tuples
    }
    assert sorted(calls) == [(1, (1,)), (2, (1, 1))]
    for (order, coords), res in results.items():
        assert res.coords == coords and res.order == order
        assert res.value == results[(order, ALL_TUPLES[order][0])].value
    assert exact_stein_factor(params, 2, (2, 1), 6, QUAD_TOL).coords == (1, 2)
    assert len(calls) == 2


def test_full_rate_tops_are_solved_once_per_rate(monkeypatch):
    """Both up-front refusals, every sweep window and the certificate's
    width ask for the same full-rate Poisson window ends: one end solve per
    rate for a rate pair and tolerance, across orders."""
    calls = []
    real_window_ends = stein.window_ends

    def counting_window_ends(*args):
        calls.append(args)
        return real_window_ends(*args)

    monkeypatch.setattr(stein, "window_ends", counting_window_ends)
    stein._full_rate_tops.cache_clear()
    stein._exact_stein_factor_cached.cache_clear()
    params = SkellamParams(4.5, 7.5)
    for order in (1, 2):
        exact_stein_factor(params, order, (1,) * order)
    assert len(calls) == 2


@pytest.mark.parametrize("quad_tol", [1e-8, 1e-10])
@pytest.mark.parametrize("rates", [(3.0, 9.0), (6.0, 6.0), (9.0, 3.0)])
def test_difference_kernel_quad_error_within_quad_tol(rates, quad_tol):
    """quad_error is the sweep's slack: the rules' bounds, within 99% of
    quad_tol, plus a rounding count.  Down to quad_tol 1e-10 the count fits
    in the rest; from about 1e-12 down it alone exceeds quad_tol."""
    params = SkellamParams(*rates)
    for order in (1, 2):
        for state in ((0, 0), (2, 1), (20, 5)):
            g = difference_kernel(params, order, (1,) * order, state, quad_tol)
            assert g.quad_error <= quad_tol, (rates, order, state, g.quad_error)


def test_single_state_sweeps_run_the_rule_kernel(monkeypatch):
    """A single state is a 1x1 grid of the one stacked-rule kernel, stepped
    to its state by the kernel's own steps: no binomial window is built."""
    shapes = []
    real_kernel = kernels.sweep_accumulate

    def counting_kernel(acc, frame, u, coef):
        shapes.append((acc.shape[:2], frame.shape[:2]))
        return real_kernel(acc, frame, u, coef)

    def no_binomial(*args):
        raise AssertionError("binomial_thin_dist called")

    monkeypatch.setattr(kernels, "sweep_accumulate", counting_kernel)
    monkeypatch.setattr(stein, "binomial_thin_dist", no_binomial)
    params = SkellamParams(1.5, 2.5)
    stein_solution(params, TestSet.geq(1), (2, 3), QUAD_TOL)
    solution_calls = len(shapes)
    difference_kernel(params, 2, (1, 2), (3, 1), QUAD_TOL)
    assert 0 < solution_calls < len(shapes)
    assert set(shapes) == {((1, 1), (15, 1))}


def test_factor_grid_certificate():
    # At (5, 5) the default grid is certified: E(G) is below its sup, so
    # upper is the grid's own interval end.
    params = SkellamParams(5.0, 5.0)
    for order, coords in [(1, (1,)), (2, (1, 1))]:
        res = exact_stein_factor(params, order, coords, None, QUAD_TOL)
        assert res.grid_max < default_state_grid(params)
        assert res.value <= res.upper <= res.value + res.quad_error
    # At (3, 9) the first-difference sup sits at state (0, 5): grid 4 cuts it
    # short, and its upper end must say so and still cover that sup.
    params = SkellamParams(3.0, 9.0)
    short = exact_stein_factor(params, 1, (1,), 4, QUAD_TOL)
    full = exact_stein_factor(params, 1, (1,), None, QUAD_TOL)
    assert short.argmax_state == (0, 4) and full.argmax_state == (0, 5)
    assert short.upper > short.value + short.quad_error
    assert short.upper >= full.value - full.quad_error
    assert full.upper <= full.value + full.quad_error


def _per_state_factors(params, order, grid_max):
    """(per-state indicator sups on {0..grid_max}^2, the sweep's slack)."""
    res = stein._sweep(params, order, (1,) * order, grid_max + 1, grid_max + 1, QUAD_TOL)
    pos = np.maximum(res.tensor, 0.0).sum(axis=2)
    neg = np.maximum(-res.tensor, 0.0).sum(axis=2)
    return np.maximum(pos, neg), res.slack


def _midpoint_half_integrals(params, orders, xs, points=20_000):
    """Midpoint estimates, per order, of (1/2) int_0^1 n_u(x, 0) du for each
    x in xs, with n_u(x, y) the L1 norm over k of u^(o-1) D^o S_u (*)
    Bin(x, u) (*) -Bin(y, u): Poisson pmfs from log-gamma at each point u,
    their difference law by FFT, and direct binomial steps.  n_u(0, x) is
    n_u(x, 0) at the swapped rates."""
    u = (np.arange(points) + 0.5) / points
    rows = []
    for lam in (params.lambda1, params.lambda2):
        k = np.arange(int(lam + 7.0 * math.sqrt(lam) + 10.0))  # past 1e-12 of the mass
        mu = lam * (1.0 - u)[:, None]
        rows.append(np.exp(k * np.log(mu) - mu - sps.gammaln(k + 1.0)) if lam else np.eye(1, k.size)[[0] * points])
    width = rows[0].shape[1] + rows[1].shape[1] - 1
    s = np.fft.irfft(np.fft.rfft(rows[0], width + 1) * np.fft.rfft(rows[1][:, ::-1], width + 1), width + 1)
    s = s[:, :width]
    q, p = (1.0 - u)[:, None], u[:, None]
    out = {}
    for order in orders:
        g = np.diff(np.pad(s, [(0, 0), (order, order + max(xs))]), n=order)
        weight = u ** (order - 1) / points
        shifted, magnitude, ones = np.empty_like(g[:, :-1]), np.empty_like(g), np.ones(g.shape[1])
        halves = {}
        for x in range(max(xs) + 1):
            if x:
                np.multiply(p, g[:, :-1], out=shifted)
                g *= q
                g[:, 1:] += shifted
            if x in xs:
                halves[x] = 0.5 * float(weight @ (np.abs(g, out=magnitude) @ ones))
        out[order] = halves
    return out


@pytest.mark.parametrize("l1", CRITERION_4_RATES)
def test_certificate_bounds_every_state(l1):
    """On criterion 4's rates: U is at least every grid sup, and E(G) at
    least every factor off {0..G}^2 on a grid twice as large; both are at
    least a 20,000-point midpoint estimate of the integral they bound."""
    for l2 in CRITERION_4_RATES:
        params = SkellamParams(l1, l2)
        estimates = _midpoint_half_integrals(params, (1, 2), [0, 1, 3, 6])
        for order in (1, 2):
            per_state, slack = _per_state_factors(params, order, 10)
            along_x = estimates[order]  # along y at (l1, l2) is along x at (l2, l1)
            for grid in (0, 2, 5):
                cert = stein._certificate(params, order, QUAD_TOL, grid)
                assert cert.grid == grid
                off = per_state.copy()
                off[: grid + 1, : grid + 1] = 0.0
                assert off.max() - slack <= cert.off_grid, (l2, order, grid)
                assert along_x[grid + 1] <= cert.off_grid, (l2, order, grid)
            assert per_state.max() - slack <= cert.all_states, (l2, order)
            assert along_x[0] <= cert.all_states, (l2, order)


def test_certificate_on_a_coarse_mesh_still_bounds():
    """Eight mesh intervals: the right-end rows and the binomial term must
    carry the bounds past the integrals at every x.  At rates 0 the law S_u
    is the point 0 at every u, and the binomial term alone does."""
    for params in (SkellamParams(0.0, 0.0, extended=True), SkellamParams(0.2, 1.0),
                   SkellamParams(5.0, 1.0), SkellamParams(20.0, 20.0)):
        estimates = _midpoint_half_integrals(params, (1, 2), [0, 4, 13])
        for order, along_x in estimates.items():
            for grid in (3, 12):
                cert = stein._certificate(params, order, QUAD_TOL, grid, intervals=8)
                assert along_x[0] <= cert.all_states, (params, order)
                assert along_x[grid + 1] <= cert.off_grid, (params, order, grid)


def test_certificate_is_tight_where_the_sup_sits_at_the_origin():
    # At equal rates and order 1 the argmax is (0, 0), where the factor is
    # half the integral U bounds: the mesh's excess alone separates them.
    for lam in (0.5, 5.0, 20.0):
        params = SkellamParams(lam, lam)
        res = exact_stein_factor(params, 1, (1,), None, QUAD_TOL)
        cert = stein._certificate(params, 1, QUAD_TOL, 0)
        assert res.argmax_state == (0, 0)
        assert res.value <= cert.all_states <= 1.01 * res.value


def test_certificate_frame_beyond_cap_refused_before_rows_are_built(monkeypatch):
    monkeypatch.setattr(stein, "poisson_rows", lambda *args: pytest.fail("rows built"))
    with pytest.raises(ResourceLimitError, match="certificate frame"):
        stein._certificate(SkellamParams(2.0, 1.0), 1, QUAD_TOL, 10**5)
    # Where the sweep's cap fails too, its message comes first.
    with pytest.raises(ResourceLimitError, match="^sweep tensor of 30001x30001 states"):
        exact_stein_factor(SkellamParams(2.0, 1.0), 1, (1,), 30000)


def test_sweep_tensor_beyond_cap_fails_fast():
    params = SkellamParams(1e3, 1e3)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        exact_stein_factor(params, 1, (1,))
    with pytest.raises(ResourceLimitError):
        stein_solution_grid(params, TestSet.geq(0), 2000, 2000)
    assert time.perf_counter() - start < 1.0


def test_oversized_sweep_refused_before_windows_are_built():
    params = SkellamParams(1e10, 1.0)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            exact_stein_factor(params, 1, (1,))
        with pytest.raises(ResourceLimitError):
            stein_solution_grid(params, TestSet.geq(0), 2, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_sweep_past_the_window_range_refused():
    # Rates past WINDOW_CAP**2 give infinite window ends: refused by size.
    params = SkellamParams(1e15, 1.0)
    with pytest.raises(ResourceLimitError):
        exact_stein_factor(params, 1, (1,), 2)
    with pytest.raises(ResourceLimitError):
        stein_solution(params, TestSet.geq(0), (0, 0))


@pytest.mark.parametrize("l1, l2", [(0.0, 2.0), (3.0, 0.0), (2.5, 7.0), (40.0, 1.0)])
def test_sweep_window_is_the_full_rate_poisson_windows(l1, l2):
    pois_tol = QUAD_TOL / 800.0
    res = stein._sweep(SkellamParams(l1, l2, extended=True), 1, (1,), 3, 4, QUAD_TOL)
    top_a, top_b = (poisson_dist(lam, pois_tol).max_support for lam in (l1, l2))
    assert res.tensor.shape[:2] == (3, 4)
    assert res.lo == -top_b - 2 - 3
    assert res.lo + res.tensor.shape[-1] - 1 == top_a + 2 + 2


def test_unreachable_sweep_tolerance_evaluates_no_node(monkeypatch):
    calls = []
    monkeypatch.setattr(kernels, "sweep_accumulate", lambda *args: calls.append(args))
    with pytest.raises(QuadratureError):
        stein._sweep(SkellamParams(2.0, 1.0), 1, (1,), 3, 3, 1e-300)
    assert calls == []


def _complex_kernel_l1(params, order, x, y, u):
    """L1 norm over k of the sweep integrand at state (x, y) and complex u,
    from its factors' coefficients: complex Poisson and binomial laws."""
    k = np.arange(90)
    lgam = np.array([math.lgamma(j + 1.0) for j in k])

    def poisson(lam):
        mu = lam * (1.0 - u)
        return np.exp(-mu + k * np.log(mu) - lgam) if lam else np.eye(1, 90)[0]

    def binomial(n):
        j = np.arange(n + 1)
        return np.array([math.comb(n, i) for i in j]) * u**j * (1.0 - u) ** (n - j)

    g = np.convolve(poisson(params.lambda1), poisson(params.lambda2)[::-1])  # k from -89
    for _ in range(order):
        g = np.diff(g, prepend=0.0, append=0.0)
    g = np.convolve(np.convolve(g, binomial(x)), binomial(y)[::-1])
    if order == 0:  # (K_u - pi) / u on k from -89 - y
        ks = np.arange(g.size) - 89 - y
        g = (g - sstats.skellam.pmf(ks, params.lambda1, params.lambda2)) / u
    return float(np.abs(g * u ** max(order - 1, 0)).sum())


@pytest.mark.parametrize("order", [0, 1, 2])
def test_norm_bound_holds_on_bernstein_ellipses(order):
    """The integrand's L1 norm on each ellipse E_rho stays below the bound
    the rule's error is taken from, at a state far from (0, 0)."""
    params, x, y = SkellamParams(3.0, 2.0), 12, 9
    theta = np.linspace(0.0, 2.0 * math.pi, 12, endpoint=False)
    for lo, hi in [(0.0, 1.0), (0.0, 0.125), (0.25, 0.5), (0.75, 1.0)]:
        log_m = stein._log_norm_bound(lo, hi, order, x + y, params.total)
        left, right, height = bernstein_box(lo, hi)
        for j in (40, 120, 200):
            centre, reach = 0.5 * (left[j] + right[j]), 0.5 * (right[j] - left[j])
            norms = [
                _complex_kernel_l1(params, order, x, y, centre + reach * math.cos(t) + 1j * height[j] * math.sin(t))
                for t in theta
            ]
            assert max(norms) <= math.exp(log_m[j]), (lo, hi, j)


def _state_l1_distance(a, b):
    """Per-state L1 distance of two sweeps' kernels over their joint window."""
    lo = min(a.lo, b.lo)
    size = max(a.lo + a.tensor.shape[-1], b.lo + b.tensor.shape[-1]) - lo
    padded = []
    for res in (a, b):
        full = np.zeros(res.tensor.shape[:-1] + (size,))
        full[..., res.lo - lo : res.lo - lo + res.tensor.shape[-1]] = res.tensor
        padded.append(full)
    return np.abs(padded[0] - padded[1]).sum(axis=-1)


def test_sweep_slack_bounds_every_state_at_coarse_tolerance():
    # At quad_tol 1e-3 a partition sized for state (0, 0) alone errs by up
    # to 20 times its slack at (29, 29).
    params = SkellamParams(5.0, 5.0)
    n = default_state_grid(params) + 1
    for order in (0, 1, 2):
        coarse = stein._sweep(params, order, (1,) * order, n, n, 1e-3)
        fine = stein._sweep(params, order, (1,) * order, n, n, 1e-12)
        assert coarse.slack <= 1e-3
        assert _state_l1_distance(coarse, fine).max() <= coarse.slack + fine.slack, order


def test_factor_error_within_tolerance_at_benchmark_rates():
    """Every stein_factors rate pair (total 12, l1 in [3, 9]) is certified
    at a grid of at most 12, within quad_tol."""
    for l1 in np.linspace(3.0, 9.0, 13):
        for order in (1, 2):
            res = exact_stein_factor(SkellamParams(l1, 12.0 - l1), order, (1,) * order, None, QUAD_TOL)
            assert res.quad_error <= QUAD_TOL, (l1, order)
            assert res.grid_max <= 12 and res.upper <= res.value + res.quad_error, (l1, order)


def test_fallback_grid_is_the_cap():
    # At (20, 0.2) the first-difference sup sits at (19, 0), far off the
    # pilot grid, so no grid below the cap is proven and the cap is swept.
    params = SkellamParams(20.0, 0.2)
    res = exact_stein_factor(params, 1, (1,), None, QUAD_TOL)
    assert res.grid_max == default_state_grid(params)
    assert res.argmax_state == (19, 0)
    assert res.value + res.quad_error <= res.upper <= bound_first_diff(params)


# VmHWM is the process's own peak RSS.  ru_maxrss is not: across fork and
# exec it keeps the parent's, here the test runner's.
_PEAK_RSS = """\
from skellam_stein import SkellamParams
from skellam_stein.stein import exact_stein_factor
exact_stein_factor(SkellamParams(20.0, 20.0), 2, (1, 1), 78)
print(next(ln.split()[1] for ln in open("/proc/self/status") if ln.startswith("VmHWM:")))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_factor_sweep_peak_memory():
    """A sweep holds one state tensor, (79, 79, 271) floats at (20, 20) on
    grid 78, into which every rule adds.  An adaptive heap of pending
    tensors peaked at 181 MB here."""
    proc = subprocess.run([sys.executable, "-c", _PEAK_RSS], capture_output=True, text=True, check=True)
    assert int(proc.stdout) / 1024 <= 120


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("single_state", [None, (3, 2)])
def test_sweep_tensor_is_the_left_to_right_sum_of_its_rules(order, single_state, monkeypatch):
    """Every rule adds into the sweep's one tensor: bit for bit the sum, left
    to right, of one fresh tensor per rule."""
    real_kernel = kernels.sweep_accumulate
    rules, summed = [], []

    def replaying_kernel(acc, frame, u, coef):
        tensor = acc.base  # the sweep's whole tensor; acc is its window's slice
        start = (acc.__array_interface__["data"][0] - tensor.__array_interface__["data"][0]) // 8
        fresh = np.zeros_like(tensor)
        real_kernel(fresh[:, :, start : start + acc.shape[2]], frame.copy(), u, coef)
        rules.append(fresh)
        real_kernel(acc, frame, u, coef)
        summed[:] = [tensor.copy()]

    monkeypatch.setattr(kernels, "sweep_accumulate", replaying_kernel)
    nx, ny = (4, 3) if single_state is not None else (5, 4)
    res = stein._sweep(SkellamParams(3.0, 4.0), order, (1,) * order, nx, ny, QUAD_TOL, single_state)
    assert len(rules) > 1
    want = rules[0]
    for fresh in rules[1:]:
        want = want + fresh
    np.testing.assert_array_equal(summed[0], want)
    if order:  # order 0 subtracts its stationary row afterwards
        got = res.tensor if single_state is not None else res.tensor.transpose(1, 0, 2)
        np.testing.assert_array_equal(got, want[0, 0] if single_state is not None else want)


def test_grid_sup_holds_one_state_tensor():
    """The sweep adds every rule into one tensor and _grid_sup reduces it a
    y-slice at a time: no second tensor of its size is ever live."""
    params, n = SkellamParams(20.0, 20.0), 41
    size = stein._sweep_window(params, n, n, stein._pois_tol(QUAD_TOL))[1]
    tracemalloc.start()
    try:
        stein._grid_sup(params, 1, n - 1, QUAD_TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * n * n * size * 8


def test_solution_kernels_of_an_earlier_rate_pair_are_released():
    tensor = stein._solution_kernel_grid(SkellamParams(1.0, 2.0), 3, 3, QUAD_TOL).tensor
    released = weakref.ref(tensor)
    del tensor
    stein_solution_grid(SkellamParams(2.0, 1.0), TestSet.geq(0), 2, 2, QUAD_TOL)
    assert released() is None


def test_default_state_grid_policy():
    assert default_state_grid(SkellamParams(0.1, 0.1)) == 10
    assert default_state_grid(SkellamParams(5.0, 5.0)) == math.ceil(10 + 6 * math.sqrt(10))


# ---------------------------------------------------------------------------
# Closed-form bounds.

def test_first_diff_bound_values():
    assert bound_first_diff(SkellamParams(2.0, 1.0)) == pytest.approx(math.exp(-0.5))
    assert bound_first_diff(SkellamParams(0.1, 0.1)) == 1.0
    assert bound_first_diff(SkellamParams(3.0, 7.0)) == bound_first_diff(SkellamParams(7.0, 3.0))


def test_second_diff_bound_values():
    lam = 4.0
    want = 1.0 / (2 * lam**2) + math.sqrt(2.0) * math.log(math.sqrt(2.0) * lam) / lam
    assert bound_second_diff(SkellamParams(4.0, 4.0)) == pytest.approx(want)
    assert bound_second_diff(SkellamParams(4.0, 4.0)) == pytest.approx(0.6439, abs=2e-4)
    assert bound_second_diff(SkellamParams(0.5, 0.5)) == 1.0
    # Rates whose square underflows once divided by zero.
    for tiny in (5e-324, 1e-170):
        assert bound_second_diff(SkellamParams(tiny, tiny)) == 1.0
        assert bound_relaxed(SkellamParams(tiny, 0.0, extended=True), 2) == 1.0


def test_second_diff_bound_monotone_for_large_rates():
    values = [bound_second_diff(SkellamParams(m, 1.0)) for m in np.linspace(2.0, 100.0, 120)]
    assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def test_relaxed_bounds():
    assert bound_relaxed(SkellamParams(1.0, 1.0), 1) == pytest.approx(math.sqrt(2.0 / math.e))
    assert bound_relaxed(SkellamParams(0.05, 0.05), 2) == 1.0
    for l1 in (0.2, 1.0, 5.0, 20.0):
        for l2 in (0.2, 1.0, 5.0, 20.0):
            p = SkellamParams(l1, l2)
            assert bound_relaxed(p, 1) >= bound_first_diff(p) - 1e-15
            assert bound_relaxed(p, 2) >= bound_second_diff(p) - 1e-15
    with pytest.raises(ValueError):
        bound_relaxed(SkellamParams(1.0, 1.0), 3)


def test_integral_bound_small_and_capped():
    tiny = bound_first_diff_integral(SkellamParams(1e-8, 1e-8))
    assert tiny.value == pytest.approx(1.0, abs=1e-6)
    for l1, l2 in [(0.2, 0.2), (1.0, 5.0), (20.0, 20.0)]:
        res = bound_first_diff_integral(SkellamParams(l1, l2))
        assert res.value <= 1.0 + QUAD_TOL
        assert res.asymptote == pytest.approx(math.sqrt(2.0 / (math.pi * (l1 + l2))))


def test_integral_bound_closed_form_oracle():
    # d/dL [L e^{-L}(I0 + I1)(L)] = e^{-L} I0(L), so the u-integral collapses
    for lam in (1.0, 40.0, 500.0):
        params = SkellamParams(lam / 2, lam / 2)
        got = bound_first_diff_integral(params).value
        want = float(sps.ive(0, lam) + sps.ive(1, lam))
        assert got == pytest.approx(want, abs=2 * QUAD_TOL)


def test_integral_bound_printed_max_form_is_vacuous():
    res = bound_first_diff_integral(SkellamParams(3.0, 2.0), printed_max_form=True)
    assert res.value == pytest.approx(1.0, abs=10 * QUAD_TOL)


def test_prior_bound_comparison():
    here, prior = prior_bound_comparison(4.0)
    assert prior == 20.0
    assert here == bound_second_diff(SkellamParams(4.0, 4.0))
    assert here < prior
    assert prior_bound_comparison(80.0)[1] == 1.0
    here6, prior6 = prior_bound_comparison(1e6)
    assert math.isfinite(here6) and math.isfinite(prior6)
    with pytest.raises(ValueError):
        prior_bound_comparison(0.0)


# ---------------------------------------------------------------------------
# Second-difference-sum probe.

def test_second_diff_sum_against_direct_loop():
    from skellam_stein.skellam import pmf

    params = SkellamParams(1.0, 1.0)
    report = skellam_second_diff_sum(params)
    lo, hi = report.window_lo, report.window_hi

    def windowed(k: int) -> float:
        return pmf(params, k) if lo <= k <= hi else 0.0

    # The report differences the windowed sequence (zero outside), with the
    # truncation honesty carried separately in tail_bound.
    total = sum(
        abs(windowed(k) - 2 * windowed(k - 1) + windowed(k - 2))
        for k in range(lo, hi + 3)
    )
    assert report.value == pytest.approx(total, abs=1e-13)
    assert report.value <= 2.0
    assert report.ratio == pytest.approx(report.value * params.total)
    assert report.tail_bound >= 0.0


def test_second_diff_sum_reflected_window_symmetry():
    params = SkellamParams(3.0, 3.0)
    a = skellam_second_diff_sum(params, window=(-7, 11))
    b = skellam_second_diff_sum(params, window=(2 - 11, 2 + 7))
    assert a.value == pytest.approx(b.value, abs=1e-14)


def test_second_diff_sum_probe_reports_only():
    params = SkellamParams(5.0, 5.0)
    report = skellam_second_diff_sum(params)
    assert isinstance(report.conjecture_holds_numerically(), bool)
    assert report.reference == pytest.approx(0.1)
    # An explicit window equal to the default one sums the same pmf values.
    explicit = skellam_second_diff_sum(params, (report.window_lo, report.window_hi))
    assert explicit.value == report.value
    assert explicit.tail_bound == pytest.approx(report.tail_bound, abs=1e-15)
