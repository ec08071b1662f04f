import math

import numpy as np
import pytest
import scipy.stats as sstats

from skellam_stein import haar_spillover
from skellam_stein.dists import empirical_dist, tv_distance
from skellam_stein.haar_spillover import (
    HaarSpilloverModel,
    bound_theorem32,
    haar_windows,
    load_signal,
    observed_coeff_params,
    simulate_spillover,
    sweep_windows,
    true_coeff_params,
    tv_observed_vs_true,
    verify,
)
from skellam_stein.skellam import to_dist
from skellam_stein.verification import empirical_tv_threshold

RAMP = np.array([1.0, 2.0, 3.0, 4.0])


def ramp_model(p):
    pos, neg = haar_windows(4, 2, 0)
    return HaarSpilloverModel(RAMP, pos, neg, p)


def test_haar_windows_examples():
    pos, neg = haar_windows(8, 1, 0)
    assert list(np.flatnonzero(pos)) == [0] and list(np.flatnonzero(neg)) == [1]
    pos, neg = haar_windows(8, 2, 1)
    assert list(np.flatnonzero(pos)) == [4, 5] and list(np.flatnonzero(neg)) == [6, 7]
    assert not np.any(pos * neg)
    for bad in [(8, 0, 0), (8, 2, 2), (8, 1, -1), (3, 2, 0)]:
        with pytest.raises(ValueError):
            haar_windows(*bad)


def test_model_validation():
    pos, neg = haar_windows(4, 1, 0)
    with pytest.raises(ValueError):
        HaarSpilloverModel(np.array([1.0, -0.5, 0.0, 0.0]), pos, neg, 0.1)
    with pytest.raises(ValueError):
        HaarSpilloverModel(RAMP, pos, pos, 0.1)  # overlap
    with pytest.raises(ValueError):
        HaarSpilloverModel(RAMP, pos, neg, 1.5)
    with pytest.raises(ValueError):
        HaarSpilloverModel(RAMP[:3], pos, neg, 0.1)
    with pytest.raises(ValueError):
        HaarSpilloverModel(RAMP, np.array([1, 0, 2, 0]), neg, 0.1)


def test_signal_ingestion(tmp_path):
    path = tmp_path / "sig.txt"
    path.write_text("1.0\n\n2.5\n0\n")
    assert list(load_signal(path)) == [1.0, 2.5, 0.0]
    path.write_text("1.0\n-2\n")
    with pytest.raises(ValueError):
        load_signal(path)
    path.write_text("1.0\nabc\n")
    with pytest.raises(ValueError):
        load_signal(path)
    path.write_text("\n")
    with pytest.raises(ValueError):
        load_signal(path)


def test_true_coeff_params_examples():
    zeros = HaarSpilloverModel(np.zeros(4), *haar_windows(4, 1, 0), 0.2)
    z = true_coeff_params(zeros)
    assert (z.lambda1, z.lambda2) == (0.0, 0.0)
    t = true_coeff_params(ramp_model(0.1))
    assert (t.lambda1, t.lambda2) == (3.0, 7.0)
    pos, neg = haar_windows(4, 2, 0)
    swapped = true_coeff_params(HaarSpilloverModel(RAMP, neg, pos, 0.1))
    assert (swapped.lambda1, swapped.lambda2) == (7.0, 3.0)


def test_observed_coeff_params_examples():
    t = true_coeff_params(ramp_model(0.0))
    o = observed_coeff_params(ramp_model(0.0))
    assert (o.lambda1, o.lambda2) == (t.lambda1, t.lambda2)
    o5 = observed_coeff_params(ramp_model(0.5))
    assert (o5.lambda1, o5.lambda2) == (4.0, 5.5)
    # constant signal where the shift stays inside the constant region
    const = HaarSpilloverModel(np.full(6, 2.5), *haar_windows(6, 1, 1), 0.3)
    oc, tc = observed_coeff_params(const), true_coeff_params(const)
    assert (oc.lambda1, oc.lambda2) == (tc.lambda1, tc.lambda2)


def test_observed_params_elementwise_identity():
    rng = np.random.default_rng(42)
    for _ in range(25):
        k = int(rng.integers(1, 7))
        n = 1 << k
        f = rng.random(n) * 10.0
        scale = int(rng.integers(1, k + 1))
        loc = int(rng.integers(0, n >> scale))
        p = float(rng.random())
        model = HaarSpilloverModel(f, *haar_windows(n, scale, loc), p)
        o = observed_coeff_params(model)
        lam1 = sum(
            model.pos[i] * ((1 - p) * f[i] + p * (f[i + 1] if i + 1 < n else 0.0))
            for i in range(n)
        )
        lam2 = sum(
            model.neg[i] * ((1 - p) * f[i] + p * (f[i + 1] if i + 1 < n else 0.0))
            for i in range(n)
        )
        assert abs(o.lambda1 - lam1) <= 1e-12
        assert abs(o.lambda2 - lam2) <= 1e-12


def test_bound_examples():
    assert bound_theorem32(ramp_model(0.0)).value == 0.0
    const = HaarSpilloverModel(np.full(6, 2.5), *haar_windows(6, 1, 1), 0.3)
    assert bound_theorem32(const).value == 0.0
    b = bound_theorem32(ramp_model(0.1))
    assert b.value == pytest.approx(5.0 * math.sqrt(0.02 / (7.0 * math.e)))
    assert (b.shift_gap_pos, b.shift_gap_neg) == (2.0, 3.0)


def test_bound_sentinel_when_windows_see_nothing():
    f = np.array([0.0, 0.0, 5.0, 0.0])
    model = HaarSpilloverModel(f, *haar_windows(4, 1, 0), 0.4)
    b = bound_theorem32(model)
    assert math.isinf(b.value) and b.max_rate == 0.0
    rep = verify(model)
    assert rep.satisfied and rep.ratio == 0.0  # vacuous domination


def test_tv_exact_zero_cases():
    for model in (ramp_model(0.0),
                  HaarSpilloverModel(np.full(6, 2.5), *haar_windows(6, 1, 1), 0.3)):
        tv = tv_observed_vs_true(model)
        assert tv.value == 0.0 and tv.slack == 0.0


def test_tv_dominated_by_bound():
    model = ramp_model(0.1)
    tv = tv_observed_vs_true(model)
    assert tv.upper <= bound_theorem32(model).value


def test_simulate_trivial_cases():
    t, o = simulate_spillover(ramp_model(0.1), np.random.default_rng(0), 0)
    assert t.size == 0 and o.size == 0
    f = np.zeros(4)
    f[2] = 3.0
    pos = np.array([0, 1, 0, 0])
    neg = np.array([0, 0, 0, 1])
    model = HaarSpilloverModel(f, pos, neg, 1.0)
    true_c, obs_c = simulate_spillover(model, np.random.default_rng(5), 64)
    assert np.all(true_c == 0)  # the positive window never sees bin 2 directly
    assert np.all(obs_c >= 0)   # every photon lands one bin down, inside pos


def test_simulate_deterministic():
    a = simulate_spillover(ramp_model(0.3), np.random.default_rng(9), 400)
    b = simulate_spillover(ramp_model(0.3), np.random.default_rng(9), 400)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_simulate_matches_closed_form_laws():
    trials = 10**5
    model = ramp_model(0.1)
    true_c, obs_c = simulate_spillover(model, np.random.default_rng(11), trials)
    true_ref = to_dist(true_coeff_params(model), 1e-10)
    obs_ref = to_dist(observed_coeff_params(model), 1e-10)
    tv_true = tv_distance(empirical_dist(true_c), true_ref)
    tv_obs = tv_distance(empirical_dist(obs_c), obs_ref)
    assert tv_true.value <= empirical_tv_threshold(trials, true_ref.probabilities.size)
    assert tv_obs.value <= empirical_tv_threshold(trials, obs_ref.probabilities.size)


def test_verify_examples_and_random_models():
    assert verify(ramp_model(0.0)).ratio == 0.0
    rep = verify(ramp_model(0.1))
    assert rep.satisfied and 0.0 < rep.ratio < 1.0
    rng = np.random.default_rng(271828)
    for _ in range(20):
        k = int(rng.integers(1, 7))
        n = 1 << k
        f = rng.random(n) * 10.0
        scale = int(rng.integers(1, k + 1))
        loc = int(rng.integers(0, n >> scale))
        model = HaarSpilloverModel(f, *haar_windows(n, scale, loc), float(rng.random()))
        assert verify(model).satisfied


def test_sweep_records_match_single_window_reports():
    f = np.array([2.0, 0.0, 3.5, 7.0, 9.0, 1.0, 4.0, 4.0,
                  0.5, 12.0, 6.0, 2.5, 8.0, 3.0, 0.0, 5.0])
    p = 0.3
    records = sweep_windows(f, p)
    assert len(records) == 8 + 4 + 2 + 1
    for r in records:
        pos, neg = haar_windows(f.size, r["scale"], r["location"])
        report = verify(HaarSpilloverModel(f, pos, neg, p))
        expected = {
            "scale": r["scale"],
            "location": r["location"],
            "tv": report.tv.value,
            "tv_slack": report.tv.slack,
            "bound": report.bound,
            "satisfied": report.satisfied,
            "ratio": report.ratio,
        }
        assert r == expected


def test_sweep_flags_jump_windows():
    """Spillover distorts coefficients near jumps far more than in flat regions."""
    f = np.array([2.0, 2.0, 2.0, 2.0, 9.0, 9.0, 9.0, 9.0])
    records = sweep_windows(f, 0.25)
    assert all(r["satisfied"] for r in records)
    by_window = {(r["scale"], r["location"]): r["ratio"] for r in records}
    smooth = max(by_window[(1, 0)], by_window[(1, 2)])
    jump = by_window[(1, 1)]
    assert jump > smooth


def test_window_sums_are_correctly_rounded():
    rng = np.random.default_rng(314)
    f = 10.0 ** rng.uniform(-8.0, 16.0, 64)
    fs = np.append(f[1:], 0.0)
    for scale in range(1, 7):
        for location in range(64 >> scale):
            pos, neg = haar_windows(64, scale, location)
            model = HaarSpilloverModel(f, pos, neg, 0.3)
            expected = tuple(
                math.fsum(v[w == 1].tolist()) for v, w in ((f, pos), (f, neg), (fs, pos), (fs, neg))
            )
            assert model.window_sums == expected


def test_non_finite_window_rates_are_refused():
    f = np.full(4, 1e308)
    with pytest.raises(ValueError, match=r"window \(scale 1, location 0\): total rate"):
        sweep_windows(f, 0.1)
    # Every window's rates are checked before any law is built: scale 1's
    # windows past the size cap do not hide scale 2's non-finite rate, true
    # or observed.
    late = np.array([1.0, 1e308, 1e308, 1.0, 2.0, 3.0, 4.0, 5.0])
    with pytest.raises(ValueError, match=r"window \(scale 2, location 0\): total rate 1e\+308 \+ 1e\+308"):
        sweep_windows(late, 0.1)
    observed = np.array([0.0, 1e308, 0.0, 0.0, 1e308, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match=r"window \(scale 2, location 0\): total rate 1e\+308 \+ 1e\+308"):
        sweep_windows(observed, 1.0)
    model = HaarSpilloverModel(f, *haar_windows(4, 2, 0), 0.1)
    with pytest.raises(ValueError, match=r"window \(pos bins 0-1, neg bins 2-3\): total rate"):
        verify(model)
    pos, neg = np.array([1, 0, 1, 1]), np.array([0, 1, 0, 0])
    with pytest.raises(ValueError, match=r"pos bins 0,2-3, neg bins 1\)"):
        HaarSpilloverModel(f, pos, neg, 0.1).window_sums
    with pytest.raises(ValueError, match=r"pos bins 0-3, neg bins none\)"):
        HaarSpilloverModel(f, np.ones(4), np.zeros(4), 0.1).window_sums


def test_empty_half_window_is_a_poisson_coefficient():
    pos, neg = np.array([1, 1, 0, 0]), np.zeros(4, dtype=np.int64)
    for a, b in ((pos, neg), (neg, pos)):
        model = HaarSpilloverModel(RAMP, a, b, 0.3)
        t, o = true_coeff_params(model), observed_coeff_params(model)
        assert sorted((t.lambda1, t.lambda2)) == [0.0, 3.0]
        assert sorted((o.lambda1, o.lambda2)) == [0.0, 0.7 * 3.0 + 0.3 * 5.0]
        report = verify(model)
        assert 0.0 < report.tv.value < 1.0 and report.satisfied
        assert bound_theorem32(model).value == report.bound


def _scipy_tv(a, b):
    """TV between Skellam(a) and Skellam(b) from scipy's pmf over +-20 sd."""
    sd = math.sqrt(max(sum(a), sum(b)))
    centre = 0.5 * ((a[0] - a[1]) + (b[0] - b[1]))
    ks = np.arange(int(centre - 20 * sd - 30), int(centre + 20 * sd + 30) + 1)
    return 0.5 * float(np.abs(sstats.skellam.pmf(ks, *a) - sstats.skellam.pmf(ks, *b)).sum())


def test_sweep_tv_within_slack_of_scipy():
    f = np.random.default_rng(2718).gamma(2.0, 2.5, 256)
    p = 0.2
    for r in sweep_windows(f, p):
        model = HaarSpilloverModel(f, *haar_windows(f.size, r["scale"], r["location"]), p)
        t, o = true_coeff_params(model), observed_coeff_params(model)
        ref = _scipy_tv((o.lambda1, o.lambda2), (t.lambda1, t.lambda2))
        assert abs(r["tv"] - ref) <= r["tv_slack"] + 1e-12, (r, ref)


@pytest.mark.parametrize("f", [
    np.random.default_rng(512).gamma(2.0, 2.5, 512),
    np.where(np.random.default_rng(3).random(128) < 0.4, 0.0,
             np.random.default_rng(4).gamma(1.5, 3.0, 128)),
])
def test_sweep_tv_bit_identical_to_tv_distance_of_to_dist(f):
    """Each row's TV interval is dists.tv_distance of the two laws' to_dist
    windows, bit for bit; coinciding laws give an exact zero.  Coarse scales
    of 512 bins hold fewer windows than a lockstep chunk, and zero bins give
    Poisson windows and point masses."""
    p, tail_tol = 0.2, 1e-10
    rows = sweep_windows(f, p, tail_tol)
    assert len(rows) == f.size - 1
    for r in rows:
        model = HaarSpilloverModel(f, *haar_windows(f.size, r["scale"], r["location"]), p)
        obs, true = observed_coeff_params(model), true_coeff_params(model)
        if (obs.lambda1, obs.lambda2) == (true.lambda1, true.lambda2):
            want = (0.0, 0.0)
        else:
            tv = tv_distance(to_dist(obs, tail_tol), to_dist(true, tail_tol))
            want = (tv.value, tv.slack)
        assert (r["tv"], r["tv_slack"]) == want, (r, want)


def test_sweep_over_many_blocks_has_the_bits_of_one_block(monkeypatch):
    """A sweep whose windows span many _SWEEP_POINTS blocks, some of one
    window larger than the block, gives the one-block sweep's columns."""
    f = np.random.default_rng(2718).gamma(2.0, 2.5, 256)
    one = sweep_windows(f, 0.2)
    real_windows, calls = haar_spillover.windows, []

    def windows(*args):
        calls.append(args[0].size // 2)
        return real_windows(*args)

    monkeypatch.setattr(haar_spillover, "_SWEEP_POINTS", 300)
    monkeypatch.setattr(haar_spillover, "windows", windows)
    many = sweep_windows(f, 0.2)
    assert len(calls) > 50 and 1 in calls and max(calls) > 1
    assert one.columns.keys() == many.columns.keys()
    for name, column in one.columns.items():
        other = many.columns[name]
        assert column.dtype == other.dtype and column.tobytes() == other.tobytes(), name
