import itertools
import json
import logging
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skellam_stein import noisy_graph
from skellam_stein.cli import main
from skellam_stein.dists import (
    IntegerDist,
    ResourceLimitError,
    convolve,
    empirical_dist,
    tv_distance,
)
from skellam_stein.noisy_graph import (
    EXACT_EDGE_CAP,
    SHIFT_ADD_WIDTH,
    SPLIT_PAIRS,
    NoisyGraphModel,
    bound_theorem31,
    edge_difference_dist,
    load_model,
    simulate,
    skellam_params,
    verify,
)
from skellam_stein.skellam import SkellamParams, to_dist
from skellam_stein.stein import bound_relaxed
from skellam_stein.verification import empirical_tv_threshold

TWO_EDGE = NoisyGraphModel([0.5, 0.5], [0.2, 0.2], [0.1, 0.1])


def test_model_validation():
    with pytest.raises(ValueError):
        NoisyGraphModel([0.5], [0.2, 0.3], [0.1])
    with pytest.raises(ValueError):
        NoisyGraphModel([1.5], [0.2], [0.1])
    with pytest.raises(ValueError):
        NoisyGraphModel([], [], [])
    with pytest.raises(ValueError):
        NoisyGraphModel.homogeneous(0, 0.5, 0.5, 0.5)


def test_model_ingestion(tmp_path):
    doc = {"p": [0.5, 0.5], "r": [0.2, 0.2], "s": [0.1, 0.1]}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    m = load_model(path)
    assert m.n == 2 and m.p[0] == 0.5
    h = NoisyGraphModel.from_dict({"n": 4, "p": 0.3, "r": 0.1, "s": 0.05})
    assert h.n == 4 and np.all(h.r == 0.1)
    for bad in ({"p": [0.5], "r": [0.2]}, [], {"p": [2.0], "r": [0.1], "s": [0.1]}):
        with pytest.raises(ValueError):
            NoisyGraphModel.from_dict(bad)


def test_skellam_params_examples():
    z = skellam_params(NoisyGraphModel([1.0], [0.0], [0.3]))
    assert (z.lambda1, z.lambda2) == (0.0, 0.0) and z.extended
    two = skellam_params(TWO_EDGE)
    assert two.lambda1 == pytest.approx(0.2) and two.lambda2 == pytest.approx(0.1)
    hom = skellam_params(NoisyGraphModel.homogeneous(7, 0.4, 0.3, 0.2))
    assert hom.lambda1 == pytest.approx(7 * 0.4 * 0.3)
    assert hom.lambda2 == pytest.approx(7 * 0.2 * 0.6)


def test_edge_difference_point_masses():
    up = edge_difference_dist(NoisyGraphModel([1.0], [1.0], [0.6]))
    assert up.prob(1) == 1.0
    down = edge_difference_dist(NoisyGraphModel([0.0], [0.6], [1.0]))
    assert down.prob(-1) == 1.0


def test_edge_difference_two_edge_expansion():
    d = edge_difference_dist(TWO_EDGE)
    assert d.min_support == -2 and d.max_support == 2
    assert d.prob(2) == pytest.approx(0.1 * 0.1)
    assert d.prob(-2) == pytest.approx(0.05 * 0.05)
    assert d.prob(1) == pytest.approx(2 * 0.1 * (1 - 0.1 - 0.05))
    assert d.tail_mass == 0.0


def test_edge_difference_cap():
    n = 10**5 + 1
    model = NoisyGraphModel.homogeneous(n, 0.5, 0.1, 0.1)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            edge_difference_dist(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n // 4  # refused before even one rate vector exists


def test_edge_difference_at_cap():
    n = EXACT_EDGE_CAP
    model = NoisyGraphModel.homogeneous(n, 0.3, 0.1, 0.05)
    params = skellam_params(model)
    d = edge_difference_dist(model)
    assert (d.min_support, d.max_support, d.tail_mass) == (-n, n, 0.0)
    assert abs(d.window_mass() - 1.0) <= 1e-9
    assert d.mean() == pytest.approx(params.lambda1 - params.lambda2, abs=1e-8)


def _pairwise_tree_dist(model: NoisyGraphModel) -> IntegerDist:
    """The pairwise tree of one IntegerDist per pair that
    edge_difference_dist replaced, kept as the oracle."""
    plus = model.drop_rates
    minus = model.invent_rates
    layer = [
        IntegerDist(-1, np.array([mi, 1.0 - pl - mi, pl]))
        for pl, mi in zip(plus, minus)
    ]
    while len(layer) > 1:
        nxt = [
            convolve(layer[i], layer[i + 1]) if i + 1 < len(layer) else layer[i]
            for i in range(0, len(layer), 2)
        ]
        layer = nxt
    return layer[0]


def _oracle_models(n: int):
    rng = np.random.default_rng(n)
    yield "random", NoisyGraphModel(rng.random(n), rng.random(n), rng.random(n))
    yield "zero", NoisyGraphModel.homogeneous(n, 0.4, 0.0, 0.0)
    yield "all drop", NoisyGraphModel.homogeneous(n, 1.0, 1.0, 0.3)
    yield "all invent", NoisyGraphModel.homogeneous(n, 0.0, 0.3, 1.0)
    r, s = rng.random(n), rng.random(n)
    quiet = rng.random(n) < 0.5
    r[quiet] = 0.0
    s[quiet] = 0.0
    yield "mixed", NoisyGraphModel(rng.random(n), r, s)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33, 1000, 5000])
def test_edge_difference_matches_pairwise_tree(n):
    for kind, model in _oracle_models(n):
        got = edge_difference_dist(model)
        want = _pairwise_tree_dist(model)
        assert got.min_support == want.min_support == -n, kind
        assert got.probabilities.size == want.probabilities.size == 2 * n + 1, kind
        assert got.tail_mass == want.tail_mass == 0.0, kind
        assert np.abs(got.probabilities - want.probabilities).max() <= 1e-15, kind
        approx = to_dist(skellam_params(model), 1e-10)
        tv_got = tv_distance(got, approx).value
        assert abs(tv_got - tv_distance(want, approx).value) <= 1e-13, kind


def _stacked_convolve_pairs(rows: np.ndarray) -> np.ndarray:
    a, b = rows[0::2], rows[1::2]
    m, w = a.shape
    n_out = 2 * w - 1
    if w <= SHIFT_ADD_WIDTH:
        out = np.zeros((m, n_out))
        for j in range(w):
            out[:, j : j + w] += a[:, j, None] * b
        return out
    n_fft = 1 << (n_out - 2).bit_length()
    out = np.empty((m, n_out))
    out[:, :-1] = np.fft.irfft(
        np.fft.rfft(a, n_fft) * np.fft.rfft(b, n_fft), n_fft
    )[:, : n_out - 1]
    out[:, 0] = a[:, 0] * b[:, 0]
    out[:, -1] = a[:, -1] * b[:, -1]
    return np.maximum(out, 0.0, out=out)


def _stacked_tree_dist(model: NoisyGraphModel) -> IntegerDist:
    """The serial tree of one stacked row array per level that the
    two-subtree, column-layout tree replaced, kept as the bit oracle."""
    n = model.n
    plus = model.drop_rates
    minus = model.invent_rates
    rows = np.column_stack([minus, 1.0 - plus - minus, plus])
    while rows.shape[0] > 1:
        if rows.shape[0] % 2:
            pad = np.zeros((1, rows.shape[1]))
            pad[0, rows.shape[1] // 2] = 1.0
            rows = np.vstack([rows, pad])
        rows = _stacked_convolve_pairs(rows)
    centre = rows.shape[1] // 2
    return IntegerDist(-n, rows[0, centre - n : centre + n + 1])


def _same_bits(got: IntegerDist, want: IntegerDist) -> bool:
    return (
        got.min_support == want.min_support
        and got.probabilities.tobytes() == want.probabilities.tobytes()
    )


_AROUND_SPLIT = sorted({
    k + d
    for k in (SPLIT_PAIRS - 1, 1 << (SPLIT_PAIRS - 1).bit_length())
    for d in (-1, 0, 1)
})


@pytest.mark.parametrize(
    "n",
    [1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33, 63, 64, 65, 1000, 4095, 4096, 4097, 5000]
    + [8191, 8192, 8193] + _AROUND_SPLIT,
)
def test_edge_difference_bits_match_stacked_tree(n):
    for kind, model in _oracle_models(n):
        assert _same_bits(edge_difference_dist(model), _stacked_tree_dist(model)), kind


def test_edge_difference_bits_match_stacked_tree_at_cap():
    rng = np.random.default_rng(2024)
    n = EXACT_EDGE_CAP
    model = NoisyGraphModel(rng.random(n), rng.random(n), rng.random(n))
    assert _same_bits(edge_difference_dist(model), _stacked_tree_dist(model))


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_edge_difference_subtree_failure_is_raised_and_no_thread_is_left(monkeypatch, failing):
    real_levels = noisy_graph._levels
    threads = set()

    def levels(*args):
        worker = threading.current_thread() is not threading.main_thread()
        threads.add(worker)
        if worker == (failing == "worker"):
            raise MemoryError(f"{failing} subtree")
        return real_levels(*args)

    monkeypatch.setattr(noisy_graph, "_levels", levels)
    before = threading.active_count()
    model = NoisyGraphModel.homogeneous(SPLIT_PAIRS, 0.3, 0.1, 0.05)
    with pytest.raises(MemoryError, match=f"{failing} subtree"):
        edge_difference_dist(model)
    assert threading.active_count() == before
    assert threads == {True, False}  # one subtree on each thread


def test_edge_difference_over_cap_refused_before_any_thread(monkeypatch):
    def start(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", start)
    model = NoisyGraphModel.homogeneous(EXACT_EDGE_CAP + 1, 0.3, 0.1, 0.05)
    with pytest.raises(ResourceLimitError):
        edge_difference_dist(model)


def test_edge_difference_debug_event(caplog, capsys):
    rng = np.random.default_rng(5)
    with caplog.at_level(logging.DEBUG, logger="skellam_stein"):
        edge_difference_dist(NoisyGraphModel(rng.random(100), rng.random(100), rng.random(100)))
        edge_difference_dist(TWO_EDGE)
    events = [r for r in caplog.records if r.msg.startswith("edge_difference_dist")]
    assert [r.levelno for r in events] == [logging.DEBUG] * 2
    # 100 rows take 7 levels; rows first exceed 32 points (33) at level 5.
    n, levels, rfft_level, mass_defect = events[0].args
    assert (n, levels, rfft_level) == (100, 7, 5)
    assert 0.0 <= mass_defect <= 1e-12
    assert events[1].args[:3] == (2, 1, None)

    # At the default log level the event is not emitted: CLI output is unchanged.
    assert main(["verify", "graph", "--homogeneous", "3", "0.5", "0.2", "0.1"]) == 0
    assert capsys.readouterr().err == ""


@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_mean_identity(n, seed):
    rng = np.random.default_rng(seed)
    model = NoisyGraphModel(rng.random(n), rng.random(n), rng.random(n))
    params = skellam_params(model)
    d = edge_difference_dist(model)
    assert d.mean() == pytest.approx(params.lambda1 - params.lambda2, abs=1e-10)


def test_bound_reductions_match_general_formula():
    n, p, r, s = 100, 0.3, 0.1, 0.05
    q = p * r + (1 - p) * s
    reduced = 2.0 / n + q * 2.0 * math.sqrt(2.0) * math.log(math.sqrt(2.0) * n * q)
    general = bound_theorem31(NoisyGraphModel.homogeneous(n, p, r, s)).value
    assert abs(reduced - general) <= 1e-12

    n, lam = 200, 2.0
    pc = 0.5
    model = NoisyGraphModel.homogeneous(n, pc, lam / n / pc, lam / n / (1 - pc))
    centered = (1.0 / n) * (2.0 + 4.0 * math.sqrt(2.0) * lam * math.log(2.0 * math.sqrt(2.0) * lam))
    assert abs(centered - bound_theorem31(model).value) <= 1e-12


def test_bound_is_s2_times_the_unclamped_order_2_relaxed_factor_at_s1():
    rng = np.random.default_rng(11)
    n = 1000
    models = [
        NoisyGraphModel.homogeneous(100, 0.3, 0.1, 0.05),
        NoisyGraphModel(rng.uniform(0.05, 0.5, n), rng.uniform(0.0, 0.2, n), rng.uniform(0.0, 0.2, n)),
    ]
    matched = 0
    for model in models:
        b = bound_theorem31(model)
        factor = bound_relaxed(SkellamParams(b.s1, 0.0, extended=True), 2)
        if factor < 1.0:
            assert abs(b.value - b.s2 * factor) <= 4 * math.ulp(b.value), (b, factor)
            matched += 1
        else:  # the clamp at 1, which the bound does not take
            assert b.value >= b.s2
    assert matched >= 1


def test_bound_degenerate_and_log_clamp():
    z = bound_theorem31(NoisyGraphModel([1.0], [0.0], [0.0]))
    assert z.value == 0.0 and float(z) == 0.0
    b = bound_theorem31(TWO_EDGE)  # sqrt(2) * s1 < 1, so the raw log is negative
    assert b.raw_log_value < b.value
    assert b.s1 == pytest.approx(0.3)
    assert b.s2 == pytest.approx(2 * 0.15**2)


def test_simulate_trivial_and_deterministic():
    assert simulate(TWO_EDGE, np.random.default_rng(0), 0).size == 0
    sure = simulate(NoisyGraphModel([1.0], [1.0], [0.5]), np.random.default_rng(1), 50)
    assert np.all(sure == 1)
    a = simulate(TWO_EDGE, np.random.default_rng(3), 500)
    b = simulate(TWO_EDGE, np.random.default_rng(3), 500)
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        simulate(TWO_EDGE, np.random.default_rng(0), -1)


def test_simulate_matches_exact_law():
    trials = 10**5
    draws = simulate(TWO_EDGE, np.random.default_rng(7), trials)
    exact = edge_difference_dist(TWO_EDGE)
    threshold = empirical_tv_threshold(trials, exact.probabilities.size)
    assert tv_distance(empirical_dist(draws), exact).value <= threshold


def test_verify_examples():
    rep = verify(NoisyGraphModel([1.0], [0.0], [0.0]))
    assert rep.satisfied and rep.ratio == 0.0 and rep.tv.value == 0.0
    rep = verify(TWO_EDGE)
    assert rep.satisfied
    assert rep.tv.upper <= rep.bound
    assert "bound_raw_log" in rep.extra


def test_verify_random_models_dominated():
    rng = np.random.default_rng(512)
    for _ in range(20):
        n = int(rng.integers(1, 51))
        model = NoisyGraphModel(rng.random(n), rng.random(n), rng.random(n))
        assert verify(model).satisfied


def test_verify_corner_models_dominated():
    values = (0.0, 0.5, 1.0)
    for p, r, s in itertools.product(values, repeat=3):
        assert verify(NoisyGraphModel.homogeneous(5, p, r, s)).satisfied


def test_all_quiet_edges_give_zero_tv():
    model = NoisyGraphModel([0.3, 0.9], [0.0, 0.0], [0.0, 0.0])
    d = edge_difference_dist(model)
    assert d.prob(0) == 1.0
    rep = verify(model)
    assert rep.tv.value == 0.0 and rep.bound == 0.0 and rep.satisfied
