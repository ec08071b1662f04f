import numpy as np

from skellam_stein import kernels


def _binomial_pmf(n, u):
    row = np.array([1.0])
    for _ in range(n):
        row = np.convolve(row, [1.0 - u, u])
    return row


def _reference_sweep(out, base, off0, u, weight):
    """Direct form: one convolution with Bin(x, u) and -Bin(y, u) per state."""
    nx, ny, _ = out.shape
    for x in range(nx):
        cx = np.convolve(base, _binomial_pmf(x, u))
        for y in range(ny):
            seg = np.convolve(cx, _binomial_pmf(y, u)[::-1])
            j0 = off0 - y
            out[x, y, j0 : j0 + seg.shape[0]] += weight * seg


def test_sweep_accumulate_matches_direct_convolution():
    rng = np.random.default_rng(99)
    us = [0.0, 1.0] + [float(rng.random()) for _ in range(12)]
    for u in us:
        nx = int(rng.integers(1, 7))
        ny = int(rng.integers(1, 7))
        base = rng.standard_normal(int(rng.integers(1, 40)))
        off0 = ny - 1 + int(rng.integers(0, 4))
        width = off0 + base.size + nx - 1 + int(rng.integers(0, 4))
        weight = float(rng.standard_normal())
        got, want = np.zeros((2, nx, ny, width))
        kernels.sweep_accumulate(got, base, off0, u, weight)
        _reference_sweep(want, base, off0, u, weight)
        scale = float(np.max(np.abs(want)))
        assert np.max(np.abs(got - want)) <= 1e-14 * scale, (u, nx, ny)


def test_sweep_accumulate_degenerate_state_grid():
    base = np.array([0.25, 0.5, 0.25])
    out = np.zeros((1, 1, 6))
    kernels.sweep_accumulate(out, base, 2, 0.3, 2.0)
    assert np.allclose(out[0, 0], [0.0, 0.0, 0.5, 1.0, 0.5, 0.0])

