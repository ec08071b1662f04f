import numpy as np

from skellam_stein import kernels

NODES = 15


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


def _per_node_sweep(out, base, off0, u, weight):
    """The one-node recurrence kernel that preceded the stacked rule kernel."""
    nx, ny, _ = out.shape
    n = base.shape[0]
    q = 1.0 - u
    # Column c holds out index off0 - ny + c.  The outer columns stay zero,
    # so each shift reads a zero where it runs off the support.
    w = np.zeros((nx, ny + n + nx))
    w[0, ny : ny + n] = base
    for x in range(1, nx):
        w[x, 1:] = q * w[x - 1, 1:] + u * w[x - 1, :-1]
    lo = off0 - ny + 1
    for y in range(ny):
        if y:
            w[:, :-1] = q * w[:, :-1] + u * w[:, 1:]
        out[:, y, lo : lo + w.shape[1] - 2] += weight * w[:, 1:-1]


def _random_rule(rng, us):
    """Ragged node bases, offsets and weights on a window that is tight on
    both ends for some rules, so every padding column is exercised."""
    nx = int(rng.integers(1, 7))
    ny = int(rng.integers(1, 7))
    bases = [rng.standard_normal(int(rng.integers(1, 40))) for _ in us]
    offsets = [int(rng.integers(0, 6)) for _ in us]
    offsets[int(rng.integers(0, len(us)))] = 0
    offsets = [ny - 1 + o for o in offsets]
    end = max(o + b.size for o, b in zip(offsets, bases)) + nx - 1
    size = end + int(rng.integers(0, 3))
    coef = rng.standard_normal(len(us))
    return nx, ny, bases, offsets, size, coef


def _run_rule(nx, ny, bases, offsets, size, us, coef, shift=0):
    """The rule kernel on an accumulator that sits `shift` points into a
    wider array, as the sweep hands it the part of its window a rule reaches."""
    acc = np.zeros((ny, nx, size + shift))
    # Node i's base starts at window index offsets[i], frame column
    # offsets[i] + 1 of its row 0; every other entry is zero padding.
    frame = np.zeros((len(bases), nx, size + 2))
    for i, (base, off) in enumerate(zip(bases, offsets)):
        frame[i, 0, off + 1 : off + 1 + base.size] = base
    kernels.sweep_accumulate(acc[:, :, shift:], frame, np.array(us), coef)
    assert not acc[:, :, :shift].any()
    return acc[:, :, shift:].transpose(1, 0, 2)  # [x, y, j]


def test_sweep_accumulate_matches_direct_convolution():
    rng = np.random.default_rng(99)
    for rule in range(24):
        us = list(rng.random(NODES))
        if rule % 3 == 0:
            us[:2] = [0.0, 1.0]
        assert len(set(us)) == NODES
        nx, ny, bases, offsets, size, coef = _random_rule(rng, us)
        got = _run_rule(nx, ny, bases, offsets, size, us, coef, shift=rule % 2)
        direct = np.zeros((nx, ny, size))
        per_node = np.zeros((nx, ny, size))
        for i, (u, base, off0) in enumerate(zip(us, bases, offsets)):
            _reference_sweep(direct, base, off0, u, coef[i])
            _per_node_sweep(per_node, base, off0, u, coef[i])
        for want in (direct, per_node):
            scale = float(np.max(np.abs(want)))
            err = float(np.max(np.abs(got - want)))
            assert err <= 1e-14 * scale, (rule, nx, ny)


def test_sweep_accumulate_degenerate_state_grid():
    base = np.array([0.25, 0.5, 0.25])
    got = _run_rule(1, 1, [base], [2], 6, [0.3], np.array([2.0]))
    assert np.allclose(got[0, 0], [0.0, 0.0, 0.5, 1.0, 0.5, 0.0])
