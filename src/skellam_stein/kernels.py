"""Numpy kernels of the hot loops: plain convolution and the state sweep."""

import numpy as np


def convolve(a, b):
    """Full linear convolution of two 1-D float64 arrays."""
    return np.convolve(a, b)


def sweep_accumulate(out, base, off0, u, weight):
    """Accumulate ``weight * (base (*) Bin(x, u) (*) -Bin(y, u))`` over a state grid.

    out    : (nx, ny, K) accumulator; entry [x, y, j] holds the value at
             integer point ``k0_out + j`` for the state (x, y).
    base   : signed table on a contiguous window whose first point sits at
             out index ``off0`` for the state (0, 0).
    u      : survival probability of each initial individual.

    Raising x adds one Bernoulli(u) survival (a right shift taken with
    probability u) and raising y subtracts one (a left shift), so the grid
    is built by one two-term recurrence step per x and per y.  The (x, y)
    contribution occupies out indices off0 - y .. off0 + len(base) + x - 1.
    """
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
