"""Numpy kernels of the hot loops: plain convolution and the state sweep.

The sweep's value at state (x, y) is base (*) Bin(x, u) (*) -Bin(y, u).
Raising x adds one Bernoulli(u) survival (a right shift taken with
probability u) and raising y subtracts one (a left shift), so the state grid
is built by one two-term recurrence step per x and per y.

One call evaluates a whole quadrature rule.  Its m nodes are stacked in one
frame of shape (m, nx, K + 2): row 0 of node i holds that node's base at its
place in the sweep's global window of K points (columns 1 .. K), and the
outer columns 0 and K + 1 of every row are zero padding.  The x-recurrence
runs once over the frame with u as an (m, 1) column; each y step runs on the
flattened (m, nx (K + 2)) view.  While every state's support stays inside
the window (the caller checks it), the padding columns stay zero: the right
shifts never reach column K + 1 and the left shifts never reach column 0.
So a left shift across a row boundary reads a zero, as it would at the end
of a row.  After each y step one (m) . (m x nx (K + 2)) product adds the
rule's weighted sum into its accumulator.
"""

import numpy as np


def convolve(a, b):
    """Full linear convolution of two 1-D float64 arrays."""
    return np.convolve(a, b)


def survive(rows, u, q, out):
    """out = rows (*) Bernoulli(u), row by row, with q = 1 - u: the x step of
    sweep_accumulate.  rows and out are (m, width) with u and q (m, 1)
    columns, and out may be rows itself.  Column 0 is zero padding and is
    left as it is; a row's mass in its last column is lost.  On reversed
    rows it is the y step, q p[j] + u p[j + 1], to the same bits.
    """
    shifted = u * rows[:, :-1]
    np.multiply(q, rows[:, 1:], out=out[:, 1:])
    out[:, 1:] += shifted


def sweep_accumulate(acc, frame, u, coef):
    """Add one rule's state-grid values into its accumulator.

    acc   : (ny, nx, K) accumulator; entry [y, x, j] holds the value at
            window index j for the state (x, y).
    frame : (m, nx, K + 2) zero-padded node bases, as above; overwritten.
    u     : (m,) survival probability of each node.
    coef  : (m,) weight of each node.

    Node i at state (x, y) adds coef[i] times its base (*) Bin(x, u[i])
    (*) -Bin(y, u[i]); that occupies window indices off_i - y .. off_i +
    len(base_i) + x - 1, which must lie in 0 .. K - 1.
    """
    m, nx, width = frame.shape
    ny = acc.shape[0]
    u = np.asarray(u, dtype=np.float64).reshape(m, 1)
    q = 1.0 - u
    for x in range(1, nx):
        survive(frame[:, x - 1], u, q, frame[:, x])
    flat = frame.reshape(m, nx * width)
    head = flat[:, :-1]
    shifted = np.empty_like(head)
    part = np.empty(nx * width)
    rows = part.reshape(nx, width)[:, 1:-1]
    for y in range(ny):
        if y:
            np.multiply(u, flat[:, 1:], out=shifted)
            head *= q
            head += shifted
        np.matmul(coef, flat, out=part)
        acc[y] += rows
