"""Hot numeric kernels for candidate-major scoring.

Shapes follow the scoring batch: B contexts, C candidates per context, l
(padded) members per context, d embedding dims. Candidate-side inputs are
`(B, C, d)`, member-side inputs `(B, l, d)`, and context-side inputs
`(B, d)`. Every candidate of a context shares that context's members, so
member tensors are passed once per context, never once per candidate.

Member distances use the expansion
    ||b * (q - m)||^2 = q.(b^2 q) + m.(b^2 m) - 2 q.(b^2 m),
whose cross term is one batched matmul `(B, C, d) @ (B, d, l)`; no
`(B, C, l, d)` difference tensor is ever built. Near q == m the three terms
cancel, and rounding can leave a tiny negative value where the exact
distance is 0 (sklearn's `euclidean_distances` documents the same effect),
so the result is clamped at 0. The backward passes return the gradient of
the exact distance, written as matmuls as well.
"""

import numpy as np


def active_backend():
    """Name of the kernel implementation (recorded by benchmark runs)."""
    return "numpy"


def _mT(a):
    return np.swapaxes(a, -1, -2)


def _weighted_sum(weights, rows):
    """sum_i weights_i * rows_i over every leading axis, as one matrix-vector product."""
    return weights.ravel() @ rows.reshape(-1, rows.shape[-1])


def sqdist_rows(b, x, y):
    """||b * (x_i - y_ic)||^2 for context rows x (B, d), candidates y (B, C, d)."""
    diff = x[:, None, :] - y
    return np.sum((b * diff) ** 2, axis=-1)


def sqdist_rows_backward(b, x, y, dout):
    """Gradients (dx (B, d), dy (B, C, d), db (d,)) of sum(dout * sqdist_rows)."""
    diff = x[:, None, :] - y
    dy = dout[:, :, None] * (-2.0 * b * b) * diff
    db = 2.0 * b * _weighted_sum(dout, diff * diff)
    return -dy.sum(axis=1), dy, db


def sqdist_members(b, q, m):
    """Weighted squared distances (B, C, l) from queries q (B, C, d) to members m (B, l, d)."""
    w = b * b
    out = (q * w) @ _mT(m)
    out *= -2.0
    out += ((q * q) @ w)[:, :, None]
    out += ((m * m) @ w)[:, None, :]
    return np.maximum(out, 0.0, out=out)


def sqdist_members_backward(b, q, m, dout):
    """Gradients (dq (B, C, d), dm (B, l, d), db (d,)) of sum(dout * sqdist_members)."""
    w2 = 2.0 * b * b
    row = dout.sum(axis=2)             # (B, C): total weight of each query
    col = dout.sum(axis=1)             # (B, l): total weight of each member
    dout_m = dout @ m                  # (B, C, d)
    dout_q = _mT(dout) @ q             # (B, l, d)
    # sum(dout * (q - m)^2) per dim, expanded like the forward pass
    sq = (_weighted_sum(row, q * q) + _weighted_sum(col, m * m)
          - 2.0 * np.sum(q * dout_m, axis=(0, 1)))
    dq = row[:, :, None] * q
    dq -= dout_m
    dq *= w2
    dm = col[:, :, None] * m
    dm -= dout_q
    dm *= w2
    return dq, dm, 2.0 * b * sq


def dot_members(q, m):
    """Inner products (B, C, l) of queries q (B, C, d) with members m (B, l, d)."""
    return q @ _mT(m)


def dot_members_backward(q, m, dout):
    """Gradients (dq (B, C, d), dm (B, l, d)) of sum(dout * dot_members)."""
    return dout @ m, _mT(dout) @ q
