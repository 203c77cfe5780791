"""Hot numeric kernels for candidate-major scoring.

Shapes follow the scoring batch: B contexts, C candidates per context, l
(padded) members per context, K anchors per context, d embedding dims.
Candidate-side inputs are `(B, C, d)`, member-side inputs `(B, l, d)`, and
context-side inputs `(B, K, d)` anchors, each measured under its own metric
row of the `(K, d)` metric rows. Every candidate of a context shares that
context's members and anchors, so they are passed once per context, never
once per candidate.

Row and member distances both use the expansion
    ||b * (q - m)||^2 = q.(b^2 q) + m.(b^2 m) - 2 q.(b^2 m).
For members, the cross term is one batched matmul `(B, C, d) @ (B, d, l)`;
no `(B, C, l, d)` difference tensor is ever built. For rows, the K anchor
terms fold into per-context sums before any candidate is touched, so the
cross term is one `(B, C, d) @ (B, d, 1)` product whatever K is. Near q == m
the three terms cancel, and rounding can leave a tiny negative value where
the exact distance is 0 (sklearn's `euclidean_distances` documents the same
effect), so both results are clamped at 0. The backward passes return the
gradient of the exact distance, written as matmuls and einsums. The caller
computes the row kernels' anchor sums (`row_sums`) once per pass and hands
them to both; the member backward recomputes what it needs from its inputs.
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


def row_sums(b, x):
    """Anchor sums of the row expansion (y.y)W - 2 y.a + c: W = sum_k b_k^2 (d,),
    a = sum_k b_k^2 x_k (B, d) and c = sum_k x_k.(b_k^2 x_k) (B,).

    The sums over the K anchors are explicit adds, in the order of
    `.sum(axis=...)` and with its bits, but without its strided reduction."""
    w = b * b
    wx = w * x
    w_sum, a = w[0], wx[:, 0]
    for k in range(1, len(b)):
        w_sum = w_sum + w[k]
        a = a + wx[:, k]
    return w_sum, a, np.sum(x * wx, axis=(1, 2))


def sqdist_rows(sums, y):
    """sum_k ||b_k * (x_ik - y_ic)||^2 (B, C) for candidates y (B, C, d), from
    `sums` = row_sums(b, x) of metric rows b (K, d) and anchors x (B, K, d)."""
    w, a, c = sums
    out = y @ a[:, :, None]
    out = out.reshape(out.shape[:2])
    out *= -2.0
    out += (y * y) @ w
    out += c[:, None]
    return np.maximum(out, 0.0, out=out)


def sqdist_rows_backward(b, x, y, dout, sums):
    """Gradients (dx (B, K, d), dy (B, C, d), db (K, d)) of sum(dout * sqdist_rows)
    at `sums` = row_sums(b, x), the sums its forward read."""
    w, a, _ = sums
    r = dout.sum(axis=1)               # (B,): total weight of each context
    s = (dout[:, None, :] @ y)[:, 0]   # (B, d): weighted sum of its candidates
    dx = r[:, None, None] * x
    dx -= s[:, None, :]
    dx *= 2.0 * b * b
    # sum(dout * (x_k - y)^2) per anchor and dim, expanded like the forward pass;
    # the einsums build no (B, C, d) temporary
    sq = (np.einsum("bc,bcd,bcd->d", dout, y, y) - 2.0 * np.einsum("bkd,bd->kd", x, s)
          + np.einsum("b,bkd->kd", r, x * x))
    dy = y * w
    dy -= a[:, None, :]
    dy *= 2.0 * dout[:, :, None]
    return dx, dy, 2.0 * b * sq


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
