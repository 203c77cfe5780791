"""Per-pair reference scorers that the tests check the batched path against.

The package ships one scoring path, the candidate-major `models.forward` /
`models.backward`. The helpers here compute the same formulas one context
and one candidate at a time, straight from their definitions, and share no
code with that path: they read parameter tensors, nothing else.

`adam_step` is the optimizer's reference: the bias-corrected Adam update
applied tensor by tensor to plain dicts, against which the package's
one-buffer step is checked bit for bit.

The distance between x and y under a learned diagonal weight vector b is
``sum_t (b_t * (x_t - y_t))**2`` -- the squared form of a per-dimension
weighted Euclidean distance. All-ones b reduces it to plain squared
Euclidean distance.
"""

import numpy as np


def _check_lengths(b, x, y):
    if x.shape != y.shape:
        raise ValueError(
            f"dimension mismatch: x has length {x.shape[-1]}, y has length {y.shape[-1]}"
        )
    if b.shape[-1] != x.shape[-1]:
        raise ValueError(
            f"dimension mismatch: b has length {b.shape[-1]}, vectors have length {x.shape[-1]}"
        )


def mahalanobis_sq(b, x, y):
    """Squared weighted distance between vectors x and y.

    Symmetric in x and y, nonnegative, and zero when x == y.
    """
    b = np.asarray(b, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_lengths(b, x, y)
    diff = x - y
    return float(np.sum((b * diff) ** 2))


def grad_mahalanobis_sq(b, x, y):
    """Analytic gradients of ``mahalanobis_sq`` w.r.t. (b, x, y).

    Returns (db, dx, dy) with dy = -dx.
    """
    b = np.asarray(b, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    _check_lengths(b, x, y)
    diff = x - y
    dx = 2.0 * b * b * diff
    db = 2.0 * b * diff * diff
    return db, dx, -dx


def mdr_score(params, user, playlist, song):
    """MDR score of one candidate: d(u, s) under B1 + d(p, s) under B2 + bias."""
    t = params.tensors
    score = sum(
        mahalanobis_sq(t[b], t[table][i], t["S"][song])
        for table, b, i in (("U", "B1", user), ("P", "B2", playlist)) if table in t
    )
    if params.use_bias:
        score += float(t["theta"][song])
    return score


def build_query(u_vec, s_vec, weight, bias):
    """ReLU affine map of the concatenated pair [u; s] down to d dims."""
    x = np.concatenate([np.asarray(u_vec, float), np.asarray(s_vec, float)])
    weight = np.asarray(weight, float)
    bias = np.asarray(bias, float)
    if weight.shape[0] != x.shape[0] or weight.shape[1] != bias.shape[0]:
        raise ValueError(
            f"shape mismatch: input {x.shape[0]}, weight {weight.shape}, bias {bias.shape[0]}"
        )
    return np.maximum(x @ weight + bias, 0.0)


def member_distances(q, member_vectors, b3):
    """Weighted squared distance from the query to each member vector."""
    q = np.asarray(q, float)
    member_vectors = np.asarray(member_vectors, float)
    if member_vectors.shape[-1] != q.shape[-1]:
        raise ValueError(
            f"shape mismatch: query dim {q.shape[-1]}, members dim {member_vectors.shape[-1]}"
        )
    return np.sum((np.asarray(b3, float) * (q - member_vectors)) ** 2, axis=-1)


def _softmax_first(scores, real_count):
    """Softmax over the first `real_count` entries of a 1-D array; 0 elsewhere."""
    scores = np.asarray(scores, float)
    real = scores[:real_count]
    e = np.exp(real - real.max())
    out = np.zeros(len(scores))
    out[:real_count] = e / e.sum()
    return out


def attention_weights(q_a, member_a_vectors, b4, real_count):
    """Softmin attention over distances under B4; padded slots get weight 0."""
    return _softmax_first(-member_distances(q_a, member_a_vectors, b4), real_count)


def attention_variant(kind, q, member_vectors, b=None, real_count=None):
    """Attention weights for one context under any of the four mechanisms.

    `kind` picks the score: *_metric uses softmin of distances under `b`,
    *_dot uses softmax of inner products. The mem/nonmem distinction is in
    which query and member vectors the caller passes.
    """
    if kind in ("mem_metric", "nonmem_metric"):
        return attention_weights(q, member_vectors, b, real_count)
    if kind in ("mem_dot", "nonmem_dot"):
        scores = np.asarray(member_vectors, float) @ np.asarray(q, float)
        return _softmax_first(scores, real_count)
    raise ValueError(f"unknown attention kind: {kind}")


def masr_score(o_mdr, o_mass, alpha=0.5):
    """Affine blend of the two frozen component scores."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    return alpha * o_mdr + (1.0 - alpha) * o_mass


def adam_step(tensors, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Bias-corrected Adam step number `t` (from 1), tensor by tensor, in place.

    `tensors`, `grads`, `m` and `v` are dicts of same-shaped arrays; `m` and
    `v` hold the moment estimates and are updated too.
    """
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for name, g in grads.items():
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * g * g
        tensors[name] -= lr * (m[name] / c1) / (np.sqrt(v[name] / c2) + eps)
