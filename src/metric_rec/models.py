"""Forward scoring and analytic backward passes for MDR, MASS, and MASR.

All model outputs are distances: lower means more relevant. Ranking sorts
ascending by score, and the pairwise training loss consumes score
differences (negative minus positive) directly, so no negation is applied
anywhere in between.

MDR sums two weighted squared distances (user-song under B1, playlist-song
under B2) plus a song bias; the `us` / `ps` ablations drop one term.

MASS builds a ReLU query from the concatenated user/playlist/candidate
embeddings, measures weighted squared distances from the query to each
member song under B3, and combines them with attention weights. The
attention weights come from one of four mechanisms: softmin over distances
under B4 (metric) or softmax over inner products (dot), computed either on
dedicated attention-memory tables with their own query map (mem) or on the
main tables reusing the main query (nonmem). Padded member slots always
receive exactly zero weight.

The batched path (`forward`, `backward`, `score_batch`) is candidate-major:
a `ScoreBatch` holds B contexts with their members, `(B,)` and `(B, l)`,
and C candidates per context, `(B, C)`. C is 1 + k in training, 101 in
evaluation and the catalog size in `recommend`. Member embeddings are
gathered once per context and the member distances of all C candidates
come from one batched matmul (see `kernels`); the user and playlist part of
the MASS query is likewise computed once per context. The backward pass
scatters row gradients into the tables with `np.bincount`, and member
gradients over the B * l member slots, not once per candidate.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .params import ModelParams


@dataclass
class ScoreBatch:
    """Scoring contexts and the candidate songs to score in each of them.

    Shape contract, for B contexts of up to l members and C candidates:
    `users`, `playlists` and `counts` are (B,); `members` is (B, l), song
    indices 0-padded past each context's real count; `songs` is (B, C).
    Every candidate in a row is scored against that row's members, so the
    member list is held once per context, not once per candidate. A 1-D
    `songs` of shape (B,) is read as C = 1, and scores then come back with
    shape (B,). MDR reads neither `members` nor `counts`.
    """

    users: np.ndarray
    playlists: np.ndarray
    songs: np.ndarray
    members: np.ndarray = None
    counts: np.ndarray = None


def _relu(x):
    return np.maximum(x, 0.0)


def masked_softmax(scores, counts):
    """Softmax over the last axis, on context i's first counts[i] entries only.

    `scores` is (B, l) or (B, C, l) and `counts` is (B,); padded slots get 0.
    """
    counts = np.asarray(counts)
    if np.any(counts < 1):
        raise ValueError("every context must have at least one real member")
    l = scores.shape[-1]
    mask = np.arange(l) < counts.reshape(counts.shape + (1,) * (scores.ndim - 1))
    s = np.where(mask, scores, -np.inf)
    s = s - s.max(axis=-1, keepdims=True)
    w = np.exp(s)
    return w / w.sum(axis=-1, keepdims=True)


def masked_softmin(dists, counts):
    """Softmax over negated values: smaller distances get larger weights."""
    return masked_softmax(-np.asarray(dists, dtype=np.float64), counts)


# ---------------------------------------------------------------------------
# single-context building blocks
# ---------------------------------------------------------------------------

def build_query(u_vec, s_vec, weight, bias):
    """ReLU affine map of the concatenated pair [u; s] down to d dims."""
    x = np.concatenate([np.asarray(u_vec, float), np.asarray(s_vec, float)])
    weight = np.asarray(weight, float)
    bias = np.asarray(bias, float)
    if weight.shape[0] != x.shape[0] or weight.shape[1] != bias.shape[0]:
        raise ValueError(
            f"shape mismatch: input {x.shape[0]}, weight {weight.shape}, bias {bias.shape[0]}"
        )
    return _relu(x @ weight + bias)


def member_distances(q, member_vectors, b3, real_count=None):
    """Weighted squared distance from the query to each padded member slot.

    Entries beyond the real count are computed but meant to be masked by
    the (zero) attention weights downstream.
    """
    q = np.asarray(q, float)
    member_vectors = np.asarray(member_vectors, float)
    if member_vectors.shape[-1] != q.shape[-1]:
        raise ValueError(
            f"shape mismatch: query dim {q.shape[-1]}, members dim {member_vectors.shape[-1]}"
        )
    return np.sum((np.asarray(b3, float) * (q - member_vectors)) ** 2, axis=-1)


def attention_weights(q_a, member_a_vectors, b4, real_count):
    """Softmin attention over distances under B4; padded slots get weight 0."""
    d = member_distances(q_a, member_a_vectors, b4)
    return masked_softmin(d[None, :], np.array([real_count]))[0]


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
        return masked_softmax(scores[None, :], np.array([real_count]))[0]
    raise ValueError(f"unknown attention kind: {kind}")


def masr_score(o_mdr, o_mass, alpha=0.5):
    """Affine blend of the two frozen component scores."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    return alpha * o_mdr + (1.0 - alpha) * o_mass


# ---------------------------------------------------------------------------
# batched forward / backward
# ---------------------------------------------------------------------------

def _candidates(batch):
    """Candidate songs as (B, C); a 1-D `songs` is one candidate per context."""
    return batch.songs.reshape(len(batch.users), -1)


def _scatter_add(target, idx, rows):
    """target[idx] += rows, duplicate indices summed, as one np.bincount.

    Entry j of row r of a 2-D table is flat slot r * width + j, so the
    whole table is one bincount over its flat slots.
    """
    idx = np.ravel(idx)
    if target.ndim == 2:
        width = target.shape[1]
        idx = (idx[:, None] * width + np.arange(width)).ravel()
    sums = np.bincount(idx, weights=np.ravel(rows), minlength=target.size)
    target += sums.reshape(target.shape)


def _mdr_forward(params, batch):
    t = params.tensors
    songs = _candidates(batch)
    sk = t["S"][songs]
    scores = np.zeros(songs.shape)
    cache = {"songs": songs, "sk": sk}
    if "U" in t:
        cache["u"] = t["U"][batch.users]
        scores += kernels.sqdist_rows(t["B1"], cache["u"], sk)
    if "P" in t:
        cache["p"] = t["P"][batch.playlists]
        scores += kernels.sqdist_rows(t["B2"], cache["p"], sk)
    if params.use_bias:
        scores = scores + t["theta"][songs]
    return scores.reshape(batch.songs.shape), cache


def _mdr_backward(params, batch, cache, dscores, grads):
    t = params.tensors
    songs, sk = cache["songs"], cache["sk"]
    dscores = dscores.reshape(songs.shape)
    dsk = 0.0
    if "U" in t:
        du, dy, db = kernels.sqdist_rows_backward(t["B1"], cache["u"], sk, dscores)
        _scatter_add(grads["U"], batch.users, du)
        dsk = dsk + dy
        grads["B1"] += db
    if "P" in t:
        dp, dy, db = kernels.sqdist_rows_backward(t["B2"], cache["p"], sk, dscores)
        _scatter_add(grads["P"], batch.playlists, dp)
        dsk = dsk + dy
        grads["B2"] += db
    _scatter_add(grads["S"], songs, dsk)
    if params.use_bias:
        _scatter_add(grads["theta"], songs, dscores)


def _context_rows(params, batch):
    """(table, row indices) of the context embeddings, in query-input order."""
    rows = []
    if params.variant in ("us", "ups"):
        rows.append(("U", batch.users))
    if params.variant in ("ps", "ups"):
        rows.append(("P", batch.playlists))
    return rows


def _query_names(mem):
    """(table suffix, weight, bias) of the main query map or the attention one."""
    return ("_a", "W2", "b2") if mem else ("", "W1", "b1")


def _query(params, batch, songs, mem):
    """ReLU query (B, C, d) over the [context...; candidate] embeddings.

    The weight's rows split into one d-row block per input embedding, so
    the context blocks are applied once per context and only the song block
    once per candidate.
    """
    t = params.tensors
    suffix, w, b = _query_names(mem)
    d = params.dim
    ctx = [t[name + suffix][idx] for name, idx in _context_rows(params, batch)]
    pre_ctx = t[b] + sum(x @ t[w][i * d:(i + 1) * d] for i, x in enumerate(ctx))
    sk = t["S" + suffix][songs]
    pre = sk @ t[w][-d:]
    pre += pre_ctx[:, None, :]
    return _relu(pre), {"ctx": ctx, "sk": sk, "pre": pre}


def _query_backward(params, batch, qcache, dq, grads, mem):
    """Accumulate the query map's and context tables' gradients.

    Returns the gradient (B, C, d) of the candidate song embeddings, for
    the caller to scatter into its song table.
    """
    t = params.tensors
    suffix, w, b = _query_names(mem)
    d = params.dim
    dpre = dq * (qcache["pre"] > 0)
    dctx = dpre.sum(axis=1)
    grads[b] += dctx.sum(axis=0)
    for i, ((name, idx), x) in enumerate(zip(_context_rows(params, batch), qcache["ctx"])):
        block = slice(i * d, (i + 1) * d)
        grads[w][block] += x.T @ dctx
        _scatter_add(grads[name + suffix], idx, dctx @ t[w][block].T)
    grads[w][-d:] += qcache["sk"].reshape(-1, d).T @ dpre.reshape(-1, d)
    return dpre @ t[w][-d:].T


def _mass_forward(params, batch):
    t = params.tensors
    mem = params.attention.startswith("mem")
    metric = params.attention.endswith("metric")
    songs = _candidates(batch)

    q, qcache = _query(params, batch, songs, mem=False)
    m = t["S"][batch.members]
    dists = kernels.sqdist_members(t["B3"], q, m)

    if mem:
        q_a, qcache_a = _query(params, batch, songs, mem=True)
        m_a = t["S_a"][batch.members]
    else:
        q_a, qcache_a, m_a = q, None, m

    if metric:
        alpha = masked_softmin(kernels.sqdist_members(t["B4"], q_a, m_a), batch.counts)
    else:
        alpha = masked_softmax(kernels.dot_members(q_a, m_a), batch.counts)

    wsum = np.sum(alpha * dists, axis=-1)
    scores = wsum
    if params.use_bias:
        scores = scores + t["song_bias"][songs]
    if batch.songs.ndim == 1:
        # one candidate per context: attention and distances read (B, l)
        alpha, dists = alpha[:, 0], dists[:, 0]
    cache = {
        "songs": songs, "q": q, "m": m, "dists": dists, "qcache": qcache,
        "q_a": q_a, "m_a": m_a, "qcache_a": qcache_a, "alpha": alpha, "wsum": wsum,
    }
    return scores.reshape(batch.songs.shape), cache


def _mass_backward(params, batch, cache, dscores, grads):
    t = params.tensors
    mem = params.attention.startswith("mem")
    metric = params.attention.endswith("metric")
    songs = cache["songs"]
    g = dscores.reshape(songs.shape)
    alpha = cache["alpha"].reshape(songs.shape + (-1,))
    dists = cache["dists"].reshape(alpha.shape)
    wsum = cache["wsum"][:, :, None]

    if params.use_bias:
        _scatter_add(grads["song_bias"], songs, g)

    # distance branch (padded slots carry alpha == 0, so they contribute nothing)
    ddists = g[:, :, None] * alpha
    dq, dm, db3 = kernels.sqdist_members_backward(t["B3"], cache["q"], cache["m"], ddists)
    grads["B3"] += db3

    # attention branch: softmax/softmin jacobian collapsed against the distances
    if metric:
        draw = ddists * (wsum - dists)
        dq_a, dm_a, db4 = kernels.sqdist_members_backward(
            t["B4"], cache["q_a"], cache["m_a"], draw
        )
        grads["B4"] += db4
    else:
        draw = ddists * (dists - wsum)
        dq_a, dm_a = kernels.dot_members_backward(cache["q_a"], cache["m_a"], draw)

    if mem:
        dsk_a = _query_backward(params, batch, cache["qcache_a"], dq_a, grads, mem=True)
        _scatter_add(grads["S_a"], batch.members, dm_a)
        _scatter_add(grads["S_a"], songs, dsk_a)
    else:
        dq = dq + dq_a
        dm = dm + dm_a

    dsk = _query_backward(params, batch, cache["qcache"], dq, grads, mem=False)
    _scatter_add(grads["S"], batch.members, dm)
    _scatter_add(grads["S"], songs, dsk)


def forward(params, batch):
    """Batch scores plus the cache needed for the backward pass."""
    if params.kind == "mdr":
        return _mdr_forward(params, batch)
    if params.kind == "mass":
        if batch.members is None or batch.counts is None:
            raise ValueError("mass scoring requires member lists and counts")
        return _mass_forward(params, batch)
    raise ValueError(f"unknown model kind: {params.kind}")


def backward(params, batch, cache, dscores, grads):
    """Accumulate d(loss)/d(tensor) into `grads` given d(loss)/d(score)."""
    if params.kind == "mdr":
        _mdr_backward(params, batch, cache, dscores, grads)
    else:
        _mass_backward(params, batch, cache, dscores, grads)
    params.zero_padding_rows(grads)


def score_batch(params, batch):
    scores, _ = forward(params, batch)
    return scores


def mdr_score(params, user, playlist, song):
    """Distance score of one candidate under an MDR parameter set."""
    batch = ScoreBatch(
        users=np.array([user]), playlists=np.array([playlist]), songs=np.array([song])
    )
    return float(score_batch(params, batch)[0])


def make_scorer(model, alpha=None):
    """Callable (batch -> scores) for a single model or an (mdr, mass) blend.

    `model` is either a ModelParams or a pair (mdr_params, mass_params) in
    which case `alpha` weighs the MDR component.
    """
    if isinstance(model, ModelParams):
        return lambda batch: score_batch(model, batch)
    mdr_params, mass_params = model
    if alpha is None:
        alpha = 0.5
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")

    def blended(batch):
        return masr_score(
            score_batch(mdr_params, batch), score_batch(mass_params, batch), alpha
        )

    return blended
