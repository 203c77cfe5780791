"""Forward scoring and analytic backward passes for MDR, MASS, and MASR.

All model outputs are distances: lower means more relevant. Ranking sorts
ascending by score, and the pairwise training loss consumes score
differences (negative minus positive) directly, so no negation is applied
anywhere in between.

MDR sums two weighted squared distances (user-song under B1, playlist-song
under B2) plus a song bias; the `us` / `ps` ablations drop one term. The
variant's anchors are stacked into one `(B, K, d)` block with their `(K, d)`
metric rows, so both terms come from one row-kernel call per pass.

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
the MASS query is likewise computed once per context. Every product a
score comes from is stacked per context, so a context's scores have the
same bits in any batch and evaluation can rank chunks of contexts. Table
rows are gathered with `ndarray.take`. MDR's backward reuses the anchor
sums its forward computed (`kernels.row_sums`). The backward pass scatters row
gradients into the tables in place with `np.add.at` over the flat slots
that the batch's plan caches, member gradients over the B * l member
slots, not once per candidate. Each slot's terms are added onto it one by
one in pass order, so no table-sized temporary is built; S and S_a, which
a MASS pass writes twice, take their member rows and then their candidate
rows.
"""

from dataclasses import dataclass, field

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
    shape (B,). MDR reads neither `members` nor `counts`. Row i's scores
    depend only on row i, bit for bit.

    `plan` caches what scoring derives from these arrays (the scatter slots
    and the member mask), so the passes over one batch build each once; the
    arrays must not change after the batch is first scored.
    """

    users: np.ndarray
    playlists: np.ndarray
    songs: np.ndarray
    members: np.ndarray = None
    counts: np.ndarray = None
    plan: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def _softmax_where(scores, mask):
    """Softmax over the last axis of the entries where `mask` holds, 0 elsewhere,
    computed in place in `scores` (float64), which it returns."""
    np.copyto(scores, -np.inf, where=~mask)
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


# ---------------------------------------------------------------------------
# batched forward / backward
# ---------------------------------------------------------------------------

def _candidates(batch):
    """Candidate songs as (B, C); a 1-D `songs` is one candidate per context."""
    return batch.songs.reshape(len(batch.users), -1)


def _member_mask(batch):
    """(B, 1, l) mask of each context's real member slots, built once per batch;
    a context without a real member raises ValueError."""
    mask = batch.plan.get("mask")
    if mask is None:
        counts = np.asarray(batch.counts)
        if np.any(counts < 1):
            raise ValueError("every context must have at least one real member")
        mask = batch.plan["mask"] = np.arange(batch.members.shape[1]) < counts[:, None, None]
    return mask


def _slots(batch, field_name, width):
    """Flat slots of the rows that batch.<field_name> indexes in a table
    `width` wide: entry j of row r is slot r * width + j.

    They depend only on the indices and the width, so each batch builds
    them once per (field, width), and tables of one width, like S and S_a,
    share them.
    """
    slots = batch.plan.get((field_name, width))
    if slots is None:
        idx = np.ravel(getattr(batch, field_name))
        slots = idx if width == 1 else (idx[:, None] * width + np.arange(width)).ravel()
        batch.plan[field_name, width] = slots
    return slots


def _flat_view(target):
    """`target` as a 1-D view; raises rather than return a copy."""
    flat = target.view()
    flat.shape = (target.size,)
    return flat


def _scatter_add(target, batch, field_name, rows):
    """target[batch.<field_name>] += rows, duplicate indices summed, in place:
    each slot's terms are added onto its current value one by one, in batch
    order, and no table-sized temporary is written. Every table write of the
    backward pass takes this path. On a table still zero in this pass, each
    slot gets the bits of its terms summed from 0.0 first.
    """
    width = target.shape[1] if target.ndim == 2 else 1
    np.add.at(_flat_view(target), _slots(batch, field_name, width), np.ravel(rows))


def _context_rows(params):
    """(table, batch field of its row indices) of the context embeddings: the
    MASS query's inputs in order, and MDR's anchors."""
    rows = []
    if params.variant in ("us", "ups"):
        rows.append(("U", "users"))
    if params.variant in ("ps", "ups"):
        rows.append(("P", "playlists"))
    return rows


# MDR measures the user anchor under B1 and the playlist anchor under B2.
_MDR_METRICS = {"U": "B1", "P": "B2"}


def _mdr_forward(params, batch):
    t = params.tensors
    songs = _candidates(batch)
    sk = t["S"].take(songs, axis=0)
    anchors = _context_rows(params)
    # np.array and a concatenate along the dims cost a few us less per call
    # than np.stack, which matters for one-context dev rankings
    b = np.array([t[_MDR_METRICS[name]] for name, _ in anchors])
    x = np.concatenate([t[name].take(getattr(batch, key), axis=0) for name, key in anchors],
                       axis=1)
    x = x.reshape(len(x), len(anchors), params.dim)
    sums = kernels.row_sums(b, x)
    scores = kernels.sqdist_rows(sums, sk)
    if params.use_bias:
        scores += t["theta"].take(songs)
    cache = {"songs": songs, "sk": sk, "b": b, "x": x, "sums": sums}
    return scores.reshape(batch.songs.shape), cache


def _mdr_backward(params, batch, cache, dscores, grads):
    songs = cache["songs"]
    dscores = dscores.reshape(songs.shape)
    dx, dsk, db = kernels.sqdist_rows_backward(cache["b"], cache["x"], cache["sk"], dscores,
                                               cache["sums"])
    for k, (name, key) in enumerate(_context_rows(params)):
        _scatter_add(grads[name], batch, key, dx[:, k])
        grads[_MDR_METRICS[name]] += db[k]
    _scatter_add(grads["S"], batch, "songs", dsk)
    if params.use_bias:
        _scatter_add(grads["theta"], batch, "songs", dscores)


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
    ctx = [t[name + suffix].take(getattr(batch, key), axis=0)
           for name, key in _context_rows(params)]
    # stacked (B, 1, d) @ (d, d): each row gets its B = 1 bits; BLAS rounds a
    # 2-D (B, d) @ (d, d) product's rows differently at B = 1 and B = 16
    pre_ctx = t[b] + sum((x[:, None, :] @ t[w][i * d:(i + 1) * d])[:, 0]
                         for i, x in enumerate(ctx))
    sk = t["S" + suffix].take(songs, axis=0)
    q = sk @ t[w][-d:]
    q += pre_ctx[:, None, :]
    np.maximum(q, 0.0, out=q)  # ReLU in place: q > 0 exactly where its input was
    return q, {"ctx": ctx, "sk": sk, "q": q}


def _query_backward(params, batch, qcache, dq, grads, mem):
    """Accumulate the query map's and context tables' gradients.

    Returns the gradient (B, C, d) of the candidate song embeddings, for
    the caller to scatter into its song table.
    """
    t = params.tensors
    suffix, w, b = _query_names(mem)
    d = params.dim
    dpre = dq * (qcache["q"] > 0)
    dctx = dpre.sum(axis=1)
    grads[b] += dctx.sum(axis=0)
    for i, ((name, key), x) in enumerate(zip(_context_rows(params), qcache["ctx"])):
        block = slice(i * d, (i + 1) * d)
        grads[w][block] += x.T @ dctx
        _scatter_add(grads[name + suffix], batch, key, dctx @ t[w][block].T)
    grads[w][-d:] += qcache["sk"].reshape(-1, d).T @ dpre.reshape(-1, d)
    return dpre @ t[w][-d:].T


def _mass_forward(params, batch):
    t = params.tensors
    mem = params.attention.startswith("mem")
    metric = params.attention.endswith("metric")
    songs = _candidates(batch)

    q, qcache = _query(params, batch, songs, mem=False)
    m = t["S"].take(batch.members, axis=0)
    dists = kernels.sqdist_members(t["B3"], q, m)

    if mem:
        q_a, qcache_a = _query(params, batch, songs, mem=True)
        m_a = t["S_a"].take(batch.members, axis=0)
    else:
        q_a, qcache_a, m_a = q, None, m

    if metric:
        logits = kernels.sqdist_members(t["B4"], q_a, m_a)
        np.negative(logits, out=logits)
    else:
        logits = kernels.dot_members(q_a, m_a)
    alpha = _softmax_where(logits, _member_mask(batch))  # in place: alpha is logits

    wsum = np.sum(alpha * dists, axis=-1)
    scores = wsum
    if params.use_bias:
        scores = scores + t["song_bias"].take(songs)
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
        _scatter_add(grads["song_bias"], batch, "songs", g)

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
        _scatter_add(grads["S_a"], batch, "members", dm_a)
        _scatter_add(grads["S_a"], batch, "songs", dsk_a)
    else:
        dq = dq + dq_a
        dm = dm + dm_a

    dsk = _query_backward(params, batch, cache["qcache"], dq, grads, mem=False)
    _scatter_add(grads["S"], batch, "members", dm)
    _scatter_add(grads["S"], batch, "songs", dsk)


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
    """Accumulate d(loss)/d(tensor) into `grads` given d(loss)/d(score).

    Row terms are added onto the tables in place, in pass order. Into zeroed
    `grads`, as `training.gradients` passes them, a table written once gets
    in each slot the bits of its terms summed from 0.0 first; S and S_a,
    which MASS writes twice, get their member terms and then each candidate
    term added on.
    """
    if params.kind == "mdr":
        _mdr_backward(params, batch, cache, dscores, grads)
    else:
        _mass_backward(params, batch, cache, dscores, grads)
    params.zero_padding_rows(grads)


def score_batch(params, batch):
    scores, _ = forward(params, batch)
    return scores


def make_scorer(model, alpha=None):
    """Callable (batch -> scores) for a single model or an (mdr, mass) blend.

    `model` is either a ModelParams or a pair (mdr_params, mass_params), in
    which case `alpha`, required, weighs the MDR component.
    """
    if isinstance(model, ModelParams):
        return lambda batch: score_batch(model, batch)
    mdr_params, mass_params = model
    if alpha is None or not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")

    def blended(batch):
        o_mdr, o_mass = score_batch(mdr_params, batch), score_batch(mass_params, batch)
        return alpha * o_mdr + (1.0 - alpha) * o_mass

    return blended
