"""Per-pair reference scorers that the tests check the batched path against.

The package ships one scoring path, the candidate-major `models.forward` /
`models.backward`. The helpers here compute the same formulas one context
and one candidate at a time, straight from their definitions, and share no
code with that path: they read parameter tensors, nothing else.

`rank_per_context` is the reference of `evaluation.rank_candidates`: it
scores each held-out list in a batch of its context alone, as the package
did before it scored them in chunks of contexts. `bpr_loss` and
`batch_loss` are the pairwise loss that the finite-difference gate
differentiates numerically; `batch_loss` reads the scores from the
package's forward pass, whose gradient the gate checks.

`hit_at_n` and `ndcg_at_n` are the per-list metrics that
`evaluation.evaluate` averages over a rank array, one rank at a time.

`sample_negatives` and `held_out_songs` draw each held-out list's negatives
over the array of the pool's songs, as `evaluation.held_out` did before it
drew pool ranks; `check_split` tests a split's entries one at a time, field
by field, and stops at the first fault.

`adam_step` is the optimizer's reference: the bias-corrected Adam update
applied tensor by tensor to plain dicts, against which the package's
one-buffer step is checked bit for bit. `row_sums`, `scatter_add` and
`draw_negatives` are the references of the training step's row-kernel
sums, gradient scatter and negative sampler, in forms that reduce, sum
and draw in the order the package's faster forms must keep, bit for bit;
`scatter_add` adds each slot's terms onto the table one round at a time,
without `np.add.at`.

`count_cooccurrences`, `pmi` and `pmi_attention_scores` are the reference
of `analysis.attention_correlation`'s PMI: every unordered song pair of
every train list counted into a dict, and one `pmi` call per member.
`attention_rows` chains them as the command did before it computed only
the co-counts it reads; its model attention comes from `models.forward`.
`train_lists` gives each playlist's train songs as a list.

`read_training_log` and `runtime_report` read the per-epoch `seconds` of
training logs; no command of the package reads them back.

`load_interactions`, `apply_size_caps`, `k_core_filter`, `build_catalog`
and `leave_one_out_split` are the reference of `dataset.prepare`'s columnar
pipeline: the same steps taken one `InteractionRecord` at a time through
dicts and sets. `reference_split` chains them as `prepare` does.

The distance between x and y under a learned diagonal weight vector b is
``sum_t (b_t * (x_t - y_t))**2`` -- the squared form of a per-dimension
weighted Euclidean distance. All-ones b reduces it to plain squared
Euclidean distance.
"""

import json
import math
from dataclasses import dataclass, field
from itertools import combinations, pairwise

import numpy as np

from metric_rec.analysis import PMI_FLOOR
from metric_rec.dataset import (DEFAULT_K_CORE, DEFAULT_MAX_PLAYLISTS_PER_USER,
                                DEFAULT_MAX_SONGS_PER_PLAYLIST, Catalog, split_from_rows)
from metric_rec.evaluation import context_batch
from metric_rec.models import ScoreBatch, forward, score_batch
from metric_rec.params import REGULARIZED


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


def masked_softmax(scores, counts):
    """Softmax over the last axis, on context i's first counts[i] entries only.

    `scores` is (B, l) or (B, C, l) and `counts` is (B,); padded slots get 0.
    A context without a real entry raises ValueError, as the package's
    forward pass does.
    """
    scores = np.asarray(scores, float)
    if np.any(np.asarray(counts) < 1):
        raise ValueError("every context must have at least one real member")
    out = np.zeros(scores.shape)
    for i, count in enumerate(counts):
        for row in np.ndindex(scores.shape[1:-1]):
            out[(i, *row)] = _softmax_first(scores[(i, *row)], count)
    return out


def masked_softmin(dists, counts):
    """Softmax over negated values: smaller distances get larger weights."""
    return masked_softmax(-np.asarray(dists, float), counts)


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


def rank_per_context(scorer, batch):
    """(scores (B, C), ranks (B,)) of each row's first candidate among its
    songs, scoring one context per scorer call; ties rank by song index."""
    rows = [ScoreBatch(*(None if a is None else a[i:i + 1] for a in (
        batch.users, batch.playlists, batch.songs, batch.members, batch.counts)))
        for i in range(len(batch.songs))]
    scores = np.stack([scorer(row)[0] for row in rows])
    ranks = np.array([1 + np.flatnonzero(np.lexsort((songs, row)) == 0)[0]
                      for songs, row in zip(batch.songs, scores)])
    return scores, ranks


def hit_at_n(rank, n):
    """1 when the held-out song ranks within the top n, else 0."""
    if n < 1:
        raise ValueError(f"N must be >= 1, got {n}")
    return 1 if rank <= n else 0


def ndcg_at_n(rank, n):
    """1 / log2(rank + 1) when the held-out song ranks within the top n, else 0.0."""
    if n < 1:
        raise ValueError(f"N must be >= 1, got {n}")
    return 1.0 / math.log2(rank + 1) if rank <= n else 0.0


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


def row_sums(b, x):
    """`kernels.row_sums` as axis reductions: W = sum_k b_k^2, a = sum_k b_k^2 x_k
    and c = sum_k x_k.(b_k^2 x_k)."""
    w = b * b
    wx = w * x
    return w.sum(axis=0), wx.sum(axis=1), np.sum(x * wx, axis=(1, 2))


def scatter_add(target, idx, rows):
    """target[idx] += rows for a 1-D or 2-D table, each slot's terms added onto
    its current value in batch order: round r adds every slot's r-th term at
    once, by a fancy-index add that writes no slot twice. On a zero table each
    slot gets its terms summed from 0.0 in batch order, as np.bincount sums."""
    width = target.shape[1] if target.ndim == 2 else 1
    idx = np.ravel(idx)
    slots = idx if width == 1 else (idx[:, None] * width + np.arange(width)).ravel()
    terms = np.ravel(rows)
    # rank of each term among its slot's terms: its position in a stable sort
    # by slot less the position of its slot's first term
    order = np.argsort(slots, kind="stable")
    ranked = slots[order]
    position = np.arange(len(ranked))
    first = np.maximum.accumulate(np.where(np.r_[True, ranked[1:] != ranked[:-1]], position, 0))
    rank = np.empty_like(position)
    rank[order] = position - first
    flat = target.reshape(-1).copy()
    for r in range(rank.max(initial=-1) + 1):
        take = rank == r
        flat[slots[take]] += terms[take]
    target[...] = flat.reshape(target.shape)


def full_set(split, p):
    """Playlist p's train, dev and test songs as a set, without the padding 0."""
    start, end = split.offsets[p], split.offsets[p + 1]
    return (set(split.songs[start:end].tolist()) | {int(split.dev[p]), int(split.test[p])}) - {0}


def negative_pools(split, num_songs):
    """(pool_sizes, gaps) of every playlist row: the number of songs outside its
    full set e_0 < e_1 < ..., and g_i = e_i - i - 1 padded with num_songs."""
    full = [sorted(full_set(split, p)) for p in range(len(split.owner))]
    pool_sizes = np.zeros(len(full), dtype=np.int64)
    gaps = np.full((len(full), max(len(f) for f in full)), num_songs, dtype=np.int64)
    for p, f in enumerate(full):
        pool_sizes[p] = num_songs - len(f)
        gaps[p, :len(f)] = [e - i - 1 for i, e in enumerate(f)]
    return pool_sizes, gaps


def draw_negatives(pool_sizes, gaps, k, rng):
    """(B, k) distinct negatives per row, drawn with one `rng.integers` call
    per draw j: a uniform rank among the n - j ranks not yet drawn, stepped
    past each drawn rank at or below it in ascending order, then mapped to
    its song by counting the gaps at or below it."""
    ranks = np.empty((len(pool_sizes), k), dtype=np.int64)
    for j in range(k):
        r = rng.integers(0, pool_sizes - j)
        for e in np.sort(ranks[:, :j], axis=1).T:
            r += r >= e
        ranks[:, j] = r
    return ranks + 1 + np.sum(gaps[:, None, :] <= ranks[:, :, None], axis=2)


def sample_negatives(full_set, num_songs, count, rng):
    """`count` distinct songs 1..num_songs outside the collection `full_set`,
    drawn by `rng.choice` over the ascending array of those songs: the draw
    whose bits `dataset.sample_negatives`' pool ranks must give."""
    pool = np.setdiff1d(np.arange(1, num_songs + 1), np.fromiter(full_set, np.int64))
    if len(pool) < count:
        raise ValueError(f"candidate pool has {len(pool)} songs, need {count}")
    return rng.choice(pool, size=count, replace=False)


def held_out_songs(split, num_songs, seed=0, which="test", num_negatives=100):
    """The candidate `songs` of `evaluation.held_out`, or its error: playlist
    by playlist, the held-out song, then `sample_negatives` over the pool's
    songs from the (seed, playlist) stream."""
    held = split.dev if which == "dev" else split.test
    playlists = np.flatnonzero(held)
    if not len(playlists):
        raise ValueError("empty evaluation set")
    songs = np.empty((len(playlists), 1 + num_negatives), dtype=np.int64)
    songs[:, 0] = held[playlists]
    for i, p in enumerate(playlists.tolist()):
        full = full_set(split, p)
        if num_songs - len(full) < num_negatives:
            raise ValueError(
                f"the {which} evaluation needs {num_negatives} sampled negative songs per "
                f"playlist, but playlist index {p} has only {num_songs - len(full)} songs "
                f"outside it")
        songs[i, 1:] = sample_negatives(full, num_songs, num_negatives,
                                        np.random.default_rng([seed, p]))
    return songs


def check_split(rows, songs, num_users, num_playlists, num_songs):
    """`dataset.check_split`'s result, found entry by entry: each entry's
    fields are tested in the order that function names them, and the first
    fault ends the search."""
    if not len(rows):
        return None, "top level"
    seen, start = set(), 0
    for i, (playlist, owner, dev, test, end) in enumerate(rows.tolist()):
        train = songs[start:end].tolist()
        start = end
        if not 0 <= playlist < num_playlists or playlist in seen:
            return i, "id"
        seen.add(playlist)
        if not 0 <= owner < num_users:
            return i, "user"
        if not train or not all(1 <= song <= num_songs for song in train):
            return i, "train"
        for field, song in (("dev", dev), ("test", test)):
            if not 1 <= song <= num_songs:
                return i, field
        for field, song in (("dev", dev), ("test", test)):
            if song in train:
                return i, field
    return None


def bpr_loss(pos_scores, neg_scores, params=None, lambda_theta=0.0):
    """Pairwise logistic loss -sum log sigmoid(o_neg - o_pos) plus L2 term."""
    pos_scores = np.asarray(pos_scores, dtype=np.float64)
    neg_scores = np.asarray(neg_scores, dtype=np.float64)
    if pos_scores.shape != neg_scores.shape:
        raise ValueError("pos_scores and neg_scores must have equal shapes")
    x = neg_scores - pos_scores
    loss = float(np.sum(np.logaddexp(0.0, -x)))
    if params is not None and lambda_theta:
        loss += lambda_theta * sum(
            float(np.sum(t * t))
            for name, t in params.tensors.items()
            if name in REGULARIZED
        )
    return loss


def batch_loss(params, batch, lambda_theta=0.0):
    """Minibatch loss only, through the package's forward pass: the function
    the finite-difference gate differentiates numerically.

    `batch.songs` is (B, 1 + k): each row's positive, then its negatives.
    """
    scores = score_batch(params, batch)
    pos = np.broadcast_to(scores[:, :1], scores[:, 1:].shape)
    return bpr_loss(pos, scores[:, 1:], params, lambda_theta)


def train_lists(split):
    """Each playlist's train songs as a list of ints, in playlist order."""
    songs = split.songs.tolist()
    return [songs[a:b] for a, b in pairwise(split.offsets.tolist())]


@dataclass
class CooccurrenceCounts:
    pair: dict = field(default_factory=dict)    # frozenset({k, t}) -> count
    single: dict = field(default_factory=dict)  # k -> membership count
    total_pairs: int = 0
    total_singles: int = 0


def count_cooccurrences(train_lists):
    """Counts from training playlists (iterable of song-index lists)."""
    counts = CooccurrenceCounts()
    for songs in train_lists:
        uniq = sorted(set(songs))
        for s in uniq:
            counts.single[s] = counts.single.get(s, 0) + 1
            counts.total_singles += 1
        for a, b in combinations(uniq, 2):
            key = frozenset((a, b))
            counts.pair[key] = counts.pair.get(key, 0) + 1
            counts.total_pairs += 1
    return counts


def pmi(k, t, counts):
    """Pointwise mutual information of songs k and t; requires a co-count."""
    c_kt = counts.pair.get(frozenset((k, t)), 0)
    if c_kt == 0:
        raise ValueError(f"songs {k} and {t} never co-occur")
    p_kt = c_kt / counts.total_pairs
    p_k = counts.single[k] / counts.total_singles
    p_t = counts.single[t] / counts.total_singles
    return math.log(p_kt / (p_k * p_t))


def pmi_attention_scores(members, target, counts, floor=PMI_FLOOR):
    """Softmax over member-target PMI values; zero co-counts get the floor."""
    if len(members) == 0:
        raise ValueError("empty member list")
    vals = np.array([
        pmi(m, target, counts)
        if counts.pair.get(frozenset((m, target)), 0) > 0 else floor
        for m in members
    ])
    vals = vals - vals.max()
    w = np.exp(vals)
    return w / w.sum()


def attention_rows(params, split):
    """The rows of `analysis.attention_correlation`, from the counts of every
    pair of every train list and one `pmi` call per member."""
    playlists = np.flatnonzero(split.test)
    targets = split.test[playlists]
    with np.errstate(over="ignore", invalid="ignore"):
        _, cache = forward(params, context_batch(split, playlists, targets))
    train = train_lists(split)
    counts = count_cooccurrences(train)
    rows = []
    for p, target, model_att in zip(playlists.tolist(), targets.tolist(), cache["alpha"]):
        members = train[p]
        pmi_att = pmi_attention_scores(members, target, counts)
        for m, pa, ma in zip(members, pmi_att, model_att):
            rows.append((p, m, float(pa), float(ma)))
    return rows


def read_training_log(path):
    with open(path, encoding="utf-8") as f:
        records = [json.loads(line) for line in f if line.strip()]
    if not records:
        raise ValueError(f"empty training log: {path}")
    return records


def runtime_report(*log_paths):
    """Mean seconds per epoch for each log, plus consecutive-size ratios."""
    means = []
    for path in log_paths:
        records = read_training_log(path)
        means.append(float(np.mean([r["seconds"] for r in records])))
    report = {"mean_seconds": means}
    if len(means) > 1:
        report["ratios"] = [means[i + 1] / means[i] for i in range(len(means) - 1)]
    return report


@dataclass
class InteractionRecord:
    user_id: str
    playlist_id: str
    song_id: str


def load_interactions(path):
    """Parse a TSV interaction file, dropping repeated (playlist, song) pairs."""
    records = []
    seen = set()
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3 or not all(fields):
                raise ValueError(f"{path}: malformed line {lineno}: {line!r}")
            user, playlist, song = fields
            key = (playlist, song)
            if key in seen:
                continue
            seen.add(key)
            records.append(InteractionRecord(user, playlist, song))
    if not records:
        raise ValueError(f"{path}: no interaction records found")
    return records


def apply_size_caps(records, max_playlists_per_user=DEFAULT_MAX_PLAYLISTS_PER_USER,
                    max_songs_per_playlist=DEFAULT_MAX_SONGS_PER_PLAYLIST):
    """Drop users with too many playlists and playlists with too many songs."""
    per_user = {}
    per_playlist = {}
    for r in records:
        per_user.setdefault(r.user_id, set()).add(r.playlist_id)
        per_playlist.setdefault(r.playlist_id, set()).add(r.song_id)
    bad_users = {u for u, ps in per_user.items() if len(ps) > max_playlists_per_user}
    bad_playlists = {p for p, ss in per_playlist.items() if len(ss) > max_songs_per_playlist}
    return [
        r for r in records
        if r.user_id not in bad_users and r.playlist_id not in bad_playlists
    ]


def k_core_filter(records, k=DEFAULT_K_CORE):
    """Remove all records of playlists holding fewer than k distinct songs."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    sizes = {}
    for r in records:
        sizes.setdefault(r.playlist_id, set()).add(r.song_id)
    keep = {p for p, songs in sizes.items() if len(songs) >= k}
    return [r for r in records if r.playlist_id in keep]


def build_catalog(records):
    """Dense index assignment in first-appearance order."""
    users = list(dict.fromkeys(r.user_id for r in records))
    playlists = list(dict.fromkeys(r.playlist_id for r in records))
    songs = list(dict.fromkeys(r.song_id for r in records))  # song s at position s - 1
    return Catalog(users, playlists, songs)


def leave_one_out_split(records, seed, catalog=None):
    """Hold out two songs per playlist: first draw is test, second is dev.

    The max member count l is computed over the remaining train lists.
    """
    if catalog is None:
        catalog = build_catalog(records)
    playlists = {}
    owner = {}
    for r in records:
        p = catalog.playlists[r.playlist_id]
        playlists.setdefault(p, []).append(catalog.songs[r.song_id])
        owner[p] = catalog.users[r.user_id]

    rng = np.random.default_rng(seed)
    rows, train = [], []
    for p, songs in playlists.items():
        if len(songs) < 3:
            pid = catalog.playlist_ids[p]
            raise ValueError(f"playlist {pid} has only {len(songs)} songs; need >= 3 to split")
        test, dev = rng.choice(len(songs), size=2, replace=False)
        train += [s for i, s in enumerate(songs) if i not in (test, dev)]
        rows.append((p, owner[p], songs[dev], songs[test], len(train)))
    return split_from_rows(np.array(rows, dtype=np.int64), np.array(train, dtype=np.int64),
                           catalog.num_playlists)


def reference_split(path, k=DEFAULT_K_CORE, seed=0,
                    max_playlists_per_user=DEFAULT_MAX_PLAYLISTS_PER_USER,
                    max_songs_per_playlist=DEFAULT_MAX_SONGS_PER_PLAYLIST):
    """(Catalog, SplitDataset) that `dataset.prepare` writes for the TSV `path`."""
    records = load_interactions(path)
    records = apply_size_caps(records, max_playlists_per_user, max_songs_per_playlist)
    records = k_core_filter(records, k)
    if not records:
        raise ValueError("no playlists survive filtering")
    catalog = build_catalog(records)
    return catalog, leave_one_out_split(records, seed, catalog)
