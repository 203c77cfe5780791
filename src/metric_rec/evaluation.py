"""Leave-one-out ranking evaluation: hit@N and NDCG@N over sampled candidates.

Each test playlist's held-out song is ranked against 100 sampled
non-member songs. `held_out` draws those candidate lists once, as one
`ScoreBatch`; `evaluate` ranks them under a scorer, RANK_CHUNK contexts
per call, each with the bits of its context scored alone. Negative
candidate sets are derived from a per-playlist RNG stream seeded by (seed,
playlist index), so different models evaluated at the same seed see
identical candidate lists.
"""

import math

import numpy as np

from .dataset import negative_pools, pool_songs, sample_negatives
from .models import ScoreBatch

DEFAULT_NUM_NEGATIVES = 100

# Contexts per scorer call when ranking held-out lists: a MASS forward peaks
# at about 8 arrays of (B, C, l), 3 MB at B = 8, C = 101, l = 61. Chunks of
# 16 and 32 were no faster end to end (2 vCPUs) and raised a MASS `train`'s
# peak memory at l = 61 by 8% and 22%, against 1% at 8.
RANK_CHUNK = 8


def context_batch(split, playlists, songs):
    """`ScoreBatch` of the train contexts of `playlists` with candidates `songs`.

    Users and counts are (B,); members are the train songs, (B, l) zero-padded
    to the split's longest train list (see `SplitDataset.members`).
    """
    playlists = np.asarray(playlists, dtype=np.int64)
    members, counts = split.members(playlists)
    return ScoreBatch(
        users=split.owner[playlists], playlists=playlists,
        songs=np.asarray(songs, dtype=np.int64), members=members, counts=counts,
    )


def held_out(split, num_songs, seed=0, which="test", num_negatives=DEFAULT_NUM_NEGATIVES):
    """Candidate lists of every dev or test playlist, in playlist order.

    Row i's `songs` are the held-out song followed by `num_negatives`
    non-member songs drawn from the (seed, playlist) stream: the pool ranks
    `sample_negatives` draws from it, mapped to songs all at once.
    """
    held = split.dev if which == "dev" else split.test
    playlists = np.flatnonzero(held)
    if not len(playlists):
        raise ValueError("empty evaluation set")
    pool_sizes, gaps = negative_pools(split, num_songs)
    sizes = pool_sizes[playlists]
    if sizes.min() < num_negatives:
        i = int(np.argmax(sizes < num_negatives))
        raise ValueError(
            f"the {which} evaluation needs {num_negatives} sampled negative songs per "
            f"playlist, but playlist index {playlists[i]} has only {sizes[i]} songs outside it"
        )
    songs = np.empty((len(playlists), 1 + num_negatives), dtype=np.int64)
    songs[:, 0] = held[playlists]
    for i, (p, size) in enumerate(zip(playlists.tolist(), sizes.tolist())):
        songs[i, 1:] = sample_negatives(size, num_negatives, np.random.default_rng([seed, p]))
    songs[:, 1:] = pool_songs(gaps, num_songs, playlists, songs[:, 1:])  # ranks to songs
    return context_batch(split, playlists, songs)


def rank_candidates(scorer, batch):
    """(B,) ranks (1 = best) of each row's first candidate among that row's songs.

    Scores ascend (lower = more relevant); ties break by ascending song index.
    A scorer's FloatingPointError (see `models.make_scorer`) passes through.
    The first call on a batch checks it for duplicate candidates and cuts it
    into sub-batches, which its `plan` keeps for later calls, with the member
    masks that scoring caches in theirs.
    """
    songs = batch.songs
    chunks = batch.plan.get("chunks")
    if chunks is None:
        ordered = np.sort(songs, axis=1)
        if np.any(ordered[:, 1:] == ordered[:, :-1]):
            raise ValueError("duplicate candidate song in ranking list")
        # At most RANK_CHUNK contexts per scorer call: that bounds MASS's (B, C, l)
        # temporaries, and every product a score comes from is stacked per
        # context (see `models._query`), so each row gets the bits it gets alone.
        chunks = batch.plan["chunks"] = []
        for start in range(0, len(songs), RANK_CHUNK):
            rows = slice(start, start + RANK_CHUNK)
            chunks.append((rows, ScoreBatch(*(None if a is None else a[rows] for a in (
                batch.users, batch.playlists, songs, batch.members, batch.counts)))))
    scores = np.empty(songs.shape)
    for rows, chunk in chunks:
        scores[rows] = scorer(chunk)
    first = scores[:, :1]
    ahead = (scores < first) | ((scores == first) & (songs < songs[:, :1]))
    return 1 + ahead.sum(axis=1)


def evaluate(scorer, held, n_list=None):
    """Mean hit@N and NDCG@N over the candidate lists `held` (see `held_out`).

    A list whose held-out song ranks r <= N scores hit 1 and NDCG
    1 / log2(r + 1), and 0 and 0.0 otherwise. Returns
    {"N": {n: {"hit": ..., "ndcg": ...}}, "num_playlists": ...}.
    """
    if n_list is None:
        n_list = list(range(1, 11))
    if min(n_list, default=1) < 1:
        raise ValueError(f"N must be >= 1, got {min(n_list)}")
    ranks = rank_candidates(scorer, held)
    # gains[r - 1] is rank r's gain, from math.log2 as the metric's definition
    # reads; row j of `hits` and `ndcgs` is N = n_list[j], one contiguous row
    # whose mean has the bits of np.mean over that N's per-list values
    top = max(n_list, default=1)
    gains = np.array([1.0 / math.log2(r + 1) for r in range(1, top + 1)])
    hits = ranks <= np.array(n_list, dtype=np.int64)[:, None]
    ndcgs = np.where(hits, gains[np.minimum(ranks, top) - 1], 0.0)
    return {
        "N": {n: {"hit": float(hit.mean()), "ndcg": float(ndcg.mean())}
              for n, hit, ndcg in zip(n_list, hits, ndcgs)},
        "num_playlists": len(ranks),
    }
