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

from .dataset import row_positions, sample_negatives
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
    to the split's longest train list.
    """
    playlists = np.asarray(playlists, dtype=np.int64)
    starts, counts = split.offsets[playlists], np.diff(split.offsets)[playlists]
    members = np.zeros((len(playlists), split.max_members), dtype=np.int64)
    members[np.arange(split.max_members) < counts[:, None]] = split.songs[
        row_positions(starts, counts)]
    return ScoreBatch(
        users=split.owner[playlists], playlists=playlists,
        songs=np.asarray(songs, dtype=np.int64), members=members, counts=counts,
    )


def held_out(split, num_songs, seed=0, which="test", num_negatives=DEFAULT_NUM_NEGATIVES):
    """Candidate lists of every dev or test playlist, in playlist order.

    Row i's `songs` are the held-out song followed by `num_negatives`
    non-member songs drawn from the (seed, playlist) stream.
    """
    held = split.dev if which == "dev" else split.test
    playlists = np.flatnonzero(held)
    if not len(playlists):
        raise ValueError("empty evaluation set")
    offsets, full = split.full_sets(num_songs)
    songs = np.empty((len(playlists), 1 + num_negatives), dtype=np.int64)
    songs[:, 0] = held[playlists]
    for i, p in enumerate(playlists.tolist()):
        outside = num_songs - (offsets[p + 1] - offsets[p])
        if outside < num_negatives:
            raise ValueError(
                f"the {which} evaluation needs {num_negatives} sampled negative songs per "
                f"playlist, but playlist index {p} has only {outside} songs outside it"
            )
        songs[i, 1:] = sample_negatives(full[offsets[p]:offsets[p + 1]], num_songs,
                                        num_negatives, np.random.default_rng([seed, p]))
    return context_batch(split, playlists, songs)


def rank_candidates(scorer, batch):
    """(B,) ranks (1 = best) of each row's first candidate among that row's songs.

    Scores ascend (lower = more relevant); ties break by ascending song index.
    A score that is not finite raises FloatingPointError.
    """
    songs = batch.songs
    ordered = np.sort(songs, axis=1)
    if np.any(ordered[:, 1:] == ordered[:, :-1]):
        raise ValueError("duplicate candidate song in ranking list")
    # At most RANK_CHUNK contexts per scorer call: that bounds MASS's (B, C, l)
    # temporaries, and every product a score comes from is stacked per
    # context (see `models._query`), so each row gets the bits it gets alone.
    scores = np.empty(songs.shape)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        for start in range(0, len(songs), RANK_CHUNK):
            rows = slice(start, start + RANK_CHUNK)
            scores[rows] = scorer(ScoreBatch(*(None if a is None else a[rows] for a in (
                batch.users, batch.playlists, songs, batch.members, batch.counts))))
    if not np.isfinite(scores).all():
        raise FloatingPointError("the model scores a candidate song as inf or nan")
    first = scores[:, :1]
    ahead = (scores < first) | ((scores == first) & (songs < songs[:, :1]))
    return 1 + ahead.sum(axis=1)


def hit_at_n(rank, n):
    if n < 1:
        raise ValueError(f"N must be >= 1, got {n}")
    return 1 if rank <= n else 0


def ndcg_at_n(rank, n):
    if n < 1:
        raise ValueError(f"N must be >= 1, got {n}")
    return 1.0 / math.log2(rank + 1) if rank <= n else 0.0


def evaluate(scorer, held, n_list=None):
    """Mean hit@N and NDCG@N over the candidate lists `held` (see `held_out`).

    Returns {"N": {n: {"hit": ..., "ndcg": ...}}, "num_playlists": ...}.
    """
    if n_list is None:
        n_list = list(range(1, 11))
    ranks = rank_candidates(scorer, held)

    out = {"N": {}, "num_playlists": len(ranks)}
    for n in n_list:
        hits = [hit_at_n(r, n) for r in ranks]
        ndcgs = [ndcg_at_n(r, n) for r in ranks]
        out["N"][n] = {
            "hit": float(np.mean(hits)),
            "ndcg": float(np.mean(ndcgs)),
        }
    return out
