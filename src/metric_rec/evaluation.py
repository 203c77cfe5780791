"""Leave-one-out ranking evaluation: hit@N and NDCG@N over sampled candidates.

Each test playlist's held-out song is ranked against 100 sampled
non-member songs. Negative candidate sets are derived from a per-playlist
RNG stream seeded by (seed, playlist index), so different models evaluated
at the same seed see identical candidate lists.
"""

import math

import numpy as np

from .dataset import pad_members, sample_negatives
from .models import ScoreBatch

DEFAULT_NUM_NEGATIVES = 100


def rank_candidates(scorer, user, playlist, members, count, test_song, negatives):
    """Rank the test song among itself plus the negatives (1 = best).

    Scores ascend (lower = more relevant); ties break by ascending song index.
    """
    negatives = np.asarray(negatives, dtype=np.int64)
    candidates = np.concatenate([[test_song], negatives])
    if len(np.unique(candidates)) != len(candidates):
        raise ValueError("duplicate candidate song in ranking list")
    batch = ScoreBatch(
        users=np.array([user]), playlists=np.array([playlist]),
        songs=candidates[None, :],
        members=np.asarray(members, dtype=np.int64)[None, :], counts=np.array([count]),
    )
    scores = scorer(batch)[0]
    order = np.lexsort((candidates, scores))
    return int(np.nonzero(order == 0)[0][0]) + 1


def hit_at_n(rank, n):
    if n < 1:
        raise ValueError(f"N must be >= 1, got {n}")
    return 1 if rank <= n else 0


def ndcg_at_n(rank, n):
    if n < 1:
        raise ValueError(f"N must be >= 1, got {n}")
    return 1.0 / math.log2(rank + 1) if rank <= n else 0.0


def evaluate(scorer, split, num_songs, n_list=None, seed=0, which="test",
             num_negatives=DEFAULT_NUM_NEGATIVES):
    """Mean hit@N and NDCG@N over all held-out songs.

    `which` selects the dev or test items. Returns
    {"N": {n: {"hit": ..., "ndcg": ...}}, "num_playlists": ...}.
    """
    if n_list is None:
        n_list = list(range(1, 11))
    held = split.dev if which == "dev" else split.test
    if not held:
        raise ValueError("empty evaluation set")
    ranks = []
    for p in sorted(held):
        rng = np.random.default_rng([seed, p])
        members, count = pad_members(split.train[p], split.max_members)
        negatives = sample_negatives(split.full_set(p), num_songs, num_negatives, rng)
        ranks.append(rank_candidates(
            scorer, split.owner[p], p, members, count, held[p], negatives
        ))

    out = {"N": {}, "num_playlists": len(ranks)}
    for n in n_list:
        hits = [hit_at_n(r, n) for r in ranks]
        ndcgs = [ndcg_at_n(r, n) for r in ranks]
        out["N"][n] = {
            "hit": float(np.mean(hits)),
            "ndcg": float(np.mean(ndcgs)),
        }
    return out
