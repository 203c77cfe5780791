"""Synthetic corpora used across the test suite.

The planted-cluster corpus places 200 songs in 2 clusters of 100. Each
cluster is divided into blocks of consecutive songs; a playlist picks a
block and samples its songs from it, so held-out songs co-occur strongly
with the playlist's members through sibling playlists of the same block.
Users are assigned to one cluster each.
"""

import numpy as np

from metric_rec import dataset


def planted_cluster_rows(
    num_clusters=2,
    songs_per_cluster=100,
    num_playlists=60,
    playlist_size=10,
    block=11,
    users_per_cluster=10,
    seed=0,
):
    """(user, playlist, song) interaction rows with planted local structure."""
    rng = np.random.default_rng(seed)
    rows = []
    num_blocks = songs_per_cluster // block
    for j in range(num_playlists):
        c = j % num_clusters
        user = f"u{c * users_per_cluster + rng.integers(users_per_cluster)}"
        start = int(rng.integers(num_blocks)) * block
        block_songs = [c * songs_per_cluster + start + t for t in range(block)]
        picks = rng.choice(block, size=playlist_size, replace=False)
        rows += [(user, f"p{j}", f"s{block_songs[t]}") for t in sorted(picks)]
    return rows


def index_rows(rows, k=1):
    """`dataset.index_interactions` of the (user, playlist, song) `rows`,
    with no size cap."""
    return dataset.index_interactions(*zip(*rows), k=k, max_playlists_per_user=len(rows),
                                      max_songs_per_playlist=len(rows))


def catalog_and_split(rows, seed=0, k=1):
    """Catalog + leave-one-out split of the (user, playlist, song) `rows`
    through `prepare`'s columnar pipeline, with no size cap."""
    catalog, codes = index_rows(rows, k)
    return catalog, dataset.leave_one_out(catalog, codes, seed)


def planted_cluster_split(seed=0, **kwargs):
    """Catalog + split for the planted corpus (k-core then leave-one-out)."""
    return catalog_and_split(planted_cluster_rows(seed=seed, **kwargs), seed, k=5)


def write_tsv(rows, path):
    with open(path, "w", encoding="utf-8") as f:
        for user, playlist, song in rows:
            f.write(f"{user}\t{playlist}\t{song}\n")


def figure1_rows(num_distractors=20):
    """The toy two-playlist pattern embedded among distractor songs.

    p1 holds {s1, s2}; p2 holds {s1, s2, s3}. Distractor songs d0..d19
    ride in a filler playlist so they enter the catalog (and the negative
    pools) but never co-occur with the toy songs.
    """
    rows = [("u1", "p1", "s1"), ("u1", "p1", "s2"),
            ("u2", "p2", "s1"), ("u2", "p2", "s2"), ("u2", "p2", "s3")]
    return rows + [("u3", "pd", f"d{i}") for i in range(num_distractors)]


def figure1_split(num_distractors=20):
    """Catalog + training-only split for the toy pattern.

    Only p1 and p2 are trained; the filler playlist exists solely to place
    the distractors in the catalog.
    """
    rows = figure1_rows(num_distractors)
    catalog, _ = index_rows(rows)
    train, owner = {}, {}
    for user, playlist, song in rows:
        if playlist == "pd":
            continue
        p = catalog.playlists[playlist]
        train.setdefault(p, []).append(catalog.songs[song])
        owner[p] = catalog.users[user]
    return catalog, split_of(catalog.num_playlists, train, owner)


def split_of(num_playlists, train, owner, dev=None, test=None):
    """The SplitDataset of `num_playlists` playlists whose entries are the
    playlists of `train`, a dict of train lists, with owners `owner` and
    held-out songs `dev` and `test` (dicts, 0 where they lack a playlist)."""
    dev, test = dev or {}, test or {}
    rows, songs = [], []
    for p, members in train.items():
        songs += members
        rows.append((p, owner[p], dev.get(p, 0), test.get(p, 0), len(songs)))
    return dataset.split_from_rows(np.array(rows, dtype=np.int64),
                                   np.array(songs, dtype=np.int64), num_playlists)
