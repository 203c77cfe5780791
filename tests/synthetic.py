"""Synthetic corpora used across the test suite.

The planted-cluster corpus places 200 songs in 2 clusters of 100. Each
cluster is divided into blocks of consecutive songs; a playlist picks a
block and samples its songs from it, so held-out songs co-occur strongly
with the playlist's members through sibling playlists of the same block.
Users are assigned to one cluster each.
"""

import numpy as np

from metric_rec import dataset


def planted_cluster_records(
    num_clusters=2,
    songs_per_cluster=100,
    num_playlists=60,
    playlist_size=10,
    block=11,
    users_per_cluster=10,
    seed=0,
):
    """Interaction records (user, playlist, song) with planted local structure."""
    rng = np.random.default_rng(seed)
    records = []
    num_blocks = songs_per_cluster // block
    for j in range(num_playlists):
        c = j % num_clusters
        user = f"u{c * users_per_cluster + rng.integers(users_per_cluster)}"
        start = int(rng.integers(num_blocks)) * block
        block_songs = [c * songs_per_cluster + start + t for t in range(block)]
        picks = rng.choice(block, size=playlist_size, replace=False)
        for t in sorted(picks):
            records.append(
                dataset.InteractionRecord(user, f"p{j}", f"s{block_songs[t]}")
            )
    return records


def planted_cluster_split(seed=0, **kwargs):
    """Catalog + split for the planted corpus (k-core then leave-one-out)."""
    records = planted_cluster_records(seed=seed, **kwargs)
    records = dataset.k_core_filter(records, 5)
    catalog = dataset.build_catalog(records)
    split = dataset.leave_one_out_split(records, seed, catalog)
    return catalog, split


def write_tsv(records, path):
    with open(path, "w", encoding="utf-8") as f:
        for r in records:
            f.write(f"{r.user_id}\t{r.playlist_id}\t{r.song_id}\n")


def figure1_records(num_distractors=20):
    """The toy two-playlist pattern embedded among distractor songs.

    p1 holds {s1, s2}; p2 holds {s1, s2, s3}. Distractor songs d0..d19
    ride in a filler playlist so they enter the catalog (and the negative
    pools) but never co-occur with the toy songs.
    """
    records = [
        dataset.InteractionRecord("u1", "p1", "s1"),
        dataset.InteractionRecord("u1", "p1", "s2"),
        dataset.InteractionRecord("u2", "p2", "s1"),
        dataset.InteractionRecord("u2", "p2", "s2"),
        dataset.InteractionRecord("u2", "p2", "s3"),
    ]
    for i in range(num_distractors):
        records.append(dataset.InteractionRecord("u3", "pd", f"d{i}"))
    return records


def figure1_split(num_distractors=20):
    """Catalog + training-only split for the toy pattern.

    Only p1 and p2 are trained; the filler playlist exists solely to place
    the distractors in the catalog.
    """
    records = figure1_records(num_distractors)
    catalog = dataset.build_catalog(records)
    train, owner = {}, {}
    for r in records:
        if r.playlist_id == "pd":
            continue
        p = catalog.playlists[r.playlist_id]
        train.setdefault(p, []).append(catalog.songs[r.song_id])
        owner[p] = catalog.users[r.user_id]
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
