"""Planted-cluster playlist corpora for the benchmark, written as TSV.

Songs fall into clusters, and each cluster into blocks of consecutive
songs. A playlist belongs to one block, is owned by one user of that
block's cluster, and samples its songs from the block, so a held-out
song co-occurs with the playlist's members through sibling playlists of
the same block. Unlike the fixed-length test corpus, lengths vary
evenly between `min_len` and `max_len`, in an order the seed shuffles: every
seed gives the same multiset of lengths, so the amount of work (training
instances and the padded member length) does not change with the seed.
"""

import numpy as np


def planted_rows(seed, num_playlists, num_songs, min_len, max_len,
                 num_clusters=4, users_per_cluster=25):
    """(user, playlist, song) id triples of one corpus; same seed, same rows."""
    songs_per_cluster = num_songs // num_clusters
    blocks_per_cluster = songs_per_cluster // (max_len + 7)
    if blocks_per_cluster < 1:
        raise ValueError("each cluster must hold a block of more than max_len songs")
    block = songs_per_cluster // blocks_per_cluster
    rng = np.random.default_rng(seed)
    lengths = rng.permutation(np.round(np.linspace(min_len, max_len, num_playlists)))
    # Every block hosts the same number of playlists (give or take one), so
    # nearly every song enters the catalog whatever the seed.
    blocks = rng.permutation(np.arange(num_playlists) % (num_clusters * blocks_per_cluster))
    rows = []
    for j, (length, b) in enumerate(zip(lengths.astype(int), blocks)):
        c = int(b) // blocks_per_cluster
        user = f"u{c * users_per_cluster + int(rng.integers(users_per_cluster))}"
        start = c * songs_per_cluster + int(b) % blocks_per_cluster * block
        picks = np.sort(rng.choice(block, size=length, replace=False))
        rows.extend((user, f"p{j}", f"s{start + int(t)}") for t in picks)
    return rows


def write_tsv(rows, path):
    with open(path, "w", encoding="utf-8") as f:
        for user, playlist, song in rows:
            f.write(f"{user}\t{playlist}\t{song}\n")
