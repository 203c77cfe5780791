"""Attention diagnostics via song co-occurrence PMI.

Co-occurrence is counted once per unordered song pair per training
playlist. PMI(k, t) = log(P(k, t) / (P(k) P(t))) with P(k, t) estimated
over all counted pairs and P(k) over all playlist memberships. Per
context, the PMI values of the members against the target song are pushed
through a softmax (zero co-count members get a large negative floor) and
compared with the model's attention weights by Pearson correlation.

Only the co-counts of the (member, target) pairs of the test contexts are
computed, from each playlist's distinct train songs; `tests/oracles.py`
keeps the count of every pair as the reference.
"""

import csv
import math
import os
from itertools import pairwise

import numpy as np

from .dataset import row_positions
from .evaluation import context_batch
from .models import forward

PMI_FLOOR = -20.0


def pearson(xs, ys):
    """Pearson correlation of two series of at least 2 values; nan when either
    is constant."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if len(xs) < 2:
        raise ValueError("need at least 2 pairs for a correlation")
    with np.errstate(divide="ignore", invalid="ignore"):  # a constant series: nan
        return float(np.corrcoef(xs, ys)[0, 1])


def attention_correlation(params, split, csv_path=None):
    """Pearson correlation between PMI attention and model attention.

    Pairs are collected over every test context and real member, in member
    order with repeats; returns (rho, rows) where rows are (playlist, member,
    pmi_att, model_att). With `csv_path` it writes them there, making the
    directory only once they are computed. An attention weight that is not
    finite raises FloatingPointError, and a PMI or model attention that is
    the same for every pair, which has no correlation, raises ValueError.
    """
    playlists = np.flatnonzero(split.test)
    targets = split.test[playlists]
    # one candidate per context: the attention comes back as (B, l)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        _, cache = forward(params, context_batch(split, playlists, targets))
    if not np.isfinite(cache["alpha"]).all():
        raise FloatingPointError("the model gives an attention weight of inf or nan")
    # each playlist's distinct train songs as sorted keys playlist * base + song
    base, sizes = params.num_songs + 1, np.diff(split.offsets)
    keys = np.unique(np.repeat(np.arange(len(sizes)) * base, sizes) + split.songs)
    owners, songs = np.divmod(keys, base)
    single = np.bincount(songs, minlength=base)
    distinct = np.bincount(owners, minlength=len(sizes))
    total_pairs, total_singles = int((distinct * (distinct - 1) // 2).sum()), len(keys)
    # co-count of each (member, target) pair: the target's playlists that hold the member
    counts = sizes[playlists]
    members = split.songs[row_positions(split.offsets[playlists], counts)]
    target = np.repeat(targets, counts)
    by_song = owners[np.argsort(songs, kind="stable")]  # each song's playlists, in turn
    pair = np.repeat(np.arange(len(members)), single[target])
    probe = by_song[row_positions((np.cumsum(single) - single)[target], single[target])]
    probe = probe * base + members[pair]
    hit = keys[np.searchsorted(keys, probe).clip(max=len(keys) - 1)] == probe
    co = np.bincount(pair[hit], minlength=len(members))
    # PMI where the pair co-occurs, in `pmi`'s float expression, then a softmax per context
    seen = co > 0
    ratio = (co[seen] / total_pairs) / (
        (single[members[seen]] / total_singles) * (single[target[seen]] / total_singles))
    pmi = np.full(len(members), PMI_FLOOR)
    pmi[seen] = [math.log(r) for r in ratio.tolist()]
    pmi_att = np.empty_like(pmi)
    for a, b in pairwise(np.append(0, np.cumsum(counts)).tolist()):
        w = np.exp(pmi[a:b] - pmi[a:b].max())
        pmi_att[a:b] = w / w.sum()
    model_att = cache["alpha"][np.arange(cache["alpha"].shape[1]) < counts[:, None]]
    rho = pearson(pmi_att, model_att)
    if math.isnan(rho):
        raise ValueError("the PMI or model attention is constant over every pair: "
                         "their correlation is undefined")
    rows = list(zip(np.repeat(playlists, counts).tolist(), members.tolist(),
                    pmi_att.tolist(), model_att.tolist()))
    if csv_path:
        os.makedirs(os.path.dirname(csv_path) or os.curdir, exist_ok=True)
        with open(csv_path, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(["playlist", "member", "pmi_att", "model_att"])
            w.writerows(rows)
    return rho, rows
