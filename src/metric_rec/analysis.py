"""Attention diagnostics via song co-occurrence PMI.

Co-occurrence is counted once per unordered song pair per training
playlist. PMI(k, t) = log(P(k, t) / (P(k) P(t))) with P(k, t) estimated
over all counted pairs and P(k) over all playlist memberships. Per
context, the PMI values of the members against the target song are pushed
through a softmax (zero co-count members get a large negative floor) and
compared with the model's attention weights by Pearson correlation.
"""

import csv
import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .evaluation import context_batch
from .models import forward

PMI_FLOOR = -20.0


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


def pearson(xs, ys):
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if len(xs) < 2:
        raise ValueError("need at least 2 pairs for a correlation")
    return float(np.corrcoef(xs, ys)[0, 1])


def attention_correlation(params, split, counts, csv_path=None):
    """Pearson correlation between PMI attention and model attention.

    Pairs are collected over every test context and real member; returns
    (rho, rows) where rows are (playlist, member, pmi_att, model_att). An
    attention weight that is not finite raises FloatingPointError.
    """
    playlists = np.flatnonzero(split.test)
    targets = split.test[playlists]
    # one candidate per context: the attention comes back as (B, l)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        _, cache = forward(params, context_batch(split, playlists, targets))
    if not np.isfinite(cache["alpha"]).all():
        raise FloatingPointError("the model gives an attention weight of inf or nan")
    rows = []
    train = split.train_lists()
    for p, target, model_att in zip(playlists.tolist(), targets.tolist(), cache["alpha"]):
        members = train[p]
        pmi_att = pmi_attention_scores(members, target, counts)
        for m, pa, ma in zip(members, pmi_att, model_att):
            rows.append((p, m, float(pa), float(ma)))
    rho = pearson([r[2] for r in rows], [r[3] for r in rows])
    if csv_path:
        with open(csv_path, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(["playlist", "member", "pmi_att", "model_att"])
            w.writerows(rows)
    return rho, rows

