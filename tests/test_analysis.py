import csv
import json
import math

import numpy as np
import pytest

import oracles
import synthetic
from metric_rec import analysis, params as params_mod
from metric_rec.analysis import CooccurrenceCounts


def test_count_cooccurrences_once_per_pair_per_playlist():
    counts = analysis.count_cooccurrences([[1, 2, 3], [2, 3], [3, 3, 2]])
    assert counts.pair[frozenset((2, 3))] == 3
    assert counts.pair[frozenset((1, 2))] == 1
    assert counts.total_pairs == 3 + 1 + 1
    assert counts.single[3] == 3
    assert counts.total_singles == 7


def test_pmi_single_pair_corpus():
    # one playlist of two songs: P(k,t)=1, P(k)=P(t)=1/2 -> log(1/(1/2 * 1/2))
    counts = analysis.count_cooccurrences([[1, 2]])
    assert analysis.pmi(1, 2, counts) == pytest.approx(math.log(4.0))


def test_pmi_independence_is_zero():
    counts = CooccurrenceCounts(
        pair={frozenset((1, 2)): 1}, single={1: 1, 2: 1},
        total_pairs=4, total_singles=2,
    )
    assert analysis.pmi(1, 2, counts) == pytest.approx(0.0, abs=1e-12)


def test_pmi_symmetric():
    counts = analysis.count_cooccurrences([[1, 2, 3], [1, 3]])
    assert analysis.pmi(1, 3, counts) == analysis.pmi(3, 1, counts)


def test_pmi_requires_cooccurrence():
    counts = analysis.count_cooccurrences([[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="never co-occur"):
        analysis.pmi(1, 3, counts)


def test_pmi_attention_hand_softmax():
    # crafted counts give PMI(ln 3) for member 1 and PMI(0) for member 2
    counts = CooccurrenceCounts(
        pair={frozenset((1, 9)): 9, frozenset((2, 9)): 3},
        single={1: 1, 2: 1, 9: 1},
        total_pairs=12, total_singles=2,
    )
    assert analysis.pmi(1, 9, counts) == pytest.approx(math.log(3.0))
    assert analysis.pmi(2, 9, counts) == pytest.approx(0.0, abs=1e-12)
    w = analysis.pmi_attention_scores([1, 2], 9, counts)
    np.testing.assert_allclose(w, [0.75, 0.25], atol=1e-12)


def test_pmi_attention_uniform_and_floor():
    counts = analysis.count_cooccurrences([[1, 2, 3]] * 4)
    w = analysis.pmi_attention_scores([2, 3], 1, counts)
    np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-12)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    # member 5 never co-occurs with 1: it gets the floor and ~zero weight
    counts2 = analysis.count_cooccurrences([[1, 2, 3]] * 4 + [[5, 6]])
    w2 = analysis.pmi_attention_scores([2, 5], 1, counts2)
    assert w2[1] < 1e-6
    assert w2.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        analysis.pmi_attention_scores([], 1, counts)


def test_pearson_endpoints():
    assert analysis.pearson([0.1, 0.2, 0.3], [0.2, 0.4, 0.6]) == pytest.approx(1.0)
    assert analysis.pearson([0.1, 0.2, 0.3], [0.6, 0.4, 0.2]) == pytest.approx(-1.0)
    xs = [0.2, 0.5, 0.3]
    assert analysis.pearson(xs, xs) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        analysis.pearson([1.0], [1.0])


def _tiny_mass_setup():
    catalog, split = synthetic.catalog_and_split(
        [(f"u{p}", f"p{p}", f"s{(p * 2 + s) % 8}") for p in range(3) for s in range(6)])
    rng = np.random.default_rng(4)
    params = params_mod.init_mass(
        catalog.num_users, catalog.num_playlists, catalog.num_songs,
        4, rng,
    )
    return catalog, split, params


def test_attention_correlation_writes_csv(tmp_path):
    catalog, split, params = _tiny_mass_setup()
    counts = analysis.count_cooccurrences(split.train_lists())
    path = str(tmp_path / "pmi_att.csv")
    rho, rows = analysis.attention_correlation(params, split, counts, csv_path=path)
    assert -1.0 <= rho <= 1.0
    assert len(rows) == sum(len(songs) for songs, test in zip(split.train_lists(), split.test)
                            if test)
    for _, _, pa, ma in rows:
        assert 0.0 <= pa <= 1.0 and 0.0 <= ma <= 1.0
    with open(path, newline="", encoding="utf-8") as f:
        table = list(csv.reader(f))
    assert table[0] == ["playlist", "member", "pmi_att", "model_att"]
    assert len(table) == len(rows) + 1


def test_read_training_log_and_runtime_report(tmp_path):
    log1 = tmp_path / "a.jsonl"
    log1.write_text(json.dumps({"epoch": 0, "seconds": 2.0}) + "\n", encoding="utf-8")
    log2 = tmp_path / "b.jsonl"
    with open(log2, "w", encoding="utf-8") as f:
        for s in (3.0, 5.0):
            f.write(json.dumps({"epoch": 0, "seconds": s}) + "\n")
    report = oracles.runtime_report(str(log1))
    assert report["mean_seconds"] == [2.0]
    assert "ratios" not in report
    report = oracles.runtime_report(str(log1), str(log2))
    assert report["mean_seconds"] == [2.0, 4.0]
    assert report["ratios"] == [2.0]
    (tmp_path / "empty.jsonl").write_text("", encoding="utf-8")
    with pytest.raises(ValueError):
        oracles.read_training_log(str(tmp_path / "empty.jsonl"))
