import csv
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import synthetic
from metric_rec import analysis, dataset, params as params_mod
from oracles import CooccurrenceCounts


def test_count_cooccurrences_once_per_pair_per_playlist():
    counts = oracles.count_cooccurrences([[1, 2, 3], [2, 3], [3, 3, 2]])
    assert counts.pair[frozenset((2, 3))] == 3
    assert counts.pair[frozenset((1, 2))] == 1
    assert counts.total_pairs == 3 + 1 + 1
    assert counts.single[3] == 3
    assert counts.total_singles == 7


def test_pmi_single_pair_corpus():
    # one playlist of two songs: P(k,t)=1, P(k)=P(t)=1/2 -> log(1/(1/2 * 1/2))
    counts = oracles.count_cooccurrences([[1, 2]])
    assert oracles.pmi(1, 2, counts) == pytest.approx(math.log(4.0))


def test_pmi_independence_is_zero():
    counts = CooccurrenceCounts(
        pair={frozenset((1, 2)): 1}, single={1: 1, 2: 1},
        total_pairs=4, total_singles=2,
    )
    assert oracles.pmi(1, 2, counts) == pytest.approx(0.0, abs=1e-12)


def test_pmi_symmetric():
    counts = oracles.count_cooccurrences([[1, 2, 3], [1, 3]])
    assert oracles.pmi(1, 3, counts) == oracles.pmi(3, 1, counts)


def test_pmi_requires_cooccurrence():
    counts = oracles.count_cooccurrences([[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="never co-occur"):
        oracles.pmi(1, 3, counts)


def test_pmi_attention_hand_softmax():
    # crafted counts give PMI(ln 3) for member 1 and PMI(0) for member 2
    counts = CooccurrenceCounts(
        pair={frozenset((1, 9)): 9, frozenset((2, 9)): 3},
        single={1: 1, 2: 1, 9: 1},
        total_pairs=12, total_singles=2,
    )
    assert oracles.pmi(1, 9, counts) == pytest.approx(math.log(3.0))
    assert oracles.pmi(2, 9, counts) == pytest.approx(0.0, abs=1e-12)
    w = oracles.pmi_attention_scores([1, 2], 9, counts)
    np.testing.assert_allclose(w, [0.75, 0.25], atol=1e-12)


def test_pmi_attention_uniform_and_floor():
    counts = oracles.count_cooccurrences([[1, 2, 3]] * 4)
    w = oracles.pmi_attention_scores([2, 3], 1, counts)
    np.testing.assert_allclose(w, [0.5, 0.5], atol=1e-12)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    # member 5 never co-occurs with 1: it gets the floor and ~zero weight
    counts2 = oracles.count_cooccurrences([[1, 2, 3]] * 4 + [[5, 6]])
    w2 = oracles.pmi_attention_scores([2, 5], 1, counts2)
    assert w2[1] < 1e-6
    assert w2.sum() == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        oracles.pmi_attention_scores([], 1, counts)


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
    path = str(tmp_path / "pmi_att.csv")
    rho, rows = analysis.attention_correlation(params, split, csv_path=path)
    assert -1.0 <= rho <= 1.0
    assert len(rows) == sum(len(songs) for songs, test in zip(oracles.train_lists(split),
                                                               split.test) if test)
    for _, _, pa, ma in rows:
        assert 0.0 <= pa <= 1.0 and 0.0 <= ma <= 1.0
    with open(path, newline="", encoding="utf-8") as f:
        table = list(csv.reader(f))
    assert table[0] == ["playlist", "member", "pmi_att", "model_att"]
    assert len(table) == len(rows) + 1


@st.composite
def _pmi_cases(draw):
    """A split of 1-7 playlists over 2-12 songs, some without an entry, whose
    train lists may repeat a song and whose test songs may be in no train
    list, and a MASS model of any attention kind over its catalog."""
    num_songs = draw(st.integers(2, 12))
    rows, songs = [], []
    for p in range(draw(st.integers(1, 7))):
        train = draw(st.lists(st.integers(1, num_songs), min_size=1, max_size=8))
        outside = sorted(set(range(1, num_songs + 1)) - set(train))
        if outside and draw(st.integers(0, 3)):
            songs += train
            rows.append([p, p % 3, draw(st.sampled_from(outside)),
                         draw(st.sampled_from(outside)), len(songs)])
    if not rows:
        rows, songs = [[0, 0, num_songs, num_songs, 1]], [1]
    split = dataset.split_from_rows(np.array(rows, dtype=np.int64),
                                    np.array(songs, dtype=np.int64), rows[-1][0] + 1)
    params = params_mod.init_mass(
        3, len(split.owner), num_songs, 4, np.random.default_rng(draw(st.integers(0, 2 ** 32))),
        attention=draw(st.sampled_from(params_mod.ATTENTION_KINDS)))
    return params, split


def _case(rows, songs, num_songs):
    split = dataset.split_from_rows(np.array(rows, dtype=np.int64),
                                    np.array(songs, dtype=np.int64), rows[-1][0] + 1)
    return params_mod.init_mass(3, len(split.owner), num_songs, 4,
                                np.random.default_rng(0)), split


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=_pmi_cases())
# playlist 1 has no entry; song 7, playlist 3's test song, is in no train list
@example(case=_case([[0, 0, 5, 6, 4], [2, 1, 6, 1, 7], [3, 2, 1, 7, 11]],
                    [1, 2, 2, 3, 2, 3, 3, 4, 2, 4, 4], 7))
def test_attention_correlation_gives_the_bits_of_the_pair_counts(case):
    """The rows and rho equal, bit for bit, those of the reference that counts
    every pair of every train list; a split whose PMI or model attention is
    the same on every pair is refused, as is one with fewer than 2 pairs."""
    params, split = case
    want = oracles.attention_rows(params, split)
    pmi_att, model_att = [r[2] for r in want], [r[3] for r in want]
    if len(want) < 2 or len(set(pmi_att)) == 1 or len(set(model_att)) == 1:
        with pytest.raises(ValueError, match="2 pairs|constant over every pair"):
            analysis.attention_correlation(params, split)
        return
    rho, rows = analysis.attention_correlation(params, split)
    assert rows == want
    assert rho == float(np.corrcoef(pmi_att, model_att)[0, 1])


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
