import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import synthetic
from metric_rec import evaluation, models, params as params_mod
from metric_rec.models import ScoreBatch


def _fixed_scorer(score_by_song):
    table = np.asarray(score_by_song, dtype=np.float64)

    def scorer(batch):
        return table[batch.songs]

    return scorer


def _rank(scores_by_song, test_song, negatives):
    batch = ScoreBatch(users=np.array([0]), playlists=np.array([0]),
                       songs=np.array([[test_song, *negatives]]),
                       members=np.array([[1]]), counts=np.array([1]))
    return evaluation.rank_candidates(_fixed_scorer(scores_by_song), batch)[0]


def test_rank_best_and_worst():
    # songs 1..5; test song 3 against negatives {1, 2, 4, 5}
    scores = np.array([9.0, 1.0, 1.0, 0.0, 1.0, 1.0])
    assert _rank(scores, 3, [1, 2, 4, 5]) == 1
    scores[3] = 2.0
    assert _rank(scores, 3, [1, 2, 4, 5]) == 5


def test_rank_tie_breaks_by_song_index():
    # exact tie at the best score between the test song (5) and a negative (9)
    scores = np.zeros(11)
    scores[5] = scores[9] = -1.0
    scores[[1, 2, 3]] = 1.0
    assert _rank(scores, 5, [9, 1, 2, 3]) == 1
    # reversed: the negative has the smaller index and wins the tie
    scores2 = np.zeros(11)
    scores2[5] = scores2[4] = -1.0
    scores2[[1, 2, 3]] = 1.0
    assert _rank(scores2, 5, [4, 1, 2, 3]) == 2


def test_rank_rows_match_lexsort_reference():
    # scores with many exact ties; each row ranked as a per-row lexsort would
    rng = np.random.default_rng(11)
    table = rng.integers(0, 5, size=300).astype(np.float64)
    songs = np.stack([rng.choice(np.arange(1, 300), size=21, replace=False)
                      for _ in range(40)])
    batch = ScoreBatch(users=np.zeros(40, dtype=np.int64), playlists=np.zeros(40, dtype=np.int64),
                       songs=songs, members=np.ones((40, 1), dtype=np.int64),
                       counts=np.ones(40, dtype=np.int64))
    ranks = evaluation.rank_candidates(_fixed_scorer(table), batch)
    for row, rank in zip(songs, ranks):
        order = np.lexsort((row, table[row]))
        assert rank == int(np.nonzero(order == 0)[0][0]) + 1


RANK_MODELS = ([("mdr", variant, "") for variant in params_mod.MDR_VARIANTS]
               + [("mass", "ups", att) for att in params_mod.ATTENTION_KINDS])


@pytest.mark.parametrize("chunk", [1, 3, 1000])
@pytest.mark.parametrize("kind,variant,attention", RANK_MODELS,
                         ids=[" ".join(m).strip() for m in RANK_MODELS])
def test_rank_candidates_is_bitwise_the_per_context_loop(
        monkeypatch, chunk, kind, variant, attention):
    """Chunks of contexts give every row the scores, bit for bit, and the rank
    that it gets scored alone, for ragged counts and 0-padded members."""
    rng = np.random.default_rng(23)
    v, m, n, d, b, c, l = 120, 5, 6, 32, 23, 21, 7
    if kind == "mdr":
        p = params_mod.init_mdr(m, n, v, d, rng, variant=variant)
    else:
        p = params_mod.init_mass(m, n, v, d, rng, variant=variant, attention=attention)
    p.tensors.flat[...] += rng.normal(scale=0.3, size=p.tensors.flat.size)
    p.zero_padding_rows()
    counts = rng.integers(1, l + 1, size=b)
    members = rng.integers(1, v + 1, size=(b, l)) * (np.arange(l) < counts[:, None])
    batch = ScoreBatch(users=rng.integers(m, size=b), playlists=rng.integers(n, size=b),
                       songs=np.array([rng.choice(v, c, replace=False) + 1 for _ in range(b)]),
                       members=members, counts=counts)
    scorer = models.make_scorer(p)
    chunks = []

    def recording(chunk_batch):
        chunks.append(scorer(chunk_batch))
        return chunks[-1]

    monkeypatch.setattr(evaluation, "RANK_CHUNK", chunk)
    ranks = evaluation.rank_candidates(recording, batch)
    ref_scores, ref_ranks = oracles.rank_per_context(scorer, batch)
    assert len(chunks) == -(-b // chunk)
    assert np.concatenate(chunks).tobytes() == ref_scores.tobytes()
    assert ranks.tolist() == ref_ranks.tolist()


def test_rank_rejects_duplicate_candidates():
    batch = ScoreBatch(users=np.array([0]), playlists=np.array([0]),
                       songs=np.array([[5, 1, 5, 2]]))
    for _ in range(2):  # a refused batch keeps no ranking plan, so it is refused again
        with pytest.raises(ValueError, match="duplicate"):
            evaluation.rank_candidates(_fixed_scorer(np.zeros(11)), batch)


def test_ranking_a_batch_twice_reuses_its_chunks_and_masks():
    """A second ranking of one batch reuses the first's sub-batches, with the
    member masks MASS built on them, and gives the same ranks."""
    rng = np.random.default_rng(8)
    p = params_mod.init_mass(3, 4, 60, 8, rng, attention="mem_metric")
    b, l = 2 * evaluation.RANK_CHUNK + 3, 5
    batch = ScoreBatch(users=rng.integers(3, size=b), playlists=rng.integers(4, size=b),
                       songs=np.array([rng.choice(60, 11, replace=False) + 1 for _ in range(b)]),
                       members=rng.integers(1, 61, size=(b, l)),
                       counts=rng.integers(1, l + 1, size=b))
    seen = []

    def scorer(chunk):
        seen.append(chunk)
        return models.score_batch(p, chunk)

    first = evaluation.rank_candidates(scorer, batch)
    second = evaluation.rank_candidates(scorer, batch)
    assert first.tolist() == second.tolist()
    assert len(seen) == 6 and all(a is c for a, c in zip(seen[:3], seen[3:]))
    assert all("mask" in chunk.plan for chunk in seen)
    assert first.tolist() == oracles.rank_per_context(scorer, batch)[1].tolist()


def test_hit_and_ndcg_table():
    assert (oracles.hit_at_n(1, 10), oracles.ndcg_at_n(1, 10)) == (1, 1.0)
    assert oracles.hit_at_n(10, 10) == 1
    assert (oracles.hit_at_n(11, 10), oracles.ndcg_at_n(11, 10)) == (0, 0.0)
    assert oracles.ndcg_at_n(3, 10) == pytest.approx(0.5)
    assert oracles.ndcg_at_n(1, 1) == 1.0
    with pytest.raises(ValueError):
        oracles.hit_at_n(1, 0)
    with pytest.raises(ValueError):
        oracles.ndcg_at_n(1, 0)


def test_evaluate_has_the_bits_of_the_per_rank_mean(monkeypatch):
    """`evaluate`'s array metrics equal np.mean over the per-list reference
    values, bit for bit, for random ranks, lengths and lists of N."""
    rng = np.random.default_rng(12)
    for _ in range(200):
        ranks = rng.integers(1, 102, size=int(rng.integers(1, 400)))
        n_list = (list(range(1, 11)) if rng.random() < 0.5
                  else rng.choice(np.arange(1, 102), size=int(rng.integers(1, 6))).tolist())
        monkeypatch.setattr(evaluation, "rank_candidates", lambda scorer, held: ranks)
        got = evaluation.evaluate(None, None, n_list=n_list)
        want = {"N": {n: {"hit": float(np.mean([oracles.hit_at_n(r, n) for r in ranks])),
                          "ndcg": float(np.mean([oracles.ndcg_at_n(r, n) for r in ranks]))}
                      for n in n_list},
                "num_playlists": len(ranks)}
        assert got == want


def test_evaluate_refuses_n_below_one_before_ranking(monkeypatch):
    monkeypatch.setattr(evaluation, "rank_candidates", None)
    with pytest.raises(ValueError, match="N must be >= 1, got 0"):
        evaluation.evaluate(None, None, n_list=[3, 0])


def test_random_scores_hit_rate_near_uniform():
    # Monte-Carlo oracle: with 100 negatives, a random ranker lands the test
    # song in the top 10 with probability 10/101.
    rng = np.random.default_rng(0)
    trials = 3000
    hits = 0
    for _ in range(trials):
        rank = _rank(rng.standard_normal(200), 1, np.arange(2, 102))
        hits += oracles.hit_at_n(rank, 10)
    assert abs(hits / trials - 10 / 101) < 0.02


def _toy_eval_split(num_playlists=4, size=8):
    return synthetic.catalog_and_split(
        [(f"u{p}", f"p{p}", f"s{p}_{s}") for p in range(num_playlists) for s in range(size)])


def test_evaluate_perfect_model():
    catalog, split = _toy_eval_split()
    target = split.test

    def scorer(batch):
        return np.where(batch.songs == target[batch.playlists][:, None], 0.0, 1.0)

    held = evaluation.held_out(split, catalog.num_songs, num_negatives=10)
    out = evaluation.evaluate(scorer, held, n_list=[1, 10])
    assert out["num_playlists"] == catalog.num_playlists
    assert out["N"][1] == {"hit": 1.0, "ndcg": 1.0}
    assert out["N"][10] == {"hit": 1.0, "ndcg": 1.0}


def test_evaluate_deterministic_and_dev_selection():
    catalog, split = _toy_eval_split()
    rng = np.random.default_rng(5)
    table = rng.standard_normal(catalog.num_songs + 1)
    scorer = _fixed_scorer(table)
    a = evaluation.evaluate(scorer, evaluation.held_out(
        split, catalog.num_songs, seed=3, num_negatives=10))
    b = evaluation.evaluate(scorer, evaluation.held_out(
        split, catalog.num_songs, seed=3, num_negatives=10))
    assert a == b
    dev = evaluation.evaluate(scorer, evaluation.held_out(
        split, catalog.num_songs, seed=3, which="dev", num_negatives=10))
    assert dev["num_playlists"] == a["num_playlists"]


def test_evaluate_empty_set_rejected():
    catalog, split = _toy_eval_split()
    split.test[:] = 0
    with pytest.raises(ValueError, match="empty"):
        evaluation.held_out(split, catalog.num_songs)


def test_context_batch_pads_members():
    catalog, split = _toy_eval_split()
    train = oracles.train_lists(split)
    train[1] = train[1][:2]
    split = synthetic.split_of(catalog.num_playlists, dict(enumerate(train)),
                               dict(enumerate(split.owner.tolist())))
    batch = evaluation.context_batch(split, [1, 0], [[5], [6]])
    assert split.max_members == 6
    np.testing.assert_array_equal(batch.members, [train[1] + [0] * 4, train[0]])
    np.testing.assert_array_equal(batch.counts, [2, 6])
    np.testing.assert_array_equal(batch.users, [split.owner[1], split.owner[0]])
    np.testing.assert_array_equal(batch.playlists, [1, 0])
    np.testing.assert_array_equal(batch.songs, [[5], [6]])


@st.composite
def _held_out_cases(draw):
    """(split, num_songs, seed, which, num_negatives): up to 6 playlists over
    a few songs or over 2,000 or 20,000, some without an entry or a held-out
    song, train lists that may repeat a song, and at times more negatives
    than a pool holds."""
    num_songs = draw(st.one_of(st.integers(3, 40), st.sampled_from([2_000, 20_000])))
    num_playlists = draw(st.integers(1, 6))
    train, owner, dev, test = {}, {}, {}, {}
    for p in draw(st.lists(st.integers(0, num_playlists - 1), min_size=1, unique=True)):
        songs = draw(st.lists(st.integers(1, num_songs), min_size=3,
                              max_size=min(num_songs, 30), unique=True))
        train[p] = songs[2:] + draw(st.lists(st.sampled_from(songs[2:]), max_size=2))
        owner[p] = draw(st.integers(0, 3))
        dev[p], test[p] = (draw(st.sampled_from([song, song, song, 0])) for song in songs[:2])
    split = synthetic.split_of(num_playlists, train, owner, dev, test)
    num_negatives = draw(st.one_of(st.integers(0, num_songs), st.sampled_from([1, 100])))
    return (split, num_songs, draw(st.integers(0, 2 ** 64 - 1)),
            draw(st.sampled_from(["dev", "test"])), num_negatives)


def _songs_or_error(draw):
    try:
        return draw().tolist()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=_held_out_cases())
def test_held_out_draws_the_songs_of_the_per_playlist_draw_over_each_pool(case):
    """Pool ranks mapped to songs in one pass give, bit for bit, the lists
    that `rng.choice` over each pool's songs gave, and the same refusals."""
    got = _songs_or_error(lambda: evaluation.held_out(*case).songs)
    assert got == _songs_or_error(lambda: oracles.held_out_songs(*case))
