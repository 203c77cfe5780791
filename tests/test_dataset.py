import copy
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from metric_rec import dataset
from synthetic import catalog_and_split, index_rows
from test_params import read_arena, write_arena


def _write(tmp_path, lines, name="in.tsv"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_load_well_formed(tmp_path):
    path = _write(tmp_path, ["u1\tp1\ts1", "u1\tp1\ts2", "u2\tp2\ts1"])
    assert dataset.read_interactions(path) == (["u1", "u1", "u2"], ["p1", "p1", "p2"],
                                               ["s1", "s2", "s1"])


def test_load_dedups_playlist_song_pairs(tmp_path):
    path = _write(tmp_path, [
        "u1\tp1\ts1",
        "u1\tp1\ts2",
        "u1\tp2\ts1",
        "u1\tp1\ts3",
        "u2\tp1\ts2",  # repeat of line 2, under another user
    ])
    catalog, rows = dataset.index_interactions(*dataset.read_interactions(path), k=1)
    assert rows.tolist() == [[0, 0, 0, 0], [0, 0, 1, 0], [1, 2, 1, 3]]
    assert catalog.users == {"u1": 0}


def test_load_malformed_line_names_lineno(tmp_path):
    path = _write(tmp_path, ["u1\tp1\ts1", "u1\tp1"])
    with pytest.raises(ValueError, match="line 2"):
        dataset.read_interactions(path)


def test_load_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError):
        dataset.read_interactions(str(path))


def test_size_caps_drop_oversized():
    rows = [("big_u", f"bp{i}", "s0") for i in range(3)]
    rows.append(("u1", "p1", "s1"))
    rows += [("u2", "long_p", f"s{i}") for i in range(4)]
    catalog, _ = dataset.index_interactions(*zip(*rows), k=1, max_playlists_per_user=2,
                                            max_songs_per_playlist=3)
    assert catalog.users == {"u1": 0}
    assert catalog.playlists == {"p1": 0}
    assert catalog.songs == {"s1": 1}


def test_k_core_threshold():
    small = [("u", "p", f"s{i}") for i in range(4)]
    with pytest.raises(ValueError, match="no playlists survive filtering"):
        dataset.index_interactions(*zip(*small), k=5)
    exact = [("u", "p", f"s{i}") for i in range(5)]
    assert dataset.index_interactions(*zip(*exact), k=5)[1].shape == (3, 5)


def test_k_core_recomputes_counts():
    rows = [("u1", "p_small", f"s{i}") for i in range(4)]
    rows += [("u2", "p_big", f"t{i}") for i in range(7)]
    catalog, _ = dataset.index_interactions(*zip(*rows), k=5)
    assert catalog.playlists == {"p_big": 0}
    assert catalog.num_users == 1
    assert catalog.num_songs == 7


def test_k_core_rejects_bad_k():
    with pytest.raises(ValueError, match="k must be >= 1, got 0"):
        dataset.index_interactions(["u"], ["p"], ["s"], k=0)


def test_catalog_indexing():
    rows = [("u1", "p1", "s1"), ("u2", "p2", "s2"), ("u1", "p1", "s2")]
    cat, _ = dataset.index_interactions(*zip(*rows), k=1)
    assert cat.users == {"u1": 0, "u2": 1}
    assert cat.playlists == {"p1": 0, "p2": 1}
    # songs indexed from 1; 0 is the padding slot
    assert cat.songs == {"s1": 1, "s2": 2}
    assert (cat.user_ids, cat.playlist_ids, cat.song_ids) == (["u1", "u2"], ["p1", "p2"],
                                                              ["s1", "s2"])


def _toy_rows(num_songs=5, playlist="p", user="u"):
    return [(user, playlist, f"s{i}") for i in range(num_songs)]


def test_split_counts():
    _, split = catalog_and_split(_toy_rows(3))
    (train,) = oracles.train_lists(split)
    assert len(train) == 1
    assert split.dev[0] and split.test[0]
    assert split.max_members == 1


def test_split_rejects_tiny_playlists():
    with pytest.raises(ValueError, match="playlist p has only 2 songs; need >= 3"):
        catalog_and_split(_toy_rows(2))


def test_split_deterministic():
    rows = _toy_rows(6)
    a = catalog_and_split(rows, seed=42)[1]
    b = catalog_and_split(rows, seed=42)[1]
    assert split_values(a) == split_values(b)


def test_split_disjoint_and_exhaustive():
    _, split = catalog_and_split(_toy_rows(8), seed=3)
    (train,) = oracles.train_lists(split)
    parts = set(train) | {split.dev[0], split.test[0]}
    assert len(parts) == 8
    assert split.dev[0] != split.test[0]
    assert split.dev[0] not in train
    assert split.test[0] not in train


def test_split_test_item_uniform():
    # Monte-Carlo oracle: over many seeds, each of the 5 songs should be
    # picked as the test item about 1/5 of the time.
    catalog, rows = index_rows(_toy_rows(5))
    trials = 20000
    counts = np.zeros(6)
    for seed in range(trials):
        split = dataset.leave_one_out(catalog, rows, seed)
        counts[split.test[0]] += 1
    freqs = counts[1:] / trials
    assert np.all(np.abs(freqs - 0.2) < 0.02)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(sizes=st.lists(st.one_of(st.integers(3, 70), st.just(3)), min_size=1, max_size=500),
       large=st.lists(st.tuples(st.integers(0, 500), st.integers(9_990, 10_050)), max_size=2),
       seed=st.integers(0, 2 ** 64 - 1))
@example(sizes=[3], large=[], seed=0)
@example(sizes=[3] * 40, large=[], seed=2 ** 64 - 1)
def test_leave_one_out_draws_the_pairs_of_per_playlist_choice(sizes, large, seed):
    # the pairs that the per-playlist `rng.choice(n, 2, replace=False)` of
    # the record-level reference holds out, from playlists of 3 songs up past
    # the 10,000 songs where `Generator.choice` may change method
    for at, size in large:
        sizes.insert(at, size)
    rows = [(f"u{p % 7}", f"p{p}", f"s{i}") for p, size in enumerate(sizes) for i in range(size)]
    records = [oracles.InteractionRecord(*row) for row in rows]
    catalog, codes = index_rows(rows)
    assert (split_values(dataset.leave_one_out(catalog, codes, seed))
            == split_values(oracles.leave_one_out_split(records, seed)))


# ids holding characters that str.splitlines, unlike a file's lines, ends a line at
_USER_IDS = ["u0", "u1", "u2", "u\x0bv", "\x85w", "x\u2028y"]
_SONG_IDS = [f"s{i}" for i in range(8)] + ["t\x0c", "\x1ct"]


@st.composite
def _interaction_files(draw):
    """(TSV bytes, k, per-user cap, per-playlist cap) of playlists at k - 1, k
    and k + 1 songs among others, some shared by several users, with
    (playlist, song) pairs repeated under other users, empty lines, CRLF
    line ends and at times a malformed line."""
    k = draw(st.integers(1, 6))
    rows = []
    for p in range(draw(st.integers(2, 6))):
        size = draw(st.sampled_from([k - 1, k, k + 1, draw(st.integers(0, len(_SONG_IDS)))]))
        owners = draw(st.lists(st.sampled_from(_USER_IDS), min_size=1, max_size=3))
        rows += [(draw(st.sampled_from(owners)), f"p{p}", song)
                 for song in draw(st.permutations(_SONG_IDS))[:size]]
    rows = draw(st.permutations(rows))
    for _ in range(draw(st.integers(0, 4)) if rows else 0):
        _, playlist, song = draw(st.sampled_from(rows))
        rows.insert(draw(st.integers(0, len(rows))),
                    (draw(st.sampled_from(_USER_IDS)), playlist, song))
    lines = ["\t".join(row) for row in rows]
    for extra in draw(st.lists(st.sampled_from(["", "", "", "", "u0\tp0", "u0\t\ts1"]),
                               max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), extra)
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    data = "".join(map(str.__add__, lines, ends)).encode("utf-8")
    return data, k, draw(st.integers(2, 6)), draw(st.integers(k, 10))


def _outcome(prepare):
    """The catalog's id lists and the split arrays that `prepare()` gives,
    or its error message."""
    try:
        catalog, split = prepare()
    except ValueError as exc:
        return str(exc)
    return [catalog.user_ids, catalog.playlist_ids, catalog.song_ids], split_values(split)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(file=_interaction_files(), seed=st.integers(0, 2 ** 32))
def test_columnar_prepare_matches_the_record_level_reference(file, seed):
    data, k, max_playlists, max_songs = file
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.tsv")
        with open(path, "wb") as f:
            f.write(data)
        caps = {"max_playlists_per_user": max_playlists, "max_songs_per_playlist": max_songs}
        want = _outcome(lambda: oracles.reference_split(path, k, seed, **caps))
        got = _outcome(lambda: dataset.prepare(path, os.path.join(tmp, "out"), k, seed, **caps))
    assert got == want


def test_songs_outside_sorted_int64_complement():
    out = dataset.songs_outside({7, 2, 5}, num_songs=8)
    assert out.dtype == np.int64
    np.testing.assert_array_equal(out, [1, 3, 4, 6, 8])
    np.testing.assert_array_equal(dataset.songs_outside(set(), 3), [1, 2, 3])


def test_songs_outside_matches_setdiff1d_reference():
    rng = np.random.default_rng(3)
    for num_songs in (1, 2, 7, 50, 2000):
        everything = set(range(1, num_songs + 1))
        sets = [set(), everything] + [
            set(rng.choice(np.arange(1, num_songs + 1), size=size, replace=False).tolist())
            for size in rng.integers(0, num_songs + 1, size=20)
        ]
        for full in sets:
            want = np.setdiff1d(np.arange(1, num_songs + 1, dtype=np.int64),
                                np.fromiter(full, dtype=np.int64))
            got = dataset.songs_outside(full, num_songs)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)


def test_sample_negatives_contract():
    rng = np.random.default_rng(0)
    out = dataset.sample_negatives(198, count=100, rng=rng)
    assert out.dtype == np.int64 and len(out) == 100
    assert len(np.unique(out)) == 100
    assert out.min() >= 0 and out.max() < 198
    # as ranks of the pool of songs 1..200 outside {2, 5}, they name pool songs
    songs = dataset.songs_outside({2, 5}, 200)[out]
    assert not (set(songs.tolist()) & {0, 2, 5})


def test_sample_negatives_pool_too_small():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="candidate pool has 2 songs, need 3"):
        dataset.sample_negatives(2, count=3, rng=rng)


def test_sample_negatives_uniform():
    rng = np.random.default_rng(1)
    pool_size = 10
    trials = 100000
    counts = {}
    draws = [dataset.sample_negatives(pool_size, 1, rng)[0] for _ in range(trials)]
    for d in draws:
        counts[int(d)] = counts.get(int(d), 0) + 1
    expected = trials / pool_size
    sigma = np.sqrt(trials * (1 / pool_size) * (1 - 1 / pool_size))
    assert set(counts) == set(range(pool_size))
    for c in counts.values():
        assert abs(c - expected) < 3 * sigma


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(num_songs=st.one_of(st.integers(1, 300), st.sampled_from([2_000, 20_000])),
       data=st.data(), seed=st.integers(0, 2 ** 64 - 1))
def test_sample_negatives_ranks_give_the_bits_of_a_draw_over_the_pool(num_songs, data, seed):
    """The pool's songs at the drawn ranks are the songs `rng.choice` draws
    from the pool's array, and the stream is left in the same state."""
    full = data.draw(st.sets(st.integers(0, num_songs), max_size=min(num_songs, 80)))
    pool = dataset.songs_outside(full, num_songs)
    count = data.draw(st.integers(0, min(len(pool), 150)))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = pool[dataset.sample_negatives(len(pool), count, rng)]
    want = oracles.sample_negatives(full, num_songs, count, ref_rng)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_catalog_roundtrip(tmp_path):
    cat, _ = index_rows(_toy_rows(5, "p1", "u1") + [("u2", "p2", f"s{i}") for i in range(2, 8)])
    path = str(tmp_path / "catalog.json")
    dataset.save_catalog(cat, path)
    back = dataset.load_catalog(path)
    assert back.users == cat.users
    assert back.playlists == cat.playlists
    assert back.songs == cat.songs


def test_catalog_fingerprint_covers_ids_not_order(tmp_path):
    cat, _ = index_rows(_toy_rows(5, "p1", "u1"))
    path = str(tmp_path / "catalog.json")
    dataset.save_catalog(cat, path)
    assert dataset.load_catalog(path).fingerprint() == cat.fingerprint()
    reordered = dataset.Catalog(cat.user_ids, cat.playlist_ids, cat.song_ids)
    reordered.songs = dict(reversed(list(cat.songs.items())))
    assert reordered.fingerprint() == cat.fingerprint()
    renamed = dataset.Catalog(cat.user_ids, cat.playlist_ids, [f"x{k}" for k in cat.song_ids])
    swapped = dataset.Catalog(cat.user_ids, cat.playlist_ids,
                              [cat.song_ids[1], cat.song_ids[0], *cat.song_ids[2:]])
    assert len({cat.fingerprint(), renamed.fingerprint(), swapped.fingerprint()}) == 3


def test_read_json_reads_stdlib_output_with_nonfinite_tokens(tmp_path):
    path = tmp_path / "doc.json"
    doc = {"a": [1.5, -0.0, float("inf")], "b": {"c": "d"}}
    path.write_text(json.dumps(doc), encoding="utf-8")
    back = dataset.read_json(str(path))
    assert back["b"] == {"c": "d"} and back["a"][2] == float("inf")
    assert np.array(back["a"]).tobytes() == np.array(doc["a"]).tobytes()


def test_write_json_is_sorted_compact_and_stdlib_readable(tmp_path):
    path = tmp_path / "doc.json"
    doc = {"b": np.array([1e-05, -0.0, 5e-324]), "a": {"z": 1, "y": [True, None]}}
    dataset.write_json(doc, str(path))
    text = path.read_text(encoding="utf-8")
    assert text.startswith('{"a":{"y":[true,null],"z":1},"b":[') and text.endswith("]}\n")
    back = json.loads(text)
    assert back["a"] == {"z": 1, "y": [True, None]}
    assert np.array(back["b"]).tobytes() == doc["b"].tobytes()


def test_failed_write_json_leaves_the_file_as_it_was(tmp_path):
    path = tmp_path / "doc.json"
    dataset.write_json({"a": 1}, str(path))
    before = path.read_bytes()
    with pytest.raises(TypeError):
        dataset.write_json({"seed": 10 ** 23}, str(path))  # beyond orjson's 64-bit range
    assert path.read_bytes() == before


def test_split_roundtrip(tmp_path):
    cat, split = catalog_and_split(
        _toy_rows(5, "p1", "u1") + [("u2", "p2", f"s{i}") for i in range(2, 8)], seed=1)
    path = str(tmp_path / "split.json")
    dataset.save_split(split, cat, path)
    back = dataset.load_split(path, cat)
    assert split_values(back) == split_values(split)


# two split entries (playlist, owner, dev, test, end offset) over 3 playlists,
# 2 users and songs 1..5: playlist 0 trains on [1, 2], playlist 2 on [3, 4]
_ROWS, _ROW_SONGS = [[0, 0, 4, 5, 2], [2, 1, 1, 5, 4]], [1, 2, 3, 4]


def _set_rows(*edits):
    rows, songs = copy.deepcopy(_ROWS), list(_ROW_SONGS)
    for entry, column, value in edits:
        if entry == "song":
            songs[column] = value
        else:
            rows[entry][column] = value
    return np.array(rows, dtype=np.int64), np.array(songs, dtype=np.int64)


@pytest.mark.parametrize("edits,fault", [
    ((), None),
    (((1, 0, 0),), (1, "id")),                       # playlist 0 again
    (((0, 0, 3),), (0, "id")),                       # no playlist 3
    (((1, 1, 2),), (1, "user")),
    (((0, 4, 0),), (0, "train")),                    # an empty train list
    (((0, 4, 0), (1, 2, 1)), (0, "train")),          # ... before a later held-out fault
    ((("song", 3, 6),), (1, "train")),               # no song 6
    (((1, 2, 0),), (1, "dev")),                      # no song 0
    (((1, 1, 2), (0, 2, 2)), (0, "dev")),            # the first entry's dev in its train list
    (((0, 2, 1), (0, 3, 2)), (0, "dev")),            # dev before test
    (((0, 3, 1),), (0, "test")),
    (((0, 2, 1), (0, 3, 6)), (0, "test")),           # a song outside before a held-out one
], ids=["valid", "playlist-twice", "playlist-outside", "owner-outside", "empty-train",
        "empty-train-first", "song-outside", "dev-padding", "first-entry-first",
        "dev-before-test", "test-in-train", "test-outside-before-dev-in-train"])
def test_check_split_names_the_first_bad_entry_and_its_first_bad_field(edits, fault):
    assert dataset.check_split(*_set_rows(*edits), 2, 3, 5) == fault


_FAULTS = ("id-outside", "id-twice", "user", "empty-train", "song-outside", "dev-outside",
           "test-outside", "dev-in-train", "test-in-train")


@st.composite
def _split_rows(draw):
    """(rows, songs, num_users, num_playlists, num_songs): split entries over
    a small catalog, valid but for up to three faults of any kind, each on
    an entry of its own or on one another fault has already touched."""
    num_users, num_playlists, num_songs = (draw(st.integers(1, 4)), draw(st.integers(1, 6)),
                                           draw(st.integers(3, 9)))
    playlists = draw(st.permutations(range(num_playlists)))[:draw(st.integers(1, num_playlists))]
    entries = []
    for p in playlists:
        songs = draw(st.permutations(range(1, num_songs + 1)))
        size = draw(st.integers(1, num_songs - 2))
        entries.append([p, draw(st.integers(0, num_users - 1)), songs[size], songs[size + 1],
                        songs[:size]])
    outside = st.sampled_from([-2 ** 63, -1, 0, num_songs + 1, 2 ** 63 - 1])
    for fault in draw(st.lists(st.sampled_from(_FAULTS), max_size=3)):
        entry = draw(st.sampled_from(entries))
        if fault == "id-outside":
            entry[0] = draw(st.sampled_from([-2 ** 63, -1, num_playlists, 2 ** 63 - 1]))
        elif fault == "id-twice":
            entry[0] = draw(st.sampled_from(entries))[0]
        elif fault == "user":
            entry[1] = draw(st.sampled_from([-2 ** 63, -1, num_users, 2 ** 63 - 1]))
        elif fault == "empty-train":
            entry[4] = []
        elif fault == "song-outside" and entry[4]:
            entry[4][draw(st.integers(0, len(entry[4]) - 1))] = draw(outside)
        elif fault in ("dev-outside", "test-outside"):
            entry[2 + fault.startswith("test")] = draw(outside)
        elif fault in ("dev-in-train", "test-in-train") and entry[4]:
            entry[2 + fault.startswith("test")] = draw(st.sampled_from(entry[4]))
    rows = np.array([entry[:4] + [0] for entry in entries], dtype=np.int64)
    rows[:, 4] = np.cumsum([len(entry[4]) for entry in entries])
    songs = np.array([song for entry in entries for song in entry[4]], dtype=np.int64)
    return rows, songs, num_users, num_playlists, num_songs


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(split=_split_rows())
def test_check_split_gives_what_the_entry_by_entry_locator_gives(split):
    assert dataset.check_split(*split) == oracles.check_split(*split)


def test_check_split_refuses_a_split_of_no_entry():
    empty = np.zeros((0, 5), dtype=np.int64), np.zeros(0, dtype=np.int64)
    assert dataset.check_split(*empty, 2, 3, 5) == (None, "top level")


def test_split_from_rows_scatters_entries_into_playlist_rows():
    split = dataset.split_from_rows(*_set_rows(), num_playlists=3)
    assert split_values(split) == [("<i8", [0, 0, 1]), ("<i8", [4, 0, 1]), ("<i8", [5, 0, 5]),
                                   ("<i8", [0, 2, 2, 4]), ("<i8", [1, 2, 3, 4]), int, 2]
    assert oracles.train_lists(split) == [[1, 2], [], [3, 4]]
    offsets, full = split.full_sets(5)
    assert offsets.tolist() == [0, 4, 4, 8] and full.tolist() == [1, 2, 4, 5, 1, 3, 4, 5]


def test_prepare_pipeline(tmp_path):
    lines = []
    for p in range(3):
        for s in range(6):
            lines.append(f"u{p}\tp{p}\ts{p * 3 + s}")
    lines.append("u9\tp_small\tsX")  # dropped by the size filter
    path = _write(tmp_path, lines)
    out_dir = str(tmp_path / "out")
    catalog, split = dataset.prepare(path, out_dir, k=5, seed=0)
    assert catalog.num_playlists == 3
    assert "p_small" not in catalog.playlists
    with open(f"{out_dir}/split.json", encoding="utf-8") as f:
        doc = json.load(f)
    assert set(doc) == {"p0", "p1", "p2"}
    assert set(doc["p0"]) == {"user", "train", "dev", "test"}
    assert sorted(os.listdir(out_dir)) == ["catalog.json", "split.json", "split.json.arena"]


def test_prepare_deterministic(tmp_path):
    lines = [f"u0\tp0\ts{i}" for i in range(8)]
    path = _write(tmp_path, lines)
    for d in ("a", "b"):
        dataset.prepare(path, str(tmp_path / d), seed=5)
    for name in ("catalog.json", "split.json", "split.json.arena"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


# ids whose code-point order differs from a case-folded or locale order
_USERS = ["Zoë", "anna", "Ω", "u10", "u9"]
_SONGS = ["s10", "s9", "S1", "é", "e", "ß", "😀", "Ω", "ω", "z", "Z", "ａ"]


def _prepared(tmp_path, name="split", seed=0):
    """A split directory that `prepare` wrote for six playlists of 6-9 songs
    over `_SONGS`, owned by `_USERS`, with ids in no sorted order."""
    lines = []
    for i in range(6):
        songs = [_SONGS[(5 * i + j) % len(_SONGS)] for j in range(6 + i % 4)]
        lines += [f"{_USERS[i % len(_USERS)]}\tpl-{'ÿab'[i % 3]}{9 - i}\t{s}" for s in songs]
    tsv = _write(tmp_path, lines, name=f"{name}.tsv")
    dataset.prepare(tsv, str(tmp_path / name), seed=seed)
    return tmp_path / name


def _count_json_loads(monkeypatch):
    calls = []
    for name in ("load_catalog", "load_split"):
        original = getattr(dataset, name)
        monkeypatch.setattr(dataset, name, lambda *args, _name=name, _fn=original:
                            calls.append(_name) or _fn(*args))
    return calls


def split_values(split):
    """A split's arrays as lists, and its `max_members`, with their types."""
    arrays = [getattr(split, key) for key in ("owner", "dev", "test", "offsets", "songs")]
    return [(a.dtype.str, a.tolist()) for a in arrays] + [type(split.max_members),
                                                          split.max_members]


def loaded_split(split_dir):
    """What `load_split_dir` gives for `split_dir`, the catalog as its id
    lists, or its error."""
    try:
        catalog, split = dataset.load_split_dir(str(split_dir))
    except (OSError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return ([catalog.user_ids, catalog.playlist_ids, catalog.song_ids], split_values(split),
            catalog.fingerprint())


def test_split_companion_gives_the_structures_of_the_json(tmp_path, monkeypatch):
    split_dir = _prepared(tmp_path)
    calls = _count_json_loads(monkeypatch)
    catalog, split = dataset.load_split_dir(str(split_dir))
    via_companion = loaded_split(split_dir)
    assert calls == []
    ref_catalog = dataset.load_catalog(str(split_dir / "catalog.json"))
    ref_split = dataset.load_split(str(split_dir / "split.json"), ref_catalog)
    assert catalog == ref_catalog and split_values(split) == split_values(ref_split)
    assert catalog.stored_fingerprint == ref_catalog.fingerprint()
    (split_dir / "split.json.arena").unlink()
    assert via_companion == loaded_split(split_dir)
    assert calls == ["load_catalog", "load_split"] * 2
    assert all(a.flags.writeable for a in (split.owner, split.offsets, split.songs))
    # index order, not catalog.json's code-point key order
    assert sorted(catalog.song_ids) == sorted(_SONGS) != catalog.song_ids


def _edit_companion(edit):
    """Rewrite the split companion's header and payload through `edit`, with
    a CRC-32 that matches: only the content checks can refuse it."""
    def damage(split_dir):
        path = split_dir / "split.json.arena"
        header, payload, copies = read_arena(path, "<i8")
        write_arena(path, *edit(header, payload.copy()), copies)
    return damage


def _copy_one_byte_short(split_dir):
    """split.json's stored copy one byte short, with its length in the header
    and the CRC-32 to match: only the tie to split.json can refuse it."""
    path = split_dir / "split.json.arena"
    header, payload, copies = read_arena(path, "<i8")
    write_arena(path, dict(header, split_json_size=header["split_json_size"] - 1), payload,
                copies[:-1])


def _set(where, value):
    """An edit that sets payload[where(header)] to value(header, payload)."""
    def edit(header, payload):
        payload[where(header)] = value(header, payload)
        return header, payload
    return edit


def _with_ends(payload, ends):
    """`payload` with its first rows' train end offsets replaced by `ends`."""
    for i, end in enumerate(ends):
        payload[5 * i + 4] = end
    return payload


def _flip(at):
    def damage(split_dir):
        path = split_dir / "split.json.arena"
        data = bytearray(path.read_bytes())
        data[at(data)] ^= 0x01
        path.write_bytes(bytes(data))
    return damage


def _edit_json(name, edit):
    """Rewrite `name` in the split directory through `edit`, leaving the
    companion stale."""
    def damage(split_dir):
        path = split_dir / name
        doc = json.loads(path.read_text(encoding="utf-8"))
        edit(doc)
        dataset.write_json(doc, str(path))
    return damage


def _same_length(name, edit):
    """`_edit_json` of an edit that keeps the file's length, so that only the
    bytes the companion stores can tell the file changed."""
    def damage(split_dir):
        size = (split_dir / name).stat().st_size
        _edit_json(name, edit)(split_dir)
        assert (split_dir / name).stat().st_size == size
    return damage


def _swap_two_songs(doc):
    a, b = sorted(doc["songs"])[:2]
    doc["songs"][a], doc["songs"][b] = doc["songs"][b], doc["songs"][a]


def _swap_two_one_digit_songs(doc):
    a, b = [song for song, i in sorted(doc["songs"].items()) if i < 10][:2]
    doc["songs"][a], doc["songs"][b] = doc["songs"][b], doc["songs"][a]


def _reverse_first_train_list(doc):
    doc[sorted(doc)[0]]["train"].reverse()


def _dev_into_train(doc):
    entry = doc[sorted(doc)[0]]
    entry["train"].append(entry["dev"])


def _parent_layout(split_dir):
    """The companion rewritten in the layout before it held id lists: each
    map's ids sorted, as catalog.json's keys are, and a block of their
    indices ahead of the rows, which follow split.json's entry order; the
    magic, the CRC-32 and the copies match."""
    path = split_dir / "split.json.arena"
    header, payload, copies = read_arena(path, "<i8")
    n = header["entries"]
    rows = payload[:5 * n].reshape(n, 5)
    lists = np.split(payload[5 * n:], rows[:-1, 4])
    ids = {key: header.pop(f"{key}_ids") for key in ("user", "playlist", "song")}
    block = []
    for (key, key_ids), first in zip(ids.items(), (0, 0, 1)):
        header[f"{key}s"] = sorted(key_ids)
        block += [key_ids.index(i) + first for i in header[f"{key}s"]]
    order = sorted(range(n), key=lambda i: ids["playlist"][rows[i, 0]])
    ends = np.cumsum([len(lists[i]) for i in order])
    parent_rows = np.column_stack([rows[order, :4], ends]).ravel()
    write_arena(path, header, np.concatenate([block, parent_rows, *(lists[i] for i in order)],
                                             dtype="<i8"), copies)


def _other_splits_companion(split_dir):
    other = _prepared(split_dir.parent, name="other", seed=1)
    os.replace(other / "split.json.arena", split_dir / "split.json.arena")


SPLIT_COMPANION_DAMAGE = {
    "truncated": lambda d: (d / "split.json.arena").write_bytes(
        (d / "split.json.arena").read_bytes()[:-8]),
    "magic": _flip(lambda data: 0),
    # a digit of the stored fingerprint: the header still parses and passes
    # every content check, so only the CRC-32 refuses it
    "header-byte": _flip(lambda data: data.index(b'"catalog_fingerprint":"') + 23),
    # the low bit of the last train song, another song of the catalog: the
    # payload ends where the copy of catalog.json begins
    "payload-byte": _flip(lambda data: data.rindex(b'{"num_playlists"') - 8),
    "stale-catalog": _edit_json("catalog.json", _swap_two_songs),
    "stale-split": _edit_json("split.json", _dev_into_train),
    "same-length-catalog": _same_length("catalog.json", _swap_two_one_digit_songs),
    "same-length-split": _same_length("split.json", _reverse_first_train_list),
    # a byte of the first key in the stored copy of catalog.json, and
    # split.json's closing brace in its stored copy
    "catalog-copy-byte": _flip(lambda data: data.rindex(b'{"num_playlists"') + 3),
    "split-copy-byte": _flip(lambda data: len(data) - 2),
    "copy-one-byte-short": _copy_one_byte_short,
    "other-split": _other_splits_companion,
    "parent-layout": _parent_layout,
    "song-out-of-range": _edit_companion(_set(lambda h: -1, lambda h, a: len(h["song_ids"]) + 1)),
    "owner-out-of-range": _edit_companion(_set(lambda h: 1, lambda h, a: len(h["user_ids"]))),
    "held-out-in-train": _edit_companion(_set(lambda h: 5 * h["entries"], lambda h, a: a[2])),
    "playlist-twice": _edit_companion(_set(lambda h: 5, lambda h, a: a[0])),
    "empty-train-list": _edit_companion(_set(lambda h: 4, lambda h, a: 0)),
    "song-id-twice": _edit_companion(
        lambda h, a: (dict(h, song_ids=[h["song_ids"][1]] + h["song_ids"][1:]), a)),
    # offsets 2**63 - 1, -2, n: counts that wrap around int64 to 2**63 - 1, 2**63 - 1, n + 2
    "offsets-that-wrap": _edit_companion(lambda h, a: (h, _with_ends(a, [2 ** 63 - 1, -2]))),
    "one-entry-fewer": _edit_companion(lambda h, a: (dict(h, entries=h["entries"] - 1), a)),
    "one-value-more": _edit_companion(lambda h, a: (h, np.append(a, 1))),
}


@pytest.mark.parametrize("damage", sorted(SPLIT_COMPANION_DAMAGE))
def test_damaged_or_stale_split_companion_gives_what_the_json_alone_gives(tmp_path, monkeypatch,
                                                                         damage):
    split_dir = _prepared(tmp_path)
    SPLIT_COMPANION_DAMAGE[damage](split_dir)
    files = {f: (split_dir / f).read_bytes() for f in os.listdir(split_dir)}
    calls = _count_json_loads(monkeypatch)
    damaged = loaded_split(split_dir)
    assert calls == ["load_catalog", "load_split"]
    assert {f: (split_dir / f).read_bytes() for f in os.listdir(split_dir)} == files
    (split_dir / "split.json.arena").unlink()
    assert loaded_split(split_dir) == damaged
