import copy
import json
import os

import numpy as np
import pytest

from metric_rec import dataset
from metric_rec.dataset import InteractionRecord
from test_params import read_arena, write_arena


def _write(tmp_path, lines, name="in.tsv"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_load_well_formed(tmp_path):
    path = _write(tmp_path, ["u1\tp1\ts1", "u1\tp1\ts2", "u2\tp2\ts1"])
    records = dataset.load_interactions(path)
    assert len(records) == 3
    assert records[0] == InteractionRecord("u1", "p1", "s1")


def test_load_dedups_playlist_song_pairs(tmp_path):
    path = _write(tmp_path, [
        "u1\tp1\ts1",
        "u1\tp1\ts2",
        "u1\tp2\ts1",
        "u1\tp1\ts3",
        "u1\tp1\ts2",  # repeat of line 2
    ])
    records = dataset.load_interactions(path)
    assert len(records) == 4


def test_load_malformed_line_names_lineno(tmp_path):
    path = _write(tmp_path, ["u1\tp1\ts1", "u1\tp1"])
    with pytest.raises(ValueError, match="line 2"):
        dataset.load_interactions(path)


def test_load_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError):
        dataset.load_interactions(str(path))


def test_size_caps_drop_oversized():
    records = []
    for i in range(3):
        records.append(InteractionRecord("big_u", f"bp{i}", "s0"))
    records.append(InteractionRecord("u1", "p1", "s1"))
    for i in range(4):
        records.append(InteractionRecord("u2", "long_p", f"s{i}"))
    kept = dataset.apply_size_caps(records, max_playlists_per_user=2,
                                   max_songs_per_playlist=3)
    assert all(r.user_id != "big_u" for r in kept)
    assert all(r.playlist_id != "long_p" for r in kept)
    assert any(r.playlist_id == "p1" for r in kept)


def test_k_core_threshold():
    small = [InteractionRecord("u", "p", f"s{i}") for i in range(4)]
    assert dataset.k_core_filter(small, 5) == []
    exact = [InteractionRecord("u", "p", f"s{i}") for i in range(5)]
    assert len(dataset.k_core_filter(exact, 5)) == 5


def test_k_core_recomputes_counts():
    records = [InteractionRecord("u1", "p_small", f"s{i}") for i in range(4)]
    records += [InteractionRecord("u2", "p_big", f"t{i}") for i in range(7)]
    kept = dataset.k_core_filter(records, 5)
    assert {r.playlist_id for r in kept} == {"p_big"}
    catalog = dataset.build_catalog(kept)
    assert catalog.num_users == 1
    assert catalog.num_songs == 7


def test_k_core_rejects_bad_k():
    with pytest.raises(ValueError):
        dataset.k_core_filter([], 0)


def test_catalog_indexing():
    records = [
        InteractionRecord("u1", "p1", "s1"),
        InteractionRecord("u2", "p2", "s2"),
        InteractionRecord("u1", "p1", "s2"),
    ]
    cat = dataset.build_catalog(records)
    assert cat.users == {"u1": 0, "u2": 1}
    assert cat.playlists == {"p1": 0, "p2": 1}
    # songs indexed from 1; 0 is the padding slot
    assert cat.songs == {"s1": 1, "s2": 2}
    inv_u, inv_p, inv_s = cat.inverse()
    assert inv_s[2] == "s2"


def _toy_records(num_songs=5, playlist="p", user="u"):
    return [InteractionRecord(user, playlist, f"s{i}") for i in range(num_songs)]


def test_split_counts():
    records = _toy_records(3)
    split = dataset.leave_one_out_split(records, seed=0)
    (train,) = split.train_lists()
    assert len(train) == 1
    assert split.dev[0] and split.test[0]
    assert split.max_members == 1


def test_split_rejects_tiny_playlists():
    with pytest.raises(ValueError, match="need >= 3"):
        dataset.leave_one_out_split(_toy_records(2), seed=0)


def test_split_deterministic():
    records = _toy_records(6)
    a = dataset.leave_one_out_split(records, seed=42)
    b = dataset.leave_one_out_split(records, seed=42)
    assert split_values(a) == split_values(b)


def test_split_disjoint_and_exhaustive():
    records = _toy_records(8)
    split = dataset.leave_one_out_split(records, seed=3)
    (train,) = split.train_lists()
    parts = set(train) | {split.dev[0], split.test[0]}
    assert len(parts) == 8
    assert split.dev[0] != split.test[0]
    assert split.dev[0] not in train
    assert split.test[0] not in train


def test_split_test_item_uniform():
    # Monte-Carlo oracle: over many seeds, each of the 5 songs should be
    # picked as the test item about 1/5 of the time.
    records = _toy_records(5)
    catalog = dataset.build_catalog(records)
    trials = 20000
    counts = np.zeros(6)
    for seed in range(trials):
        split = dataset.leave_one_out_split(records, seed, catalog)
        counts[split.test[0]] += 1
    freqs = counts[1:] / trials
    assert np.all(np.abs(freqs - 0.2) < 0.02)


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
    full = {2, 5}
    out = dataset.sample_negatives(full, num_songs=200, count=100, rng=rng)
    assert len(out) == 100
    assert len(np.unique(out)) == 100
    assert not (set(out.tolist()) & full)
    assert 0 not in out


def test_sample_negatives_pool_too_small():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        dataset.sample_negatives({1, 2}, num_songs=4, count=3, rng=rng)


def test_sample_negatives_uniform():
    rng = np.random.default_rng(1)
    full = {1, 2, 3}
    pool_size = 10  # songs 4..13
    trials = 100000
    counts = {}
    draws = [dataset.sample_negatives(full, 13, 1, rng)[0] for _ in range(trials)]
    for d in draws:
        counts[int(d)] = counts.get(int(d), 0) + 1
    expected = trials / pool_size
    sigma = np.sqrt(trials * (1 / pool_size) * (1 - 1 / pool_size))
    assert set(counts) == set(range(4, 14))
    for c in counts.values():
        assert abs(c - expected) < 3 * sigma


def test_catalog_roundtrip(tmp_path):
    records = [
        InteractionRecord("u1", "p1", f"s{i}") for i in range(5)
    ] + [InteractionRecord("u2", "p2", f"s{i}") for i in range(2, 8)]
    cat = dataset.build_catalog(records)
    path = str(tmp_path / "catalog.json")
    dataset.save_catalog(cat, path)
    back = dataset.load_catalog(path)
    assert back.users == cat.users
    assert back.playlists == cat.playlists
    assert back.songs == cat.songs


def test_catalog_fingerprint_covers_ids_not_order(tmp_path):
    records = [InteractionRecord("u1", "p1", f"s{i}") for i in range(5)]
    cat = dataset.build_catalog(records)
    path = str(tmp_path / "catalog.json")
    dataset.save_catalog(cat, path)
    assert dataset.load_catalog(path).fingerprint() == cat.fingerprint()
    reordered = dataset.Catalog(users=cat.users, playlists=cat.playlists,
                                songs=dict(reversed(list(cat.songs.items()))))
    assert reordered.fingerprint() == cat.fingerprint()
    renamed = dataset.Catalog(users=cat.users, playlists=cat.playlists,
                              songs={f"x{k}": v for k, v in cat.songs.items()})
    swapped = dataset.Catalog(users=cat.users, playlists=cat.playlists,
                              songs={**cat.songs, "s0": 2, "s1": 1})
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
    records = [
        InteractionRecord("u1", "p1", f"s{i}") for i in range(5)
    ] + [InteractionRecord("u2", "p2", f"s{i}") for i in range(2, 8)]
    cat = dataset.build_catalog(records)
    split = dataset.leave_one_out_split(records, seed=1, catalog=cat)
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


def test_check_split_refuses_a_split_of_no_entry():
    empty = np.zeros((0, 5), dtype=np.int64), np.zeros(0, dtype=np.int64)
    assert dataset.check_split(*empty, 2, 3, 5) == (None, "top level")


def test_split_from_rows_scatters_entries_into_playlist_rows():
    split = dataset.split_from_rows(*_set_rows(), num_playlists=3)
    assert split_values(split) == [("<i8", [0, 0, 1]), ("<i8", [4, 0, 1]), ("<i8", [5, 0, 5]),
                                   ("<i8", [0, 2, 2, 4]), ("<i8", [1, 2, 3, 4]), int, 2]
    assert split.train_lists() == [[1, 2], [], [3, 4]]
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
    """What `load_split_dir` gives for `split_dir`, the catalog's dict order
    included, or its error."""
    try:
        catalog, split = dataset.load_split_dir(str(split_dir))
    except (OSError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return ([list(getattr(catalog, key).items()) for key in ("users", "playlists", "songs")],
            split_values(split), catalog.fingerprint())


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
    assert list(catalog.songs) == sorted(_SONGS) != sorted(_SONGS, key=str.casefold)


def _edit_companion(edit):
    """Rewrite the split companion's header and payload through `edit`, with
    a CRC-32 that matches: only the content checks can refuse it."""
    def damage(split_dir):
        path = split_dir / "split.json.arena"
        header, payload = read_arena(path, "<i8")
        write_arena(path, *edit(header, payload.copy()))
    return damage


def _rows_start(header):
    return sum(len(header[key]) for key in ("users", "playlists", "songs"))


def _set(where, value):
    """An edit that sets payload[where(header)] to value(header, payload)."""
    def edit(header, payload):
        payload[where(header)] = value(header, payload)
        return header, payload
    return edit


def _with_ends(header, payload, ends):
    """`payload` with its first rows' train end offsets replaced by `ends`."""
    for i, end in enumerate(ends):
        payload[_rows_start(header) + 5 * i + 4] = end
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


def _swap_two_songs(doc):
    a, b = sorted(doc["songs"])[:2]
    doc["songs"][a], doc["songs"][b] = doc["songs"][b], doc["songs"][a]


def _dev_into_train(doc):
    entry = doc[sorted(doc)[0]]
    entry["train"].append(entry["dev"])


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
    # the low bit of the last train song, another song of the catalog
    "payload-byte": _flip(lambda data: len(data) - 8),
    "stale-catalog": _edit_json("catalog.json", _swap_two_songs),
    "stale-split": _edit_json("split.json", _dev_into_train),
    "other-split": _other_splits_companion,
    "song-out-of-range": _edit_companion(_set(lambda h: -1, lambda h, a: len(h["songs"]) + 1)),
    "owner-out-of-range": _edit_companion(_set(lambda h: _rows_start(h) + 1,
                                               lambda h, a: len(h["users"]))),
    "held-out-in-train": _edit_companion(_set(lambda h: _rows_start(h) + 5 * h["entries"],
                                              lambda h, a: a[_rows_start(h) + 2])),
    "playlist-twice": _edit_companion(_set(lambda h: _rows_start(h) + 5,
                                           lambda h, a: a[_rows_start(h)])),
    "empty-train-list": _edit_companion(_set(lambda h: _rows_start(h) + 4, lambda h, a: 0)),
    "song-index-twice": _edit_companion(_set(lambda h: len(h["users"]) + len(h["playlists"]),
                                             lambda h, a: a[len(h["users"]) + len(h["playlists"])
                                                            + 1])),
    "song-id-twice": _edit_companion(lambda h, a: (dict(h, songs=[h["songs"][1]] + h["songs"][1:]),
                                                   a)),
    # offsets 2**63 - 1, -2, n: counts that wrap around int64 to 2**63 - 1, 2**63 - 1, n + 2
    "offsets-that-wrap": _edit_companion(lambda h, a: (h, _with_ends(h, a, [2 ** 63 - 1, -2]))),
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
