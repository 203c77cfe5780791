import json

import numpy as np
import pytest

from metric_rec import dataset
from metric_rec.dataset import InteractionRecord


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
    (p,) = split.train
    assert len(split.train[p]) == 1
    assert p in split.dev and p in split.test
    assert split.max_members == 1


def test_split_rejects_tiny_playlists():
    with pytest.raises(ValueError, match="need >= 3"):
        dataset.leave_one_out_split(_toy_records(2), seed=0)


def test_split_deterministic():
    records = _toy_records(6)
    a = dataset.leave_one_out_split(records, seed=42)
    b = dataset.leave_one_out_split(records, seed=42)
    assert a.train == b.train and a.dev == b.dev and a.test == b.test


def test_split_disjoint_and_exhaustive():
    records = _toy_records(8)
    split = dataset.leave_one_out_split(records, seed=3)
    (p,) = split.train
    parts = set(split.train[p]) | {split.dev[p], split.test[p]}
    assert len(parts) == 8
    assert split.dev[p] != split.test[p]
    assert split.dev[p] not in split.train[p]
    assert split.test[p] not in split.train[p]


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
    assert back.train == split.train
    assert back.dev == split.dev
    assert back.test == split.test
    assert back.owner == split.owner
    assert back.max_members == split.max_members


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


def test_prepare_deterministic(tmp_path):
    lines = [f"u0\tp0\ts{i}" for i in range(8)]
    path = _write(tmp_path, lines)
    for d in ("a", "b"):
        dataset.prepare(path, str(tmp_path / d), seed=5)
    for name in ("catalog.json", "split.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
