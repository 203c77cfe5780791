import hashlib
import json
import os
import time
import zipfile
import zlib

import numpy as np
import orjson
import pytest

from metric_rec import dataset, params as params_mod


def test_init_mdr_tensor_sets():
    rng = np.random.default_rng(0)
    ups = params_mod.init_mdr(3, 4, 5, 2, rng)
    assert set(ups.tensors) == {"S", "U", "P", "B1", "B2", "theta"}
    assert ups.tensors["S"].shape == (6, 2)  # padding row included
    us = params_mod.init_mdr(3, 4, 5, 2, rng, variant="us", use_bias=False)
    assert set(us.tensors) == {"S", "U", "B1"}
    ps = params_mod.init_mdr(3, 4, 5, 2, rng, variant="ps")
    assert set(ps.tensors) == {"S", "P", "B2", "theta"}
    with pytest.raises(ValueError):
        params_mod.init_mdr(3, 4, 5, 2, rng, variant="up")


def test_init_mdr_metric_starts_euclidean():
    rng = np.random.default_rng(0)
    p = params_mod.init_mdr(2, 2, 3, 4, rng)
    np.testing.assert_array_equal(p.tensors["B1"], np.ones(4))
    np.testing.assert_array_equal(p.tensors["theta"], np.zeros(4))
    assert np.all(p.tensors["S"][0] == 0.0)


@pytest.mark.parametrize("attention,extra", [
    ("mem_metric", {"S_a", "U_a", "W2", "b2", "B4"}),
    ("mem_dot", {"S_a", "U_a", "W2", "b2"}),
    ("nonmem_metric", {"B4"}),
    ("nonmem_dot", set()),
])
def test_init_mass_tensor_sets(attention, extra):
    rng = np.random.default_rng(1)
    p = params_mod.init_mass(3, 4, 5, 2, rng, variant="us", attention=attention)
    assert set(p.tensors) == {"S", "U", "W1", "b1", "B3", "song_bias"} | extra
    assert p.tensors["W1"].shape == (4, 2)


def test_init_mass_ups_query_width():
    rng = np.random.default_rng(2)
    p = params_mod.init_mass(3, 4, 5, 2, rng, variant="ups")
    assert p.tensors["W1"].shape == (6, 2)
    assert "P" in p.tensors and "P_a" in p.tensors
    with pytest.raises(ValueError):
        params_mod.init_mass(3, 4, 5, 2, rng, attention="softmax")


def test_copy_is_deep():
    rng = np.random.default_rng(3)
    p = params_mod.init_mdr(2, 2, 3, 2, rng)
    q = p.copy()
    q.tensors["S"][1, 0] = 99.0
    assert p.tensors["S"][1, 0] != 99.0


def test_tensors_are_views_of_one_buffer():
    p = params_mod.init_mass(3, 4, 5, 2, np.random.default_rng(3), variant="ups")
    flat = p.tensors.flat
    assert flat.size == sum(t.size for t in p.tensors.values())
    assert all(np.shares_memory(t, flat) for t in p.tensors.values())
    flat[:] = np.arange(flat.size)
    assert [float(t.ravel()[0]) for t in p.tensors.values()] == list(
        np.cumsum([0] + [t.size for t in p.tensors.values()])[:-1])
    z = p.zero_like()
    assert z.layout == p.tensors.layout and not np.any(z.flat)
    assert not np.shares_memory(z.flat, flat)


def test_arena_refuses_a_new_name_or_shape():
    p = params_mod.init_mdr(2, 2, 3, 2, np.random.default_rng(3))
    before = p.tensors.flat.copy()
    with pytest.raises(KeyError, match="extra"):
        p.tensors["extra"] = np.ones(3)
    with pytest.raises(ValueError, match="U"):
        p.tensors["U"] = np.ones(2)  # would broadcast into (2, 2)
    assert set(p.tensors) == {name for name, _ in p.tensors.layout}
    assert p.tensors.flat.tobytes() == before.tobytes()


def test_arena_refuses_a_buffer_of_another_size():
    shapes = {"S": (3, 2), "theta": (3,)}
    assert params_mod.Arena(shapes, np.arange(9.0))["theta"].tolist() == [6.0, 7.0, 8.0]
    for size in (8, 10):
        with pytest.raises(ValueError, match="the tensors hold 9 values"):
            params_mod.Arena(shapes, np.zeros(size))


def test_copy_is_independent_of_its_source():
    p = params_mod.init_mass(3, 4, 5, 2, np.random.default_rng(3), attention="mem_dot")
    q = p.copy()
    assert q.tensors.flat.tobytes() == p.tensors.flat.tobytes()
    assert not np.shares_memory(q.tensors.flat, p.tensors.flat)
    before = q.tensors.flat.copy()
    p.tensors.flat[:] += 1.0
    p.tensors["S_a"][2] = 7.0
    assert q.tensors.flat.tobytes() == before.tobytes()
    q.tensors["W1"][0, 0] = 99.0
    assert p.tensors["W1"][0, 0] != 99.0


def test_zero_like():
    rng = np.random.default_rng(4)
    p = params_mod.init_mdr(2, 2, 3, 2, rng)
    z = p.zero_like()
    assert set(z) == set(p.tensors)
    assert all(np.all(v == 0) for v in z.values())


def test_zero_padding_rows_on_target():
    rng = np.random.default_rng(5)
    p = params_mod.init_mass(2, 2, 3, 2, rng)
    grads = {k: np.ones_like(v) for k, v in p.tensors.items()}
    p.zero_padding_rows(grads)
    for name in ("S", "S_a", "song_bias"):
        assert np.all(grads[name][0] == 0.0)
    assert np.all(grads["W1"] == 1.0)


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    p = params_mod.init_mass(3, 4, 5, 2, rng, variant="ups", attention="mem_dot")
    path = str(tmp_path / "ckpt.json")
    hyper = {"learning_rate": 1e-3, "epochs": 5}
    params_mod.save_checkpoint(p, path, hyper, seed=7)
    back, h, seed = params_mod.load_checkpoint(path)
    assert (back.kind, back.variant, back.attention) == ("mass", "ups", "mem_dot")
    assert back.dim == p.dim
    assert h == hyper and seed == 7
    assert set(back.tensors) == set(p.tensors)
    for name in p.tensors:
        np.testing.assert_array_equal(back.tensors[name], p.tensors[name])


def test_checkpoint_roundtrip_is_bit_identical(tmp_path):
    rng = np.random.default_rng(9)
    p = params_mod.init_mass(3, 4, 5, 2, rng, variant="ups", attention="mem_metric")
    p.tensors.flat[:] += rng.normal(scale=1e3, size=p.tensors.flat.size)
    p.zero_padding_rows()
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    params_mod.save_checkpoint(p, first)
    back, _, _ = params_mod.load_checkpoint(first)
    assert back.tensors.layout == p.tensors.layout
    assert back.tensors.flat.tobytes() == p.tensors.flat.tobytes()
    params_mod.save_checkpoint(back, second)
    assert first.read_bytes() == second.read_bytes()


def test_checkpoint_carrying_max_members_loads(tmp_path):
    rng = np.random.default_rng(8)
    p = params_mod.init_mass(3, 4, 5, 2, rng)
    path = tmp_path / "ckpt.json"
    params_mod.save_checkpoint(p, str(path))
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert "max_members" not in doc["model"]
    doc["model"]["max_members"] = 6  # as checkpoints of earlier versions carry it
    path.write_text(json.dumps(doc), encoding="utf-8")
    back, _, _ = params_mod.load_checkpoint(str(path))
    assert (back.kind, back.variant, back.attention) == ("mass", "us", "mem_metric")
    for name in p.tensors:
        np.testing.assert_array_equal(back.tensors[name], p.tensors[name])


EDGE_VALUES = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
               2.2250738585072014e-308, 1e-05, 0.1, 1.0 / 3.0]


def _checkpoint_with_edge_values():
    p = params_mod.init_mass(3, 4, 5, 2, np.random.default_rng(10), attention="mem_dot")
    p.tensors["W1"].ravel()[:len(EDGE_VALUES)] = EDGE_VALUES
    p.catalog_sha256 = "ab" * 32
    return p


def test_checkpoint_reads_back_bit_identical_with_stdlib_json(tmp_path):
    p = _checkpoint_with_edge_values()
    path = tmp_path / "ckpt.json"
    params_mod.save_checkpoint(p, str(path))
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)  # as a reader without this package would
    assert doc["model"]["catalog_sha256"] == "ab" * 32
    for name, t in p.tensors.items():
        back = np.array(doc["tensors"][name]["values"], dtype=np.float64)
        assert back.reshape(doc["tensors"][name]["shape"]).tobytes() == t.tobytes(), name
    ours, _, _ = params_mod.load_checkpoint(str(path))
    assert ours.catalog_sha256 == "ab" * 32
    for name, t in p.tensors.items():
        assert ours.tensors[name].tobytes() == t.tobytes(), name


def test_checkpoint_written_by_stdlib_json_loads_bit_identical(tmp_path):
    p = _checkpoint_with_edge_values()
    doc = {
        "format": params_mod.CHECKPOINT_FORMAT,
        "model": {"kind": p.kind, "variant": p.variant, "attention": p.attention,
                  "dim": p.dim, "num_users": p.num_users, "num_playlists": p.num_playlists,
                  "num_songs": p.num_songs, "use_bias": p.use_bias},
        "hyperparams": {"learning_rate": 1e-05},
        "seed": 3,
        "tensors": {name: {"shape": list(t.shape), "values": t.ravel().tolist()}
                    for name, t in p.tensors.items()},
    }
    path = tmp_path / "ckpt.json"
    with open(path, "w", encoding="utf-8") as f:  # the writer of earlier versions
        json.dump(doc, f, sort_keys=True)
        f.write("\n")
    back, hyper, seed = params_mod.load_checkpoint(str(path))
    assert hyper == {"learning_rate": 1e-05} and seed == 3
    assert back.catalog_sha256 == ""
    for name, t in p.tensors.items():
        assert back.tensors[name].tobytes() == t.tobytes(), name


def test_load_checkpoint_rejects_foreign_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"format": "something-else"}', encoding="utf-8")
    with pytest.raises(ValueError, match="not a model checkpoint"):
        params_mod.load_checkpoint(str(path))


def _corrupt_missing(tensors):
    del tensors["B3"]


def _corrupt_extra(tensors):
    tensors["B4"] = {"shape": [2], "values": [1.0, 1.0]}


def _corrupt_shape(tensors):
    tensors["U"]["shape"] = [4, 2]  # the header says 3 users
    tensors["U"]["values"] += [0.0, 0.0]


def _corrupt_nonfinite(tensors):
    tensors["W1"]["values"][3] = float("nan")


CORRUPTIONS = {
    "missing": (_corrupt_missing, "do not match"),
    "extra": (_corrupt_extra, "do not match"),
    "shape": (_corrupt_shape, "tensor U has shape"),
    "nonfinite": (_corrupt_nonfinite, "tensor W1 holds a non-finite value"),
}


def write_corrupt_checkpoint(path, case):
    """A mass us mem_dot checkpoint (3 users, 5 songs, d = 2) damaged as `case` says."""
    p = params_mod.init_mass(3, 4, 5, 2, np.random.default_rng(9), attention="mem_dot")
    params_mod.save_checkpoint(p, str(path))
    doc = json.loads(path.read_text(encoding="utf-8"))
    CORRUPTIONS[case][0](doc["tensors"])
    path.write_text(json.dumps(doc), encoding="utf-8")


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_load_checkpoint_rejects_tensors_that_disagree_with_header(tmp_path, case):
    path = tmp_path / "ckpt.json"
    write_corrupt_checkpoint(path, case)
    with pytest.raises(ValueError, match=CORRUPTIONS[case][1]):
        params_mod.load_checkpoint(str(path))


def read_arena(path, dtype="<f8"):
    """(header, payload, copies) of the arena file at `path`: the 8-byte magic,
    the header's length as a little-endian uint64, the header, zeros up to an
    8-byte boundary, the payload as `dtype` (a checkpoint's is little-endian
    float64), then `copies`, the stored bytes of the files whose lengths the
    header holds under its `...json_size` keys, one after another."""
    data = path.read_bytes()
    assert data[:8] == b"MRARENA2"
    size = int.from_bytes(data[8:16], "little")
    start = 16 + size + -size % 8
    assert data[16 + size:start] == bytes(start - 16 - size)
    header = json.loads(data[16:16 + size])
    end = len(data) - sum(n for key, n in header.items() if key.endswith("json_size"))
    return header, np.frombuffer(data[start:end], dtype), data[end:]


def write_arena(path, header, payload, copies, crc=True, magic=b"MRARENA2"):
    """Write `header`, the bytes of the array `payload` and the bytes `copies`
    as an arena file at `path`; with `crc`, its `crc32` is recomputed for
    them, else kept."""
    head = orjson.dumps({k: v for k, v in header.items() if k != "crc32"},
                        option=orjson.OPT_SORT_KEYS)
    if crc:
        header = dict(header, crc32=zlib.crc32(payload.tobytes(), zlib.crc32(head)))
    head = orjson.dumps(header, option=orjson.OPT_SORT_KEYS)
    path.write_bytes(magic + len(head).to_bytes(8, "little") + head
                     + bytes(-len(head) % 8) + payload.tobytes() + copies)


def write_zip_companion(path):
    """Beside the checkpoint at `path`, the zip `.npz` companion earlier versions
    wrote and read: a `header` entry, the document without its values plus the
    JSON's SHA-256, and one flat float64 array per tensor. Its values are the
    JSON's plus one, so a reader that took them would load other tensors."""
    data = path.read_bytes()
    doc = json.loads(data)
    header = dict(doc, json_sha256=hashlib.sha256(data).hexdigest(),
                  tensors={n: {"shape": spec["shape"]} for n, spec in doc["tensors"].items()})
    entries = {"header": np.frombuffer(orjson.dumps(header, option=orjson.OPT_SORT_KEYS),
                                       np.uint8)}
    entries.update((n, np.array(spec["values"]) + 1) for n, spec in doc["tensors"].items())
    with zipfile.ZipFile(f"{path}.npz", "w") as zf:
        for name, array in entries.items():
            with zf.open(zipfile.ZipInfo(f"{name}.npy"), "w") as f:
                np.lib.format.write_array(f, array, allow_pickle=False)


_COMPANION_MODELS = (
    [("mdr", {"variant": v, "use_bias": b}) for v in params_mod.MDR_VARIANTS
     for b in (True, False)]
    + [("mass", {"variant": "ups", "attention": a, "use_bias": b})
       for a in params_mod.ATTENTION_KINDS for b in (True, False)])


def _count_json_parses(monkeypatch):
    calls = []

    def counted(data, path):
        calls.append(path)
        return parse(data, path)

    parse = params_mod.parse_json
    monkeypatch.setattr(params_mod, "parse_json", counted)
    return calls


@pytest.mark.parametrize("kind,kwargs", _COMPANION_MODELS,
                         ids=lambda x: x if isinstance(x, str) else
                         "-".join(str(v) for v in x.values()))
def test_companion_loads_the_tensors_of_the_json_bit_identically(tmp_path, monkeypatch,
                                                                 kind, kwargs):
    rng = np.random.default_rng(11)
    init = params_mod.init_mdr if kind == "mdr" else params_mod.init_mass
    p = init(3, 4, 5, 2, rng, **kwargs)
    p.tensors.flat[:] += rng.normal(scale=1e3, size=p.tensors.flat.size)
    p.tensors.flat[:len(EDGE_VALUES)] = EDGE_VALUES
    p.zero_padding_rows()
    p.catalog_sha256 = "cd" * 32
    path = tmp_path / "ckpt.json"
    params_mod.save_checkpoint(p, path, {"epochs": 3}, seed=4)
    assert sorted(os.listdir(tmp_path)) == ["ckpt.json", "ckpt.json.arena"]
    parses = _count_json_parses(monkeypatch)
    back, hyper, seed = params_mod.load_checkpoint(path)
    assert parses == []
    ref, ref_hyper, ref_seed = params_mod.checkpoint_from_doc(
        json.loads(path.read_text(encoding="utf-8")), path)
    assert (hyper, seed) == (ref_hyper, ref_seed) == ({"epochs": 3}, 4)
    assert {k: v for k, v in vars(back).items() if k != "tensors"} == \
        {k: v for k, v in vars(ref).items() if k != "tensors"}
    assert back.tensors.layout == ref.tensors.layout == p.tensors.layout
    assert back.tensors.flat.tobytes() == ref.tensors.flat.tobytes() == p.tensors.flat.tobytes()


def test_arena_loaded_tensors_are_writable_views_of_one_read_buffer(tmp_path, monkeypatch):
    p = params_mod.init_mass(3, 4, 5, 2, np.random.default_rng(13), variant="ups",
                             attention="mem_metric")
    path = tmp_path / "ckpt.json"
    params_mod.save_checkpoint(p, path)
    parses = _count_json_parses(monkeypatch)
    back, _, _ = params_mod.load_checkpoint(path)
    assert parses == []
    flat = back.tensors.flat
    # the buffer the payload was read into, not a view or a copy of another one
    assert flat.base is None and flat.dtype == np.float64
    assert flat.flags.writeable and flat.flags.aligned and flat.flags.c_contiguous
    assert all(np.shares_memory(t, flat) and t.flags.writeable for t in back.tensors.values())
    back.tensors["U"][1, 0] = 7.0
    offset = back.tensors["S"].size
    assert flat[offset + back.tensors["U"].shape[1]] == 7.0
    assert flat.tobytes() != p.tensors.flat.tobytes()


def test_companion_bytes_do_not_depend_on_the_time_or_the_file_name(tmp_path, monkeypatch):
    p = params_mod.init_mass(3, 4, 5, 2, np.random.default_rng(12), attention="mem_metric")
    params_mod.save_checkpoint(p, tmp_path / "a.json")
    later = time.time() + 86_400 * 400
    monkeypatch.setattr(time, "time", lambda: later)
    params_mod.save_checkpoint(p, str(tmp_path / "b.json"))
    assert (tmp_path / "a.json.arena").read_bytes() == (tmp_path / "b.json.arena").read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["a.json", "a.json.arena", "b.json", "b.json.arena"]


def test_json_edited_after_the_companion_loads_the_edited_values(tmp_path, monkeypatch):
    p = params_mod.init_mdr(3, 4, 5, 2, np.random.default_rng(13))
    path = tmp_path / "ckpt.json"
    params_mod.save_checkpoint(p, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["tensors"]["U"]["values"][0] = 0.125
    path.write_text(json.dumps(doc), encoding="utf-8")
    parses = _count_json_parses(monkeypatch)
    back, _, _ = params_mod.load_checkpoint(path)
    assert parses == [path]
    assert back.tensors["U"][0, 0] == 0.125
    back.tensors["U"][0, 0] = p.tensors["U"][0, 0]
    assert back.tensors.flat.tobytes() == p.tensors.flat.tobytes()


@pytest.mark.parametrize("num_songs", [5, 5_000], ids=["small", "several-chunks"])
def test_same_length_json_edit_loads_the_edited_values(tmp_path, monkeypatch, num_songs):
    """A digit of the JSON changed in place leaves its length as the arena
    file records it; the copy tells the two apart, so the load parses the
    edited JSON. In the larger file the digit lies past the first chunk
    that the copy is compared in."""
    p = params_mod.init_mdr(3, 4, num_songs, 2, np.random.default_rng(19))
    path = tmp_path / "ckpt.json"
    params_mod.save_checkpoint(p, path)
    data = path.read_bytes()
    # the first nonzero digit of U's first value (U follows S), made another nonzero digit
    start = data.index(b'"values":[', data.index(b'"U":'))
    i = min(data.index(d, start) for d in b"123456789")
    assert num_songs < 5_000 or i > 2 * dataset._COPY_CHUNK
    edited = data[:i] + bytes([ord("1") + data[i] % 9]) + data[i + 1:]
    path.write_bytes(edited)
    parses = _count_json_parses(monkeypatch)
    back, _, _ = params_mod.load_checkpoint(path)
    assert parses == [path]
    ref, _, _ = params_mod.checkpoint_from_doc(json.loads(edited), path)
    assert back.tensors.flat.tobytes() == ref.tensors.flat.tobytes() != p.tensors.flat.tobytes()


def test_arena_file_holds_the_header_and_the_arena_values(tmp_path):
    p = params_mod.init_mass(3, 4, 5, 2, np.random.default_rng(14), variant="ups",
                             attention="mem_metric")
    path = tmp_path / "ckpt.json"
    params_mod.save_checkpoint(p, path, {"learning_rate": 1e-05}, seed=2)
    header, payload, copy = read_arena(tmp_path / "ckpt.json.arena")
    doc = json.loads(path.read_bytes())
    # the JSON's bytes follow the payload verbatim, and the header holds their length
    assert copy == path.read_bytes()
    assert header.pop("json_size") == len(copy)
    crc = header.pop("crc32")
    assert header == dict(doc, tensors={n: {"shape": spec["shape"]}
                                        for n, spec in doc["tensors"].items()})
    # the payload keeps the arena's order, not the header's sorted one
    assert list(p.tensors) != sorted(p.tensors)
    assert payload.tobytes() == p.tensors.flat.tobytes()
    header = dict(header, json_size=len(copy))
    assert crc == zlib.crc32(payload.tobytes(), zlib.crc32(
        orjson.dumps(header, option=orjson.OPT_SORT_KEYS)))


def test_zip_companion_of_earlier_versions_is_not_read(tmp_path, monkeypatch):
    p = params_mod.init_mass(3, 4, 5, 2, np.random.default_rng(16), attention="mem_dot")
    path = tmp_path / "ckpt.json"
    params_mod.save_checkpoint(p, path)
    (tmp_path / "ckpt.json.arena").unlink()
    write_zip_companion(path)
    files = {f: (tmp_path / f).read_bytes() for f in os.listdir(tmp_path)}
    parses = _count_json_parses(monkeypatch)
    back, _, _ = params_mod.load_checkpoint(path)
    assert parses == [path]
    assert back.tensors.flat.tobytes() == p.tensors.flat.tobytes()
    assert {f: (tmp_path / f).read_bytes() for f in os.listdir(tmp_path)} == files


def _edit_arena(edit, crc=True):
    def damage(path):
        header, payload, copy = read_arena(path)
        write_arena(path, *edit(header, payload.copy()), copy, crc=crc)
    return damage


def _copy_one_byte_short(path):
    """The stored copy of the JSON one byte short, with its length in the
    header and the CRC-32 to match: only the tie to the JSON can refuse it."""
    header, payload, copy = read_arena(path)
    write_arena(path, dict(header, json_size=len(copy) - 1), payload, copy[:-1])


def _old_layout(path):
    """The arena file in the layout earlier versions wrote: magic `MRARENA1`,
    the SHA-256 of the JSON as `json_sha256` in the header, and no copy."""
    header, payload, copy = read_arena(path)
    del header["json_size"]
    header["json_sha256"] = hashlib.sha256(copy).hexdigest()
    write_arena(path, header, payload, b"", magic=b"MRARENA1")


def _flip(at):
    def damage(path):
        data = bytearray(path.read_bytes())
        data[at(data)] ^= 0x01
        path.write_bytes(bytes(data))
    return damage


def _with_u_shape(header, payload):
    header["tensors"]["U"]["shape"] = [header["tensors"]["U"]["shape"][0] - 1, 2]
    return header, payload


def _other_checkpoints_arena(path):
    other = path.with_name("other.json")
    params_mod.save_checkpoint(params_mod.init_mdr(3, 4, 5, 2, np.random.default_rng(18)), other)
    os.replace(other.with_name("other.json.arena"), path)


ARENA_DAMAGE = {
    "truncated": lambda path: path.write_bytes(path.read_bytes()[:-8]),
    "magic": _flip(lambda data: 7),
    "header-length": _flip(lambda data: 8),
    # "seed":0 becomes "seed":1, a header that still parses
    "header-byte": _flip(lambda data: data.index(b'"seed":0') + 7),
    # the last byte before the copy, an exponent bit of the arena's last value
    "payload-byte": _flip(lambda data: data.rindex(b'{"format"') - 1),
    "float32": _edit_arena(lambda h, a: (h, a.astype("<f4"))),
    "big-endian": _edit_arena(lambda h, a: (h, a.astype(">f8")), crc=False),
    "one-value-more": _edit_arena(lambda h, a: (h, np.append(a, 0.0))),
    "one-value-fewer": _edit_arena(lambda h, a: (h, a[:-1])),
    "header-shape": _edit_arena(_with_u_shape),
    "nonfinite": _edit_arena(lambda h, a: (h, np.where(a == a.max(), np.inf, a))),
    "other-checkpoint": _other_checkpoints_arena,
    # the JSON's closing brace, in the stored copy
    "copy-byte": _flip(lambda data: len(data) - 2),
    "copy-one-byte-short": _copy_one_byte_short,
    "old-layout": _old_layout,
}


@pytest.mark.parametrize("damage", sorted(ARENA_DAMAGE))
def test_damaged_arena_file_is_not_used(tmp_path, monkeypatch, damage):
    p = params_mod.init_mdr(3, 4, 5, 2, np.random.default_rng(17))
    path = tmp_path / "ckpt.json"
    params_mod.save_checkpoint(p, path)
    ARENA_DAMAGE[damage](tmp_path / "ckpt.json.arena")
    parses = _count_json_parses(monkeypatch)
    back, _, _ = params_mod.load_checkpoint(path)
    assert parses == [path]
    assert back.tensors.flat.tobytes() == p.tensors.flat.tobytes()
