"""Data pipeline: raw interaction ingestion through train/dev/test splits.

Input is a UTF-8 TSV of `user\tplaylist\tsong` lines. The pipeline
deduplicates (playlist, song) pairs, drops oversized users/playlists,
applies the playlist-size filter (k-core, single pass), assigns dense
integer indices (song index 0 is reserved for padding), and holds out two
songs per playlist: the first draw becomes the test item, the second the
dev item. Everything is deterministic given the seed.
"""

import hashlib
import json
import os
import struct
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import chain, pairwise, repeat

import numpy as np
import orjson

DEFAULT_K_CORE = 5
DEFAULT_MAX_PLAYLISTS_PER_USER = 100
DEFAULT_MAX_SONGS_PER_PLAYLIST = 63

# the first 8 bytes of an arena file: its layout and version
ARENA_MAGIC = b"MRARENA1"
# the split companion `prepare` writes beside catalog.json and split.json
SPLIT_ARENA = "split.json.arena"


@dataclass
class InteractionRecord:
    user_id: str
    playlist_id: str
    song_id: str


@dataclass
class Catalog:
    """Bijections between external ids and dense indices.

    Users and playlists are indexed from 0; songs from 1 (0 is padding).
    """

    users: dict = field(default_factory=dict)
    playlists: dict = field(default_factory=dict)
    songs: dict = field(default_factory=dict)
    # `fingerprint()` as a split companion stores it, set only by the
    # companion's loader; "" when it is to be computed
    stored_fingerprint: str = field(default="", init=False, compare=False, repr=False)

    @property
    def num_users(self):
        return len(self.users)

    @property
    def num_playlists(self):
        return len(self.playlists)

    @property
    def num_songs(self):
        return len(self.songs)

    def inverse(self):
        inv_u = {v: k for k, v in self.users.items()}
        inv_p = {v: k for k, v in self.playlists.items()}
        inv_s = {v: k for k, v in self.songs.items()}
        return inv_u, inv_p, inv_s

    def fingerprint(self):
        """SHA-256 hex digest of the user, playlist and song id -> index maps,
        taken over their compact sorted-key JSON."""
        if self.stored_fingerprint:
            return self.stored_fingerprint
        maps = {"users": self.users, "playlists": self.playlists, "songs": self.songs}
        return hashlib.sha256(orjson.dumps(maps, option=orjson.OPT_SORT_KEYS)).hexdigest()


@dataclass(eq=False)
class SplitDataset:
    """Owners, held-out songs and train songs as int64 arrays indexed by the
    catalog's playlists: p's train songs are `songs[offsets[p]:offsets[p + 1]]`.
    A playlist without a split entry has an empty row and owner 0; song 0,
    the padding, marks a missing held-out song."""

    owner: np.ndarray
    dev: np.ndarray
    test: np.ndarray
    offsets: np.ndarray    # (num_playlists + 1,), from 0
    songs: np.ndarray
    max_members: int       # l: longest train list

    def train_lists(self):
        """Each playlist's train songs as a list of ints, in playlist order."""
        songs = self.songs.tolist()
        return [songs[a:b] for a, b in pairwise(self.offsets.tolist())]

    def full_sets(self, num_songs):
        """(offsets, songs) of each playlist's distinct train and held-out
        songs, ascending, in rows laid out as the train rows are."""
        base, playlists = num_songs + 1, np.arange(len(self.owner))
        keys = base * np.concatenate((np.repeat(playlists, np.diff(self.offsets)),
                                      playlists, playlists))
        keys += np.concatenate((self.songs, self.dev, self.test))
        keys.sort()
        rows, songs = np.divmod(keys[np.append(True, keys[1:] != keys[:-1]) & (keys % base > 0)],
                                base)
        return np.append(0, np.cumsum(np.bincount(rows, minlength=len(playlists)))), songs


def split_from_rows(rows, songs, num_playlists):
    """The SplitDataset of the split entries `rows`, which `check_split` passes."""
    playlist, counts = rows[:, 0], np.diff(rows[:, 4], prepend=0)
    table = np.zeros((4, num_playlists), dtype=np.int64)
    table[:, playlist] = np.vstack((rows[:, 1:4].T, counts))
    owner, dev, test, lengths = table
    offsets = np.append(0, np.cumsum(lengths))
    train = np.empty(len(songs), dtype=np.int64)
    train[row_positions(offsets[playlist], counts)] = songs
    return SplitDataset(owner, dev, test, offsets, train, int(counts.max()))


def row_positions(starts, counts):
    """Flat positions of rows of `counts` songs that start at `starts`, row after row."""
    return np.repeat(starts - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())


def check_split(rows, songs, num_users, num_playlists, num_songs):
    """(entry index, field) of the first fault of the split entries `rows`,
    or None. `rows` is (n, 5) int64: per entry its playlist, owner, dev song,
    test song and the end offset of its train songs in `songs`; the offsets
    must ascend to len(songs).

    An entry's faults, in this order: `id`, a playlist outside the catalog
    or given by an earlier entry; `user`, an owner outside it; `train`, an
    empty train list or a song outside 1..num_songs; `dev`, then `test`, a
    song outside 1..num_songs; then `dev`, then `test`, a song in the train
    list. No entry gives (None, "top level").
    """
    if not len(rows):
        return None, "top level"
    playlist, owner, dev, test, ends = rows.T
    counts = np.diff(ends, prepend=0)
    entry = np.repeat(np.arange(len(rows)), counts)
    order = np.argsort(playlist, kind="stable")
    repeated = np.zeros(len(rows), dtype=bool)
    repeated[order[1:]] = playlist[order[1:]] == playlist[order[:-1]]

    def per_entry(mask):  # the entries with a train song in `mask`
        return np.bincount(entry[mask], minlength=len(rows)) > 0

    faults = np.column_stack([
        (playlist < 0) | (playlist >= num_playlists) | repeated,
        (owner < 0) | (owner >= num_users),
        (counts == 0) | per_entry((songs < 1) | (songs > num_songs)),
        (dev < 1) | (dev > num_songs),
        (test < 1) | (test > num_songs),
        per_entry(np.repeat(dev, counts) == songs),
        per_entry(np.repeat(test, counts) == songs),
    ]).ravel()
    first = int(np.argmax(faults))  # entry-major: the first entry's first fault
    fields = ("id", "user", "train", "dev", "test", "dev", "test")
    return (first // 7, fields[first % 7]) if faults[first] else None


def load_interactions(path):
    """Parse a TSV interaction file, dropping repeated (playlist, song) pairs."""
    records = []
    seen = set()
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 3 or not all(fields):
                raise ValueError(f"{path}: malformed line {lineno}: {line!r}")
            user, playlist, song = fields
            key = (playlist, song)
            if key in seen:
                continue
            seen.add(key)
            records.append(InteractionRecord(user, playlist, song))
    if not records:
        raise ValueError(f"{path}: no interaction records found")
    return records


def apply_size_caps(records, max_playlists_per_user=DEFAULT_MAX_PLAYLISTS_PER_USER,
                    max_songs_per_playlist=DEFAULT_MAX_SONGS_PER_PLAYLIST):
    """Drop users with too many playlists and playlists with too many songs."""
    per_user = OrderedDict()
    per_playlist = OrderedDict()
    for r in records:
        per_user.setdefault(r.user_id, set()).add(r.playlist_id)
        per_playlist.setdefault(r.playlist_id, set()).add(r.song_id)
    bad_users = {u for u, ps in per_user.items() if len(ps) > max_playlists_per_user}
    bad_playlists = {p for p, ss in per_playlist.items() if len(ss) > max_songs_per_playlist}
    return [
        r for r in records
        if r.user_id not in bad_users and r.playlist_id not in bad_playlists
    ]


def k_core_filter(records, k=DEFAULT_K_CORE):
    """Remove all records of playlists holding fewer than k distinct songs."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    sizes = OrderedDict()
    for r in records:
        sizes.setdefault(r.playlist_id, set()).add(r.song_id)
    keep = {p for p, songs in sizes.items() if len(songs) >= k}
    return [r for r in records if r.playlist_id in keep]


def build_catalog(records):
    """Dense index assignment in first-appearance order."""
    cat = Catalog()
    for r in records:
        if r.user_id not in cat.users:
            cat.users[r.user_id] = len(cat.users)
        if r.playlist_id not in cat.playlists:
            cat.playlists[r.playlist_id] = len(cat.playlists)
        if r.song_id not in cat.songs:
            cat.songs[r.song_id] = len(cat.songs) + 1  # 0 is padding
    return cat


def leave_one_out_split(records, seed, catalog=None):
    """Hold out two songs per playlist: first draw is test, second is dev.

    The max member count l is computed over the remaining train lists.
    """
    if catalog is None:
        catalog = build_catalog(records)
    playlists = OrderedDict()
    owner = {}
    for r in records:
        p = catalog.playlists[r.playlist_id]
        playlists.setdefault(p, []).append(catalog.songs[r.song_id])
        owner[p] = catalog.users[r.user_id]

    rng = np.random.default_rng(seed)
    rows, train = [], []
    for p, songs in playlists.items():
        if len(songs) < 3:
            raise ValueError(
                f"playlist index {p} has only {len(songs)} songs; need >= 3 to split"
            )
        test, dev = rng.choice(len(songs), size=2, replace=False)
        train += [s for i, s in enumerate(songs) if i not in (test, dev)]
        rows.append((p, owner[p], songs[dev], songs[test], len(train)))
    return split_from_rows(np.array(rows, dtype=np.int64), np.array(train, dtype=np.int64),
                           catalog.num_playlists)


def songs_outside(full_set, num_songs):
    """Sorted int64 array of the songs 1..num_songs that are not in `full_set`,
    an int array or a collection of song indices (0, the padding, may be in it)."""
    keep = np.ones(num_songs + 1, dtype=bool)
    keep[0] = False
    keep[full_set if isinstance(full_set, np.ndarray) else list(full_set)] = False
    return np.flatnonzero(keep)


def sample_negatives(full_set, num_songs, count, rng):
    """Uniform draw of `count` distinct non-member songs (never the padding 0)."""
    pool = songs_outside(full_set, num_songs)
    if len(pool) < count:
        raise ValueError(
            f"candidate pool has {len(pool)} songs, need {count}"
        )
    return rng.choice(pool, size=count, replace=False)


# ---------------------------------------------------------------------------
# on-disk formats shared by prepare / train / evaluate
# ---------------------------------------------------------------------------

def read_json(path):
    """Parse the JSON document in `path`; a parse error names the file."""
    with open(path, "rb") as f:
        return parse_json(f.read(), path)


def parse_json(data, path):
    """Parse the JSON bytes `data` read from `path`; a parse error names the file."""
    try:
        return orjson.loads(data)
    except orjson.JSONDecodeError:
        pass
    try:
        # Python's json writes NaN and Infinity tokens, which orjson rejects.
        return json.loads(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_json(doc, path):
    """Write `doc` as compact UTF-8 JSON with sorted keys and a final newline.

    numpy arrays are written as (nested) lists of their values. A document
    that cannot be serialized leaves the file as it was. Returns the bytes
    written.
    """
    option = orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE
    data = orjson.dumps(doc, option=option)
    with open(path, "wb") as f:
        f.write(data)
    return data


def _header_json(header):
    """An arena file's header bytes: one serialization for the writer and for
    the reader's CRC check, which re-serializes the parsed header."""
    return orjson.dumps(header, option=orjson.OPT_SORT_KEYS)


def write_arena(path, header, payload, sources):
    """Write the arena file `path`, derived data for the files whose bytes
    `sources` maps from a header key.

    Layout: `ARENA_MAGIC`; the header's length as a little-endian uint64; the
    header, sorted-key JSON holding `header`, each `sources` key with the
    SHA-256 of its bytes, and `crc32`, the CRC-32 of the header's JSON
    without that key followed by the payload; zeros up to an 8-byte
    boundary; and the payload, the bytes of the array `payload`. It holds
    no time stamp, so equal inputs give equal bytes. It is written in place:
    a reader refuses a file cut short by a crash or read mid-write by its
    CRC-32, as it refuses any other damage.
    """
    header = dict(header, **{key: hashlib.sha256(data).hexdigest()
                             for key, data in sources.items()})
    head = _header_json(dict(header, crc32=zlib.crc32(payload, zlib.crc32(_header_json(header)))))
    with open(path, "wb") as f:
        f.write(ARENA_MAGIC + struct.pack("<Q", len(head)) + head + bytes(-len(head) % 8))
        f.write(payload)


def read_arena(path, sources, dtype, build):
    """`build(header, values)` for the arena file `path` (see `write_arena`),
    or None.

    `values` is the payload as a flat read-only `dtype` array. The result is
    None when the file cannot be read, its magic is not `ARENA_MAGIC`, its
    header does not parse, a `sources` key of the header is not the SHA-256
    of those bytes (the file was written for other files), the CRC-32 does
    not match, or `build` returns None or raises one of the errors a header
    of another layout gives. Nothing is written.
    """
    try:
        with open(path, "rb") as f:
            buf = f.read()
        if buf[:8] != ARENA_MAGIC:
            return None
        size, = struct.unpack_from("<Q", buf, 8)
        header = orjson.loads(buf[16:16 + size])
        crc = header.pop("crc32")
        payload = memoryview(buf)[16 + size + -size % 8:]
        if (any(header[key] != hashlib.sha256(data).hexdigest() for key, data in sources.items())
                or crc != zlib.crc32(payload, zlib.crc32(_header_json(header)))):
            return None
        return build(header, np.frombuffer(payload, dtype))
    except (OSError, struct.error, ValueError, LookupError, TypeError, AttributeError):
        # Derived data that cannot be read (a missing file, a truncated or
        # altered one, a header of another layout) is not used: the caller
        # parses the JSON instead.
        return None


def save_catalog(catalog, path):
    """Catalog manifest: the three id -> index maps and their sizes; returns
    the bytes written."""
    doc = {
        "users": catalog.users,
        "playlists": catalog.playlists,
        "songs": catalog.songs,
        "num_users": catalog.num_users,
        "num_playlists": catalog.num_playlists,
        "num_songs": catalog.num_songs,
    }
    return write_json(doc, path)


def load_catalog(path):
    """Read a catalog manifest.

    Raises ValueError("<path>: <field>: <problem>") for a document that is
    not a JSON object, for a missing or non-object `users`, `playlists` or
    `songs` map, and for a map whose indices are not each of 0..n-1 (users,
    playlists) or 1..n (songs) once.
    """
    doc = read_json(path)
    _require_object(path, "top level", doc, "a catalog")
    for key, first in (("users", 0), ("playlists", 0), ("songs", 1)):
        if key not in doc:
            raise ValueError(f"{path}: {key}: missing")
        _require_object(path, key, doc[key], "an id -> index map")
        _require_dense(path, key, doc[key], first)
    return Catalog(users=doc["users"], playlists=doc["playlists"], songs=doc["songs"])


def _require_dense(path, field_name, ids, first):
    indices = list(ids.values())
    # `type(...) is int` also refuses true and false, which compare as 1 and 0
    if (not all(type(i) is int for i in indices)
            or sorted(indices) != list(range(first, first + len(indices)))):
        raise ValueError(f"{path}: {field_name}: the indices must be the integers "
                         f"{first}..{first + len(indices) - 1}, each once")


def _require_object(path, field_name, value, what):
    if not isinstance(value, dict):
        raise ValueError(f"{path}: {field_name}: {what} is a JSON object, "
                         f"this one is a {type(value).__name__}")


def save_split(split, catalog, path):
    """Split manifest keyed by external playlist id; returns the bytes written."""
    inv_u, inv_p, inv_s = catalog.inverse()
    owner, dev, test = (a.tolist() for a in (split.owner, split.dev, split.test))
    doc = {}
    for p, members in enumerate(split.train_lists()):
        if members:
            doc[inv_p[p]] = {
                "user": inv_u[owner[p]],
                "train": [inv_s[s] for s in members],
                "dev": inv_s[dev[p]],
                "test": inv_s[test[p]],
            }
    return write_json(doc, path)


def load_split(path, catalog):
    """Read a split manifest against its catalog.

    Every entry becomes a `check_split` row: an id maps to its index, or to
    -1 when the catalog lacks it or it is not a JSON string; a missing
    `user`, `dev` or `test` maps to -1, a missing `train` to no song, and a
    `train` that is not a JSON array to one song -1. The first row that
    `check_split` refuses, the first bad entry in file order, raises
    ValueError("<path>: <playlist id>.<field>: <problem>") built from that
    entry alone: an entry that is not a JSON object; else a missing `user`,
    `train`, `dev` or `test`; else the first fault `check_split` finds in
    it: an id the catalog lacks, a `train` that is not a non-empty JSON
    array, or a held-out song that is also in the train list. So a missing
    field comes before every other fault of its entry, an empty or
    non-array `train` included. A document that is not a JSON object or
    holds no entry raises ValueError("<path>: top level: <problem>").
    """
    doc = read_json(path)
    _require_object(path, "top level", doc, "a split")
    entries = [entry if isinstance(entry, dict) else {} for entry in doc.values()]
    trains = [train if isinstance(train, list) else [None]
              for train in (entry.get("train", []) for entry in entries)]
    rows = np.column_stack([
        _indices(catalog.playlists, list(doc)),
        *(_indices(table, [entry.get(key) for entry in entries])
          for key, table in (("user", catalog.users), ("dev", catalog.songs),
                             ("test", catalog.songs))),
        np.cumsum(list(map(len, trains)), dtype=np.int64)])
    songs = _indices(catalog.songs, list(chain.from_iterable(trains)))
    fault = check_split(rows, songs, catalog.num_users, catalog.num_playlists, catalog.num_songs)
    if fault:
        _refuse_entry(path, doc, catalog, *fault)
    return split_from_rows(rows, songs, catalog.num_playlists)


def _indices(table, ids):
    """int64 array of `table`'s index of each id of the list `ids`; -1 for an
    id it lacks or one that is not a string."""
    if list(map(type, ids)).count(str) < len(ids):  # a JSON array or object is unhashable
        ids = [i if type(i) is str else None for i in ids]
    return np.fromiter(map(table.get, ids, repeat(-1)), np.int64, len(ids))


def _refuse_entry(path, doc, catalog, i, key):
    """Raise the `load_split` error of field `key` of `doc`'s entry `i`, which
    `check_split` refused (see `load_split`)."""
    if i is None:
        raise ValueError(f"{path}: top level: a split holds at least one playlist, this one none")
    pid, entry = list(doc.items())[i]
    _require_object(path, pid, entry, "a split entry")
    for field_name in ("user", "train", "dev", "test"):
        if field_name not in entry:
            raise ValueError(f"{path}: {pid}.{field_name}: missing")
    where = f"{path}: {pid}.{key}:"
    ids = entry["train"] if key == "train" else [pid if key == "id" else entry[key]]
    if not isinstance(ids, list):
        raise ValueError(f"{where} must be a JSON array, got {type(ids).__name__}")
    if not ids:
        raise ValueError(f"{where} must hold at least one song")
    table = {"id": catalog.playlists, "user": catalog.users}.get(key, catalog.songs)
    unknown = _indices(table, ids) < 0
    if unknown.any():
        raise ValueError(f"{where} {ids[int(np.argmax(unknown))]!r} is not in the catalog")
    raise ValueError(f"{where} held-out song {entry[key]!r} is also in the train list")


def save_split_arena(catalog, split, catalog_data, split_data, path):
    """Write the split companion `path` for the catalog.json bytes
    `catalog_data` and the split.json bytes `split_data` that `save_catalog`
    and `save_split` wrote for `catalog` and `split` (see `write_arena`).

    Its header holds `catalog_json_sha256` and `split_json_sha256`, the
    catalog's `fingerprint()` as `catalog_fingerprint`, each map's ids in
    catalog.json's key order (sorted, as `write_json` sorts keys) as
    `users`, `playlists` and `songs`, and `entries`, the number of
    split.json entries. Its int64 payload holds each map's indices in its
    ids' order; then one row per split.json entry in file order (playlist,
    owner, dev song, test song, and the end offset of its train songs);
    then every entry's train songs, one list after another.
    """
    maps = {key: getattr(catalog, key) for key in ("users", "playlists", "songs")}
    ids = {key: sorted(table) for key, table in maps.items()}
    indices = [np.fromiter(map(maps[key].__getitem__, key_ids), "<i8", len(key_ids))
               for key, key_ids in ids.items()]
    lengths = np.diff(split.offsets)
    playlists = indices[1][lengths[indices[1]] > 0]  # those with an entry, in id order
    counts = lengths[playlists]
    rows = np.column_stack([playlists, *(a[playlists] for a in (split.owner, split.dev, split.test)),
                            np.cumsum(counts)])
    train = split.songs[row_positions(split.offsets[playlists], counts)]
    header = dict(ids, catalog_fingerprint=catalog.fingerprint(), entries=len(playlists))
    write_arena(path, header, np.concatenate(indices + [rows.ravel(), train], dtype="<i8"),
                {"catalog_json_sha256": catalog_data, "split_json_sha256": split_data})


def load_split_dir(split_dir):
    """(Catalog, SplitDataset) of the split directory `split_dir`: its
    catalog.json and split.json, read through `load_catalog` and `load_split`.

    When `split_dir` holds a split companion (see `save_split_arena`) whose
    magic, header and CRC-32 are intact, whose hashes are the SHA-256 of
    both files' bytes, whose payload has the length its header implies, and
    which passes every check of `load_catalog` and `check_split`, the result
    is built from it without parsing either file, and the catalog keeps
    the companion's fingerprint. It then equals what the JSON gives, the
    catalog's dict order included. In every other case the JSON is parsed,
    with its own errors. Nothing is written.
    """
    catalog_path = os.path.join(split_dir, "catalog.json")
    split_path = os.path.join(split_dir, "split.json")
    companion = os.path.join(split_dir, SPLIT_ARENA)
    if os.path.exists(companion):  # else the JSON files are read once, below
        try:
            sources = {}
            for key, path in (("catalog_json_sha256", catalog_path),
                              ("split_json_sha256", split_path)):
                with open(path, "rb") as f:
                    sources[key] = f.read()
        except OSError:
            sources = None  # the JSON path raises the error in its own order
        loaded = sources and read_arena(companion, sources, "<i8", _split_from_arena)
        if loaded:
            return loaded
    catalog = load_catalog(catalog_path)
    return catalog, load_split(split_path, catalog)


def _split_from_arena(header, values):
    """(Catalog, SplitDataset) from a split companion's header and payload
    `values`, or None unless they pass the vectorised form of the checks of
    `load_catalog` (ids each once, dense indices) and `check_split`."""
    maps, offset = {}, 0
    for key, first in (("users", 0), ("playlists", 0), ("songs", 1)):
        ids = header[key]
        indices = values[offset:offset + len(ids)]
        offset += len(ids)
        if (type(ids) is not list or not set(map(type, ids)) <= {str}
                or not np.array_equal(np.sort(indices), np.arange(first, first + len(ids)))):
            return None
        maps[key] = dict(zip(ids, indices.tolist()))
        if len(maps[key]) != len(ids):  # an id given twice
            return None
    n, fingerprint = header["entries"], header["catalog_fingerprint"]
    if type(n) is not int or n < 0 or type(fingerprint) is not str:
        return None
    rows, songs = values[offset:offset + 5 * n].reshape(n, 5), values[offset + 5 * n:]
    ends = rows[:, 4]
    # the offsets are compared, not subtracted, so a count that wraps around
    # int64 is never used
    if (n and (np.any(ends < np.append(0, ends[:-1])) or ends[-1] != len(songs))
            or check_split(rows, songs, len(maps["users"]), len(maps["playlists"]),
                           len(maps["songs"]))):
        return None
    catalog = Catalog(**maps)
    catalog.stored_fingerprint = fingerprint
    return catalog, split_from_rows(rows, songs, catalog.num_playlists)


def prepare(input_path, out_dir, k=DEFAULT_K_CORE, seed=0,
            max_playlists_per_user=DEFAULT_MAX_PLAYLISTS_PER_USER,
            max_songs_per_playlist=DEFAULT_MAX_SONGS_PER_PLAYLIST):
    """Full pipeline: load, cap, filter, index, split, write the manifests
    and their split companion."""
    records = load_interactions(input_path)
    records = apply_size_caps(records, max_playlists_per_user, max_songs_per_playlist)
    records = k_core_filter(records, k)
    if not records:
        raise ValueError("no playlists survive filtering")
    catalog = build_catalog(records)
    split = leave_one_out_split(records, seed, catalog)
    os.makedirs(out_dir, exist_ok=True)
    catalog_data = save_catalog(catalog, os.path.join(out_dir, "catalog.json"))
    split_data = save_split(split, catalog, os.path.join(out_dir, "split.json"))
    save_split_arena(catalog, split, catalog_data, split_data,
                     os.path.join(out_dir, SPLIT_ARENA))
    return catalog, split
