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
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np
import orjson

DEFAULT_K_CORE = 5
DEFAULT_MAX_PLAYLISTS_PER_USER = 100
DEFAULT_MAX_SONGS_PER_PLAYLIST = 63


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
        maps = {"users": self.users, "playlists": self.playlists, "songs": self.songs}
        return hashlib.sha256(orjson.dumps(maps, option=orjson.OPT_SORT_KEYS)).hexdigest()


@dataclass
class SplitDataset:
    """Per-playlist train lists and held-out dev/test songs (dense indices)."""

    train: dict            # playlist idx -> list of song idx
    dev: dict              # playlist idx -> song idx
    test: dict             # playlist idx -> song idx
    owner: dict            # playlist idx -> user idx
    max_members: int       # l: longest train list

    def full_set(self, playlist):
        s = set(self.train[playlist])
        if playlist in self.dev:
            s.add(self.dev[playlist])
        if playlist in self.test:
            s.add(self.test[playlist])
        return s


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
    train, dev, test = {}, {}, {}
    for p, songs in playlists.items():
        if len(songs) < 3:
            raise ValueError(
                f"playlist index {p} has only {len(songs)} songs; need >= 3 to split"
            )
        picks = rng.choice(len(songs), size=2, replace=False)
        test[p] = songs[picks[0]]
        dev[p] = songs[picks[1]]
        train[p] = [s for i, s in enumerate(songs) if i not in (picks[0], picks[1])]
    max_members = max(len(v) for v in train.values())
    return SplitDataset(train=train, dev=dev, test=test, owner=owner,
                        max_members=max_members)


def songs_outside(full_set, num_songs):
    """Sorted int64 array of the songs 1..num_songs that are not in `full_set`."""
    keep = np.ones(num_songs + 1, dtype=bool)
    keep[0] = False
    keep[np.fromiter(full_set, dtype=np.int64, count=len(full_set))] = False
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
        data = f.read()
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
    that cannot be serialized leaves the file as it was.
    """
    option = orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE
    data = orjson.dumps(doc, option=option)
    with open(path, "wb") as f:
        f.write(data)


def save_catalog(catalog, path):
    doc = {
        "users": catalog.users,
        "playlists": catalog.playlists,
        "songs": catalog.songs,
        "num_users": catalog.num_users,
        "num_playlists": catalog.num_playlists,
        "num_songs": catalog.num_songs,
    }
    write_json(doc, path)


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
    """Split manifest keyed by external playlist id."""
    inv_u, inv_p, inv_s = catalog.inverse()
    doc = {}
    for p, members in split.train.items():
        doc[inv_p[p]] = {
            "user": inv_u[split.owner[p]],
            "train": [inv_s[s] for s in members],
            "dev": inv_s[split.dev[p]],
            "test": inv_s[split.test[p]],
        }
    write_json(doc, path)


def load_split(path, catalog):
    """Read a split manifest against its catalog.

    Raises ValueError("<path>: <playlist id>.<field>: <problem>") for an
    entry that is not a JSON object or lacks `user`, `train`, `dev` or
    `test`, for a `train` that is not a JSON array, for a playlist, user or
    song id the catalog lacks, and for a held-out (dev or test) song that is
    also in the playlist's train list.
    """
    doc = read_json(path)
    _require_object(path, "top level", doc, "a split")
    train, dev, test, owner = {}, {}, {}, {}
    for pid, entry in doc.items():
        try:
            p = catalog.playlists[pid]
            owner[p] = catalog.users[entry["user"]]
            if not isinstance(entry["train"], list):
                raise ValueError(f"{path}: {pid}.train: must be a JSON array, "
                                 f"got {type(entry['train']).__name__}")
            train[p] = [catalog.songs[s] for s in entry["train"]]
            dev[p] = catalog.songs[entry["dev"]]
            test[p] = catalog.songs[entry["test"]]
        except (KeyError, TypeError):
            _require_object(path, pid, entry, "a split entry")
            for key in ("user", "train", "dev", "test"):
                if key not in entry:
                    raise ValueError(f"{path}: {pid}.{key}: missing") from None
            _name_unknown_id(path, pid, entry, catalog)
            raise
        for key, song in (("dev", dev[p]), ("test", test[p])):
            if song in train[p]:
                raise ValueError(f"{path}: {pid}.{key}: held-out song {entry[key]!r} "
                                 f"is also in the train list")
    max_members = max(len(v) for v in train.values())
    return SplitDataset(train=train, dev=dev, test=test, owner=owner,
                        max_members=max_members)


def _name_unknown_id(path, pid, entry, catalog):
    """Raise the `load_split` error for the first id of `entry` the catalog lacks."""
    fields = [("id", catalog.playlists, pid), ("user", catalog.users, entry["user"])]
    fields += [("train", catalog.songs, s) for s in entry["train"]]
    fields += [(key, catalog.songs, entry[key]) for key in ("dev", "test")]
    for key, table, ext_id in fields:
        try:
            table[ext_id]
        except (KeyError, TypeError):
            raise ValueError(f"{path}: {pid}.{key}: {ext_id!r} is not in the catalog") from None


def prepare(input_path, out_dir, k=DEFAULT_K_CORE, seed=0,
            max_playlists_per_user=DEFAULT_MAX_PLAYLISTS_PER_USER,
            max_songs_per_playlist=DEFAULT_MAX_SONGS_PER_PLAYLIST):
    """Full pipeline: load, cap, filter, index, split, write manifests."""
    import os

    records = load_interactions(input_path)
    records = apply_size_caps(records, max_playlists_per_user, max_songs_per_playlist)
    records = k_core_filter(records, k)
    if not records:
        raise ValueError("no playlists survive filtering")
    catalog = build_catalog(records)
    split = leave_one_out_split(records, seed, catalog)
    os.makedirs(out_dir, exist_ok=True)
    save_catalog(catalog, os.path.join(out_dir, "catalog.json"))
    save_split(split, catalog, os.path.join(out_dir, "split.json"))
    return catalog, split
