"""Data pipeline: raw interaction ingestion through train/dev/test splits.

Input is a UTF-8 TSV of `user\tplaylist\tsong` lines. `prepare` reads it
column by column: each id column becomes an int64 code array, and every
later step is a numpy pass over those codes. It keeps the first row of each
(playlist, song) pair, drops oversized users and playlists, applies the
playlist-size filter (k-core, single pass), assigns dense integer indices in
first-appearance order (song index 0 is reserved for padding), and holds out
two songs per playlist: the first draw becomes the test item, the second the
dev item. Everything is deterministic given the seed. The record-by-record
form of the same steps is the tests' reference. A `Catalog` holds the ids of
each kind in index order; the manifests store them as id -> index maps.
"""

import codecs
import hashlib
import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, count, pairwise, repeat

import numpy as np
import orjson

DEFAULT_K_CORE = 5
DEFAULT_MAX_PLAYLISTS_PER_USER = 100
DEFAULT_MAX_SONGS_PER_PLAYLIST = 63

# the first 8 bytes of an arena file: its layout and version
ARENA_MAGIC = b"MRARENA2"
# the most bytes of a stored copy compared with its live file per read
_COPY_CHUNK = 1 << 16
# the split companion `prepare` writes beside catalog.json and split.json
SPLIT_ARENA = "split.json.arena"


@dataclass
class Catalog:
    """Bijections between external ids and dense indices.

    `user_ids`, `playlist_ids` and `song_ids` list the ids in index order:
    user i, playlist i, and song s at position s - 1 (song 0 is padding).
    The id -> index dicts `users`, `playlists` and `songs` are built from
    them on first use. Catalogs are equal when their lists are.
    """

    user_ids: list
    playlist_ids: list
    song_ids: list
    # `fingerprint()` as a split companion stores it, set only by the
    # companion's loader; "" when it is to be computed
    stored_fingerprint: str = field(default="", compare=False)

    @cached_property
    def users(self):
        return dict(zip(self.user_ids, count()))

    @cached_property
    def playlists(self):
        return dict(zip(self.playlist_ids, count()))

    @cached_property
    def songs(self):
        return dict(zip(self.song_ids, count(1)))

    @property
    def num_users(self):
        return len(self.user_ids)

    @property
    def num_playlists(self):
        return len(self.playlist_ids)

    @property
    def num_songs(self):
        return len(self.song_ids)

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

    def members(self, playlists, drop=0):
        """(B, max_members) train songs of the int array `playlists`, 0-padded,
        and (B,) counts: row i holds playlist i's train songs other than every
        copy of `drop[i]`, in list order; `drop` broadcasts as (B, 1). Song 0
        is in no train row, so the default drops none."""
        slots = np.arange(self.max_members)
        positions = self.offsets[playlists][:, None] + slots
        keep = positions < self.offsets[playlists + 1][:, None]
        rows = self.songs.take(positions, mode="clip")
        keep &= rows != np.asarray(drop)[..., None]
        counts = keep.sum(axis=1)
        members = np.zeros_like(rows)
        members[slots < counts[:, None]] = rows[keep]
        return members, counts

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
    list. Every entry is tested for every fault. No entry gives
    (None, "top level").
    """
    if not len(rows):
        return None, "top level"
    playlist, owner, dev, test, ends = rows.T
    counts = ends - np.append(0, ends[:-1])
    order = np.argsort(playlist, kind="stable")
    repeated = np.zeros(len(rows), dtype=bool)
    repeated[order[1:]] = playlist[order[1:]] == playlist[order[:-1]]

    def per_entry(mask):  # the entries with a train song in `mask`: the first ending past it
        faulty = np.zeros(len(rows), dtype=bool)
        faulty[np.searchsorted(ends, np.flatnonzero(mask), side="right")] = True
        return faulty

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


def read_interactions(path):
    """(users, playlists, songs): the three id columns of the TSV interaction
    file `path`, lists of str with one entry per non-empty line, in file order.

    The file is UTF-8, with or without a byte-order mark. A line ends at a
    line feed, a carriage return or both, as Python's universal newlines read
    them, and at no other character. Raises ValueError naming the file and
    the 1-based line, empty lines counted, of the first line that is not
    UTF-8 or does not hold three non-empty tab-separated fields, and for a
    file without a non-empty line.
    """
    with open(path, "rb") as f:
        data = f.read().removeprefix(codecs.BOM_UTF8)
    if b"\r" in data:  # neither byte is part of a multi-byte UTF-8 character
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}: line {lineno} is not UTF-8 text: {exc.reason}") from None
    rows = list(filter(None, text.split("\n")))
    fields = "\t".join(rows).split("\t")
    if list(map(str.count, rows, repeat("\t"))).count(2) < len(rows) or "" in fields:
        for lineno, line in enumerate(text.split("\n"), start=1):
            if line and (line.count("\t") != 2 or "" in line.split("\t")):
                raise ValueError(f"{path}: malformed line {lineno}: {line!r}")
    if not rows:
        raise ValueError(f"{path}: no interaction records found")
    return fields[0::3], fields[1::3], fields[2::3]


def _codes(ids):
    """(distinct ids in first-appearance order, int64 code of each id of `ids`
    in that order)."""
    table = {key: i for i, key in enumerate(dict.fromkeys(ids))}
    return list(table), np.fromiter(map(table.__getitem__, ids), np.int64, len(ids))


def index_interactions(users, playlists, songs, k=DEFAULT_K_CORE,
                       max_playlists_per_user=DEFAULT_MAX_PLAYLISTS_PER_USER,
                       max_songs_per_playlist=DEFAULT_MAX_SONGS_PER_PLAYLIST):
    """(Catalog, rows) of the interactions whose user, playlist and song ids
    are the equal-length sequences `users`, `playlists` and `songs`.

    Only the first row of each (playlist, song) pair is kept, with its user.
    Users with more than `max_playlists_per_user` playlists and playlists
    with more than `max_songs_per_playlist` songs, both counted over those
    rows, lose their rows; then every playlist left with fewer than k songs
    (a single k-core pass). The catalog numbers the ids of the rows left in
    first-appearance order, songs from 1. `rows` is their (3, n) int64
    user, playlist and song indices, in row order. Raises ValueError when no
    row is left.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    (user_ids, user), (playlist_ids, playlist), (song_ids, song) = map(
        _codes, (users, playlists, songs))
    first = np.unique(playlist * len(song_ids) + song, return_index=True)[1]
    first.sort()
    user, playlist, song = user[first], playlist[first], song[first]
    # each row is a distinct (playlist, song) pair, so a playlist's rows count its songs
    size = np.bincount(playlist, minlength=len(playlist_ids))
    # one user per distinct (user, playlist) pair, so a user's copies count its playlists
    pair_users = user[np.unique(user * len(playlist_ids) + playlist, return_index=True)[1]]
    per_user = np.bincount(pair_users, minlength=len(user_ids))
    keep = (per_user <= max_playlists_per_user)[user] & (size <= max_songs_per_playlist)[playlist]
    keep &= np.bincount(playlist[keep], minlength=len(playlist_ids))[playlist] >= k
    if not keep.any():
        raise ValueError("no playlists survive filtering")
    rows = np.vstack((user[keep], playlist[keep], song[keep]))
    return Catalog(*map(_renumber, (user_ids, playlist_ids, song_ids), rows, (0, 0, 1))), rows


def _renumber(ids, codes, start):
    """The ids of `ids` that the int array `codes` names, in first-appearance
    order; `codes` is rewritten to their positions in that list plus `start`."""
    first = np.full(len(ids), len(codes))
    np.minimum.at(first, codes, np.arange(len(codes)))
    present = np.flatnonzero(first < len(codes))
    present = present[np.argsort(first[present])]
    index = np.empty(len(ids), dtype=np.int64)
    index[present] = np.arange(start, start + len(present))
    codes[:] = index[codes]
    return list(map(ids.__getitem__, present.tolist()))


def leave_one_out(catalog, rows, seed):
    """The SplitDataset of `index_interactions`' `catalog` and `rows`: each
    playlist's songs in row order, owned by the user of its last row, less
    two held out by one `default_rng(seed)` stream: of a playlist of n songs,
    the test song, then the dev song, at the positions that
    `rng.choice(n, 2, replace=False)` picks, playlist by playlist in index
    order. One `rng.integers` call makes all of those draws, in the same
    order: per playlist, Floyd's a in [0, n - 2] and b in [0, n - 1] (n - 1
    when b == a), then c in [0, 1], which swaps the pair when 0.
    Raises ValueError naming the first playlist of fewer than 3 songs.
    """
    user, playlist, song = rows
    order = np.argsort(playlist, kind="stable")
    counts = np.bincount(playlist, minlength=catalog.num_playlists)
    if counts.min() < 3:
        p = int(np.argmax(counts < 3))
        raise ValueError(f"playlist {catalog.playlist_ids[p]} has only {counts[p]} songs; "
                         "need >= 3 to split")
    rng = np.random.default_rng(seed)
    starts = np.append(0, np.cumsum(counts))
    a, b, c = rng.integers(0, np.stack((counts - 2, counts - 1, np.ones_like(counts)), axis=1),
                           endpoint=True).T
    b[b == a] = counts[b == a] - 1
    swap = c == 0
    a[swap], b[swap] = b[swap], a[swap]
    held = starts[:-1, None] + np.stack((a, b), axis=1)
    song = song[order]
    test, dev = song[held[:, 0]], song[held[:, 1]]
    train = np.ones(len(song), dtype=bool)
    train[held] = False
    return SplitDataset(user[order[starts[1:] - 1]], dev, test,
                        starts - 2 * np.arange(len(starts)), song[train], int(counts.max()) - 2)


def songs_outside(full_set, num_songs):
    """Sorted int64 array of the songs 1..num_songs that are not in `full_set`,
    an int array or a collection of song indices (0, the padding, may be in it)."""
    keep = np.ones(num_songs + 1, dtype=bool)
    keep[0] = False
    keep[full_set if isinstance(full_set, np.ndarray) else list(full_set)] = False
    return np.flatnonzero(keep)


def negative_pools(split, num_songs):
    """(sizes, gaps) of each playlist's negative pool, the songs 1..V outside
    its full set e_0 < e_1 < ... (see `SplitDataset.full_sets`).

    g_i = e_i - i - 1 is the number of pool songs below e_i, and pool rank r
    (0-based) is song r + 1 + #{i : g_i <= r}. Row p of `gaps` holds p's
    g_i, padded with V to the longest full set and raised by p (V + 1), so
    that the table ascends as one flat array (see `pool_songs`).
    """
    offsets, full = split.full_sets(num_songs)
    full_sizes = np.diff(offsets)
    playlists = np.arange(len(full_sizes))
    gaps = np.full((len(playlists), full_sizes.max(initial=0)), num_songs, dtype=np.int64)
    # g_i = e_i - i - 1, i counted within each row
    gaps[np.arange(gaps.shape[1]) < full_sizes[:, None]] = (
        full - np.arange(len(full)) + np.repeat(offsets[:-1], full_sizes) - 1)
    gaps += (playlists * (num_songs + 1))[:, None]
    return num_songs - full_sizes, gaps


def pool_songs(gaps, num_songs, playlists, ranks):
    """(B, k) songs of the pool ranks `ranks`, row i's in the pool of playlist
    `playlists[i]`, whose raised `gaps` `negative_pools` gave: for rank r of
    playlist p, one `np.searchsorted` of r + p (V + 1) in the flat table
    counts the gaps at or below r, less p times the row length."""
    songs = np.searchsorted(gaps.ravel(), ranks + (playlists * (num_songs + 1))[:, None],
                            side="right")
    songs -= (playlists * gaps.shape[1] - 1)[:, None]
    songs += ranks
    return songs


def sample_negatives(pool_size, count, rng):
    """`count` distinct ranks of a pool of `pool_size` songs, drawn uniformly:
    `rng.choice(pool_size, count, replace=False)`. The songs of those ranks
    in the ascending pool are the songs `rng.choice` draws from the pool's
    array, bit for bit (see `pool_songs`)."""
    if pool_size < count:
        raise ValueError(f"candidate pool has {pool_size} songs, need {count}")
    return rng.choice(pool_size, size=count, replace=False)


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
    length of its bytes, and `crc32`, the CRC-32 of the header's JSON
    without that key followed by the payload; zeros up to an 8-byte
    boundary; the payload, the bytes of the array `payload`; and each
    source's bytes verbatim, in the sorted order of their keys. It holds no
    time stamp, so equal inputs give equal bytes. It is written in place: a
    reader refuses a file cut short by a crash or read mid-write by its
    CRC-32 or its copies, as it refuses any other damage.
    """
    header = dict(header, **{key: len(data) for key, data in sources.items()})
    head = _header_json(dict(header, crc32=zlib.crc32(payload, zlib.crc32(_header_json(header)))))
    with open(path, "wb") as f:
        f.write(ARENA_MAGIC + struct.pack("<Q", len(head)) + head + bytes(-len(head) % 8))
        f.write(payload)
        for key in sorted(sources):
            f.write(sources[key])


def _same_bytes(f, path, size, stored, chunk):
    """Whether the next `size` bytes of the open file `f` are the whole file
    `path`, compared through the bytearrays `stored` and `chunk`, of one
    length, a buffer's length at a time."""
    with open(path, "rb") as live:
        if os.fstat(live.fileno()).st_size != size:
            return False
        stored_view, chunk_view = memoryview(stored), memoryview(chunk)
        while size:
            n = f.readinto(stored_view[:min(size, len(stored))])
            if not n or live.readinto(chunk_view[:n]) != n or not stored.startswith(chunk_view[:n]):
                return False
            size -= n
    return True


def read_arena(path, sources, dtype, build):
    """`build(header, values)` for the arena file `path` (see `write_arena`),
    or None.

    `sources` maps each header key of a copy to the path of the live file it
    must equal. `values` is the payload, read straight into a flat, aligned
    and writable `dtype` array of its own.
    The result is None when a file cannot be read, the magic is not
    `ARENA_MAGIC`, the header does not parse, a stored copy is not exactly
    the bytes of its live file (the arena was written for other files), the
    CRC-32 does not match, or `build` returns None or raises one of the
    errors a header of another layout gives. Only the header and the
    payload are read whole. Nothing is written.
    """
    try:
        with open(path, "rb") as f:
            total = os.fstat(f.fileno()).st_size
            prefix = f.read(16)
            size, = struct.unpack_from("<Q", prefix, 8)
            if prefix[:8] != ARENA_MAGIC or size > total:  # read no more than the file
                return None
            header = orjson.loads(f.read(size))
            crc = header.pop("crc32")
            keys = sorted(sources)
            sizes = [header[key] for key in keys]
            start = 16 + size + -size % 8
            if not all(type(n) is int and n >= 0 for n in sizes) or total - sum(sizes) < start:
                return None
            f.seek(start)
            size = total - sum(sizes) - start
            values = np.empty(size // np.dtype(dtype).itemsize, dtype)
            # the CRC-32 reads the payload while it is still in cache from its read
            if (values.nbytes != size or f.readinto(values) != size
                    or crc != zlib.crc32(values, zlib.crc32(_header_json(header)))):
                return None
            # one pair of buffers for every copy, no longer than the longest copy
            buffers = [bytearray(min(max(sizes, default=0), _COPY_CHUNK)) for _ in range(2)]
            if not all(_same_bytes(f, sources[key], n, *buffers) for key, n in zip(keys, sizes)):
                return None
        return build(header, values)
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
    ids = []
    for key, first in (("users", 0), ("playlists", 0), ("songs", 1)):
        if key not in doc:
            raise ValueError(f"{path}: {key}: missing")
        _require_object(path, key, doc[key], "an id -> index map")
        ids.append(_ids_in_index_order(path, key, doc[key], first))
    catalog = Catalog(*ids)
    catalog.users, catalog.playlists, catalog.songs = doc["users"], doc["playlists"], doc["songs"]
    return catalog


def _ids_in_index_order(path, field_name, table, first):
    """The ids of the id -> index map `table` in index order; raises
    ValueError unless its n indices are the integers first..first + n - 1,
    each once."""
    indices = list(table.values())
    n, last = len(indices), first + len(indices) - 1
    # `type(...) is int` also refuses true and false, which compare as 1 and 0
    if (list(map(type, indices)).count(int) == n
            and min(indices, default=first) >= first and max(indices, default=last) <= last):
        position = np.full(n, -1)
        position[np.fromiter(indices, np.int64, n) - first] = np.arange(n)
        if position.min(initial=0) >= 0:  # n indices fill the n slots only when each is once
            return list(map(list(table).__getitem__, position.tolist()))
    raise ValueError(f"{path}: {field_name}: the indices must be the integers "
                     f"{first}..{last}, each once")


def _require_object(path, field_name, value, what):
    if not isinstance(value, dict):
        raise ValueError(f"{path}: {field_name}: {what} is a JSON object, "
                         f"this one is a {type(value).__name__}")


def save_split(split, catalog, path):
    """Split manifest keyed by external playlist id; returns the bytes written."""
    song_ids = catalog.song_ids
    owner, dev, test = (a.tolist() for a in (split.owner, split.dev, split.test))
    songs = list(map(song_ids.__getitem__, (split.songs - 1).tolist()))
    doc = {}
    for p, (a, b) in enumerate(pairwise(split.offsets.tolist())):
        if a < b:
            doc[catalog.playlist_ids[p]] = {
                "user": catalog.user_ids[owner[p]],
                "train": songs[a:b],
                "dev": song_ids[dev[p] - 1],
                "test": song_ids[test[p] - 1],
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

    Its header holds `catalog_json_size` and `split_json_size`, the
    catalog's `fingerprint()` as `catalog_fingerprint`, its id lists in
    index order as `user_ids`, `playlist_ids` and `song_ids`, and
    `entries`, the number of split.json entries. Its int64 payload holds
    one row per entry in playlist-index order (playlist, owner, dev song,
    test song, and the end offset of its train songs), then the split's
    train songs, one list after another. The copies of both files' bytes
    follow it.
    """
    playlists = np.flatnonzero(np.diff(split.offsets))  # those with an entry
    rows = np.column_stack([playlists, *(a[playlists] for a in (split.owner, split.dev, split.test)),
                            split.offsets[playlists + 1]])
    header = {"user_ids": catalog.user_ids, "playlist_ids": catalog.playlist_ids,
              "song_ids": catalog.song_ids, "catalog_fingerprint": catalog.fingerprint(),
              "entries": len(playlists)}
    write_arena(path, header, np.concatenate([rows.ravel(), split.songs], dtype="<i8"),
                {"catalog_json_size": catalog_data, "split_json_size": split_data})


def load_split_dir(split_dir):
    """(Catalog, SplitDataset) of the split directory `split_dir`: its
    catalog.json and split.json, read through `load_catalog` and `load_split`.

    When `split_dir` holds a split companion (see `save_split_arena`) whose
    magic, header and CRC-32 are intact, whose copies are byte for byte the
    two files, whose payload has the length its header implies, whose id
    lists each hold distinct strings, and which passes every check of
    `check_split`, the result is built from it without parsing either file,
    and the catalog keeps the companion's fingerprint. It then equals what
    the JSON gives. In every other case, a companion of an earlier layout
    included, the JSON is parsed, with its own errors. Nothing is written.
    """
    catalog_path = os.path.join(split_dir, "catalog.json")
    split_path = os.path.join(split_dir, "split.json")
    loaded = read_arena(os.path.join(split_dir, SPLIT_ARENA),
                        {"catalog_json_size": catalog_path, "split_json_size": split_path},
                        "<i8", _split_from_arena)
    if loaded:
        return loaded
    catalog = load_catalog(catalog_path)
    return catalog, load_split(split_path, catalog)


def _split_from_arena(header, values):
    """(Catalog, SplitDataset) from a split companion's header and payload
    `values`, or None unless its id lists hold distinct strings (as the keys
    of catalog.json do) and its rows pass `check_split`."""
    ids = [header[key] for key in ("user_ids", "playlist_ids", "song_ids")]
    n, fingerprint = header["entries"], header["catalog_fingerprint"]
    if (type(n) is not int or n < 0 or type(fingerprint) is not str
            or not all(type(key_ids) is list for key_ids in ids)):
        return None
    for key_ids in ids:
        "".join(key_ids)  # raises TypeError, which refuses the companion, for a non-string id
        if len(set(key_ids)) != len(key_ids):  # an id given twice
            return None
    rows, songs = values[:5 * n].reshape(n, 5), values[5 * n:]
    ends = rows[:, 4]
    # the offsets are compared, not subtracted, so a count that wraps around
    # int64 is never used
    if (n and (np.any(ends < np.append(0, ends[:-1])) or ends[-1] != len(songs))
            or check_split(rows, songs, *map(len, ids))):
        return None
    catalog = Catalog(*ids, stored_fingerprint=fingerprint)
    return catalog, split_from_rows(rows, songs, catalog.num_playlists)


def prepare(input_path, out_dir, k=DEFAULT_K_CORE, seed=0,
            max_playlists_per_user=DEFAULT_MAX_PLAYLISTS_PER_USER,
            max_songs_per_playlist=DEFAULT_MAX_SONGS_PER_PLAYLIST):
    """Full pipeline: load, cap, filter, index, split, write the manifests
    and their split companion."""
    catalog, rows = index_interactions(*read_interactions(input_path), k,
                                       max_playlists_per_user, max_songs_per_playlist)
    split = leave_one_out(catalog, rows, seed)
    os.makedirs(out_dir, exist_ok=True)
    catalog_data = save_catalog(catalog, os.path.join(out_dir, "catalog.json"))
    split_data = save_split(split, catalog, os.path.join(out_dir, "split.json"))
    save_split_arena(catalog, split, catalog_data, split_data,
                     os.path.join(out_dir, SPLIT_ARENA))
    return catalog, split
