"""Parameter containers, initialization, and checkpoint I/O.

All trainable state lives in an `Arena`: a name -> float64 ndarray mapping
whose arrays are views into one contiguous buffer. Code that reads one
tensor indexes it by name; the optimizer, the perturbation machinery and
copies work on the whole buffer. Gradients, Adam's moments and the
adversarial perturbation use the same layout. Song tables (S, S_a, theta,
song_bias) carry a reserved padding row at index 0 that is kept at zero and
never receives gradient updates.
"""

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .dataset import parse_json, read_arena, write_arena, write_json

# Tensors subject to L2 regularization: embedding tables and metric vectors.
# Song-bias tables and the query affine maps are left unregularized.
REGULARIZED = {"U", "P", "S", "U_a", "P_a", "S_a", "B1", "B2", "B3", "B4"}

# Tables whose row 0 is the frozen song-padding slot.
PADDED_TABLES = {"S", "S_a", "theta", "song_bias"}

EMBED_INIT_STD = 0.01

MDR_VARIANTS = ("us", "ps", "ups")
MASS_VARIANTS = ("us", "ps", "ups")
ATTENTION_KINDS = ("mem_metric", "mem_dot", "nonmem_metric", "nonmem_dot")

CHECKPOINT_FORMAT = "metric-rec-checkpoint-v1"


class Arena(dict):
    """Tensor name -> float64 array, each array a view into `flat`, one
    contiguous buffer holding the tensors in insertion order.

    Assigning an array to a tensor writes it into that tensor's view, so the
    buffer stays whole; a name the arena does not hold raises KeyError and
    an array of another shape raises ValueError. Other dict mutators
    (`update`, `pop`, ...) bypass the buffer; do not use them.
    """

    def __init__(self, shapes, flat=None):
        """The tensors of the name -> shape map `shapes` over `flat`, a flat
        float64 array of exactly their values (default: zeros)."""
        super().__init__()
        self.layout = tuple((name, tuple(shape)) for name, shape in shapes.items())
        sizes = [math.prod(shape) for _, shape in self.layout]
        self.flat = np.zeros(sum(sizes)) if flat is None else flat
        if self.flat.size != sum(sizes):
            raise ValueError(f"the tensors hold {sum(sizes)} values, the buffer {self.flat.size}")
        offset = 0
        for (name, shape), size in zip(self.layout, sizes):
            super().__setitem__(name, self.flat[offset:offset + size].reshape(shape))
            offset += size

    def __setitem__(self, name, value):
        view = self[name]
        if np.shape(value) != view.shape:
            raise ValueError(f"tensor {name} has shape {view.shape}, "
                             f"cannot assign an array of shape {np.shape(value)}")
        view[...] = value

    def like(self, flat=None):
        """An arena of the same layout over `flat` (default: zeros)."""
        return Arena(dict(self.layout), flat)

    def copy(self):
        return self.like(self.flat.copy())


@dataclass
class ModelParams:
    """Named parameter set of one model variant."""

    kind: str                 # "mdr" or "mass"
    variant: str              # "us" | "ps" | "ups"
    dim: int
    num_users: int
    num_playlists: int
    num_songs: int            # real songs; song tables have num_songs + 1 rows
    attention: str = ""       # mass only
    use_bias: bool = True
    catalog_sha256: str = ""  # `Catalog.fingerprint()` of the tables' catalog; "" if unknown
    tensors: dict = field(default_factory=dict)  # an `Arena` once initialized or loaded

    def copy(self):
        return replace(self, tensors=self.tensors.copy())

    def zero_like(self):
        """An arena of zeros in the tensors' layout."""
        return self.tensors.like()

    def check_finite(self):
        # a NaN or inf anywhere makes the sum of squares non-finite (squares
        # cannot cancel), so the element-wise check runs only then, or when
        # the squares overflow. One BLAS dot reads the arena faster than
        # np.isfinite(...).all() or .sum() (76K values on a 2-vCPU x86-64
        # host, one BLAS thread: 17, 35 and 50 us).
        flat = self.tensors.flat
        with np.errstate(over="ignore", invalid="ignore"):
            if np.isfinite(flat @ flat):
                return
        if not np.isfinite(flat).all():
            name = next(n for n, t in self.tensors.items() if not np.isfinite(t).all())
            raise FloatingPointError(f"non-finite values in tensor {name}")

    def zero_padding_rows(self, target=None):
        """Zero the frozen padding rows, in-place, on `target` (default: own tensors)."""
        tensors = self.tensors if target is None else target
        for name in PADDED_TABLES:
            if name in tensors:
                tensors[name][0] = 0.0


def _check_header(p, where=""):
    """Reject a model kind, variant or attention kind this package does not know;
    `where` prefixes the message."""
    if (p.kind not in ("mdr", "mass")
            or p.variant not in (MDR_VARIANTS if p.kind == "mdr" else MASS_VARIANTS)
            or p.kind == "mass" and p.attention not in ATTENTION_KINDS):
        raise ValueError(f"{where}unknown model kind, variant or attention: "
                         f"{p.kind!r}, {p.variant!r}, {p.attention!r}")


def tensor_shapes(p):
    """name -> shape of every tensor a model with `p`'s header holds, in init order."""
    d, v1 = p.dim, p.num_songs + 1
    users, playlists = p.variant in ("us", "ups"), p.variant in ("ps", "ups")
    shapes = {"S": (v1, d)}
    if p.kind == "mdr":
        if users:
            shapes.update(U=(p.num_users, d), B1=(d,))
        if playlists:
            shapes.update(P=(p.num_playlists, d), B2=(d,))
        if p.use_bias:
            shapes["theta"] = (v1,)
        return shapes
    # the query concatenates the user and/or playlist embedding and the song's
    width = (1 + users + playlists) * d
    if users:
        shapes["U"] = (p.num_users, d)
    if playlists:
        shapes["P"] = (p.num_playlists, d)
    shapes.update(W1=(width, d), b1=(d,), B3=(d,))
    if p.attention.startswith("mem"):
        shapes["S_a"] = (v1, d)
        if users:
            shapes["U_a"] = (p.num_users, d)
        if playlists:
            shapes["P_a"] = (p.num_playlists, d)
        shapes.update(W2=(width, d), b2=(d,))
    if p.attention.endswith("metric"):
        shapes["B4"] = (d,)
    if p.use_bias:
        shapes["song_bias"] = (v1,)
    return shapes


def _init(p, rng):
    """Fill `p.tensors`: metric vectors at ones (Euclidean), biases at zeros,
    embeddings and query weights drawn from N(0, EMBED_INIT_STD^2) in init order."""
    _check_header(p)
    p.tensors = Arena(tensor_shapes(p))
    for name, t in p.tensors.items():
        if name in ("B1", "B2", "B3", "B4"):
            t.fill(1.0)
        elif name not in ("theta", "song_bias", "b1", "b2"):
            t[...] = rng.normal(0.0, EMBED_INIT_STD, size=t.shape)
    p.zero_padding_rows()
    return p


def init_mdr(m, n, v, d, rng, variant="ups", use_bias=True):
    """Fresh MDR parameter set."""
    return _init(ModelParams(
        kind="mdr", variant=variant, dim=d,
        num_users=m, num_playlists=n, num_songs=v, use_bias=use_bias,
    ), rng)


def init_mass(m, n, v, d, rng, variant="us", attention="mem_metric", use_bias=True):
    """Fresh MASS parameter set for the given variant and attention kind."""
    return _init(ModelParams(
        kind="mass", variant=variant, dim=d,
        num_users=m, num_playlists=n, num_songs=v,
        attention=attention, use_bias=use_bias,
    ), rng)


def save_checkpoint(params, path, hyperparams=None, seed=0):
    """Write a self-describing JSON checkpoint (sorted keys, UTF-8) and its arena file.

    The arena file, `<path>.arena`, is derived data for `load_checkpoint`
    in the layout of `dataset.write_arena`: its header holds the document
    without its tensor values, plus `json_size`, the length of the JSON's
    bytes; its payload the parameter arena's own buffer, every tensor's
    values as little-endian float64 in the `tensor_shapes` order in which
    `_init` and `checkpoint_from_doc` lay the arena out; then a copy of the
    JSON's bytes, which ties the file to that JSON. Equal checkpoints give
    equal bytes.
    """
    doc = {
        "format": CHECKPOINT_FORMAT,
        "model": {
            "kind": params.kind,
            "variant": params.variant,
            "attention": params.attention,
            "dim": params.dim,
            "num_users": params.num_users,
            "num_playlists": params.num_playlists,
            "num_songs": params.num_songs,
            "use_bias": params.use_bias,
            "catalog_sha256": params.catalog_sha256,
        },
        "hyperparams": dict(hyperparams or {}),
        "seed": int(seed),
        "tensors": {
            name: {"shape": list(t.shape), "values": t.ravel()}
            for name, t in params.tensors.items()
        },
    }
    data = write_json(doc, path)
    header = dict(doc, tensors={name: {"shape": spec["shape"]}
                                for name, spec in doc["tensors"].items()})
    write_arena(os.fspath(path) + ".arena", header, np.asarray(params.tensors.flat, dtype="<f8"),
                {"json_size": data})


def load_checkpoint(path):
    """Read a checkpoint; returns (ModelParams, hyperparams, seed)."""
    loaded, doc = read_checkpoint(path)
    return loaded or checkpoint_from_doc(doc, path)


def read_checkpoint(path):
    """(loaded, doc) for the JSON file at `path`, exactly one of them None.

    When `path` has an arena file (see `save_checkpoint`) whose magic, header
    and CRC-32 are intact, whose copy of the JSON is byte for byte the file
    at `path`, whose payload holds as many values as the header's model
    implies, and which passes every check of `checkpoint_from_doc`, `loaded`
    is that function's result, taken from the payload without parsing the
    JSON. In every other case (no arena file, a stale or damaged one) `doc`
    is the parsed JSON, which may hold something other than a checkpoint.
    The JSON is the one source of truth; the arena file only saves its
    parse. Nothing is written.
    """
    loaded = read_arena(os.fspath(path) + ".arena", {"json_size": path}, "<f8",
                        lambda header, values: _checkpoint_from_arena(header, values, path))
    if loaded:
        return loaded, None
    with open(path, "rb") as f:  # the JSON decides, with its own message if it fails too
        return None, parse_json(f.read(), path)


def _checkpoint_from_arena(header, values, path):
    """`checkpoint_from_doc`'s result for an arena file's `header`, whose
    tensors hold their shapes and no values, and its float64 payload
    `values`, which becomes the parameter arena's buffer: every tensor is a
    view of it. None when a value is not finite. Raises ValueError where
    `checkpoint_from_doc` would for the header, and unless `values` holds
    exactly the values the header implies."""
    params, shapes = _header_params(header, path)
    for name, spec in header["tensors"].items():
        _check_tensor_spec(path, name, spec, shapes[name], keys=("shape",))
    params.tensors = Arena(shapes, values)
    try:
        params.check_finite()
    except FloatingPointError:
        return None
    return params, header.get("hyperparams", {}), header.get("seed", 0)


def _check_tensor_spec(path, name, spec, shape, keys=("shape", "values")):
    """Refuse a tensor entry that is not an object holding each of `keys`: a
    `shape` list of the integers `shape`, and a `values` list of as many
    values as `shape` implies."""
    if not isinstance(spec, dict):
        raise ValueError(f"{path}: tensors.{name}: a tensor is a JSON object, "
                         f"this one is a {type(spec).__name__}")
    for key in keys:
        if key not in spec:
            raise ValueError(f"{path}: tensors.{name}.{key}: missing")
        if not isinstance(spec[key], list):
            raise ValueError(f"{path}: tensors.{name}.{key}: must be a JSON array, "
                             f"got {type(spec[key]).__name__}")
    if not all(type(n) is int for n in spec["shape"]):
        raise ValueError(f"{path}: tensors.{name}.shape: must be integers only, "
                         f"got {spec['shape']!r}")
    size = len(spec["values"]) if "values" in keys else math.prod(shape)
    if tuple(spec["shape"]) != shape or size != math.prod(shape):
        raise ValueError(f"{path}: tensor {name} has shape {spec['shape']} and "
                         f"{size} values, the header implies {list(shape)}")


def checkpoint_from_doc(doc, path):
    """`load_checkpoint` of a document already parsed from `path`.

    Model keys not read here are ignored, so checkpoints carrying keys that
    older versions wrote still load. The tensors must be exactly those the
    header's kind, variant, attention and bias imply, each an object with a
    `shape` list of integers and a flat `values` list of numbers (not
    booleans), with the shapes its sizes imply and finite values; otherwise
    this raises ValueError naming the file and the field.
    """
    params, shapes = _header_params(doc, path)
    params.tensors = Arena(shapes)
    for name, spec in doc["tensors"].items():
        _check_tensor_spec(path, name, spec, shapes[name])
        values, view = spec["values"], params.tensors[name]
        # the flat list is converted straight into the arena, with no copy between
        flat = view.reshape(-1)
        try:
            flat[...] = values
        except (TypeError, ValueError):
            raise ValueError(f"{path}: tensors.{name}.values: must be numbers only") from None
        except OverflowError:  # an integer beyond the float64 range
            raise ValueError(f"{path}: tensors.{name}.values: holds a number beyond "
                             f"the float64 range") from None
        # JSON true and false convert to 1.0 and 0.0, so only the positions
        # holding those values are looked up in the list, not every value
        bools = np.flatnonzero((flat == 0) | (flat == 1))
        for i in bools:
            if type(values[i]) is bool:
                raise ValueError(f"{path}: tensors.{name}.values: must be numbers only, "
                                 f"got {values[i]!r} at position {i}")
        if not np.isfinite(view).all():
            raise ValueError(f"{path}: tensor {name} holds a non-finite value")
    return params, doc.get("hyperparams", {}), doc.get("seed", 0)


def _header_params(doc, path):
    """(ModelParams without tensors, name -> shape of the tensors it implies)
    of the checkpoint document `doc`, read from `path`; raises ValueError as
    `checkpoint_from_doc` does for its header and the names of its tensors."""
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top level: a checkpoint is a JSON object, "
                         f"this file holds a {type(doc).__name__}")
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a model checkpoint: {path}")
    m = doc.get("model")
    if not isinstance(m, dict):
        raise ValueError(f"{path}: model: missing, or not a JSON object")
    for key in ("kind", "variant", "dim", "num_users", "num_playlists", "num_songs"):
        if key not in m:
            raise ValueError(f"{path}: model.{key}: missing from the header")
    for key in ("dim", "num_users", "num_playlists", "num_songs"):
        if isinstance(m[key], bool) or not isinstance(m[key], int) or m[key] < 1:
            raise ValueError(f"{path}: model.{key}: must be a positive integer, got {m[key]!r}")
    for key, kind, what in (("attention", str, "a string"), ("use_bias", bool, "true or false"),
                            ("catalog_sha256", str, "a string")):
        if key in m and not isinstance(m[key], kind):
            raise ValueError(f"{path}: model.{key}: must be {what}, got {m[key]!r}")
    if not isinstance(doc.get("tensors"), dict):
        raise ValueError(f"{path}: tensors: missing, or not a JSON object")
    params = ModelParams(
        kind=m["kind"], variant=m["variant"], dim=m["dim"],
        num_users=m["num_users"], num_playlists=m["num_playlists"],
        num_songs=m["num_songs"], attention=m.get("attention", ""),
        use_bias=m.get("use_bias", True), catalog_sha256=m.get("catalog_sha256", ""),
    )
    _check_header(params, f"{path}: model: ")
    shapes = tensor_shapes(params)
    if set(doc["tensors"]) != set(shapes):
        raise ValueError(f"{path}: tensors {sorted(doc['tensors'])} do not match the "
                         f"{sorted(shapes)} its header implies")
    return params, shapes
