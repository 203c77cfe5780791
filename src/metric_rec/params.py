"""Parameter containers, initialization, and checkpoint I/O.

All trainable state lives in a flat name -> float64 ndarray mapping so the
optimizer, perturbation machinery, and checkpointing stay generic. Song
tables (S, S_a, theta, song_bias) carry a reserved padding row at index 0
that is kept at zero and never receives gradient updates.
"""

import json
from dataclasses import dataclass, field, replace

import numpy as np

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
    tensors: dict = field(default_factory=dict)

    def copy(self):
        return replace(self, tensors={k: v.copy() for k, v in self.tensors.items()})

    def zero_like(self):
        """Shape-matched dict of zero arrays, one per tensor."""
        return {k: np.zeros_like(v) for k, v in self.tensors.items()}

    def check_finite(self):
        for name, t in self.tensors.items():
            if not np.all(np.isfinite(t)):
                raise FloatingPointError(f"non-finite values in tensor {name}")

    def zero_padding_rows(self, target=None):
        """Zero the frozen padding rows, in-place, on `target` (default: own tensors)."""
        tensors = self.tensors if target is None else target
        for name in PADDED_TABLES:
            if name in tensors:
                tensors[name][0] = 0.0


def _embed(rng, rows, dim):
    return rng.normal(0.0, EMBED_INIT_STD, size=(rows, dim))


def init_mdr(m, n, v, d, rng, variant="ups", use_bias=True):
    """Fresh MDR parameter set. Metric vectors start at ones (Euclidean)."""
    if variant not in MDR_VARIANTS:
        raise ValueError(f"unknown mdr variant: {variant}")
    p = ModelParams(
        kind="mdr", variant=variant, dim=d,
        num_users=m, num_playlists=n, num_songs=v, use_bias=use_bias,
    )
    t = p.tensors
    t["S"] = _embed(rng, v + 1, d)
    if variant in ("us", "ups"):
        t["U"] = _embed(rng, m, d)
        t["B1"] = np.ones(d)
    if variant in ("ps", "ups"):
        t["P"] = _embed(rng, n, d)
        t["B2"] = np.ones(d)
    if use_bias:
        t["theta"] = np.zeros(v + 1)
    p.zero_padding_rows()
    return p


def init_mass(m, n, v, d, rng, variant="us", attention="mem_metric", use_bias=True):
    """Fresh MASS parameter set for the given variant and attention kind."""
    if variant not in MASS_VARIANTS:
        raise ValueError(f"unknown mass variant: {variant}")
    if attention not in ATTENTION_KINDS:
        raise ValueError(f"unknown attention kind: {attention}")
    p = ModelParams(
        kind="mass", variant=variant, dim=d,
        num_users=m, num_playlists=n, num_songs=v,
        attention=attention, use_bias=use_bias,
    )
    # query concatenates 2 embeddings (us: user+song, ps: playlist+song)
    # or 3 for ups (user+playlist+song)
    width = 3 * d if variant == "ups" else 2 * d
    t = p.tensors
    t["S"] = _embed(rng, v + 1, d)
    if variant in ("us", "ups"):
        t["U"] = _embed(rng, m, d)
    if variant in ("ps", "ups"):
        t["P"] = _embed(rng, n, d)
    t["W1"] = _embed(rng, width, d)
    t["b1"] = np.zeros(d)
    t["B3"] = np.ones(d)
    if attention.startswith("mem"):
        t["S_a"] = _embed(rng, v + 1, d)
        if variant in ("us", "ups"):
            t["U_a"] = _embed(rng, m, d)
        if variant in ("ps", "ups"):
            t["P_a"] = _embed(rng, n, d)
        t["W2"] = _embed(rng, width, d)
        t["b2"] = np.zeros(d)
    if attention.endswith("metric"):
        t["B4"] = np.ones(d)
    if use_bias:
        t["song_bias"] = np.zeros(v + 1)
    p.zero_padding_rows()
    return p


def save_checkpoint(params, path, hyperparams=None, seed=0):
    """Write a self-describing JSON checkpoint (sorted keys, UTF-8)."""
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
        },
        "hyperparams": dict(hyperparams or {}),
        "seed": int(seed),
        "tensors": {
            name: {"shape": list(t.shape), "values": t.ravel().tolist()}
            for name, t in params.tensors.items()
        },
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, sort_keys=True)
        f.write("\n")


def load_checkpoint(path):
    """Read a checkpoint; returns (ModelParams, hyperparams, seed)."""
    with open(path, encoding="utf-8") as f:
        return checkpoint_from_doc(json.load(f), path)


def checkpoint_from_doc(doc, path):
    """`load_checkpoint` of a document already parsed from `path`.

    Model keys not read here are ignored, so checkpoints carrying keys that
    older versions wrote still load.
    """
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a model checkpoint: {path}")
    m = doc["model"]
    params = ModelParams(
        kind=m["kind"], variant=m["variant"], dim=m["dim"],
        num_users=m["num_users"], num_playlists=m["num_playlists"],
        num_songs=m["num_songs"], attention=m.get("attention", ""),
        use_bias=m.get("use_bias", True),
    )
    for name, spec in doc["tensors"].items():
        arr = np.array(spec["values"], dtype=np.float64).reshape(spec["shape"])
        params.tensors[name] = arr
    return params, doc.get("hyperparams", {}), doc.get("seed", 0)
