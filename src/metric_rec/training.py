"""Pairwise ranking optimization with analytic gradients and Adam.

Training iterates (user, playlist, positive song) instances; each positive
draws a handful of uniform negative songs, and the loss pushes every
positive to score lower (closer) than its negatives through a logistic
pairwise term plus L2 regularization of the embedding and metric tensors.

The adversarial phase alternates, per minibatch, a fast-gradient update of
a norm-bounded perturbation that maximizes the pairwise loss with the
parameters frozen, and a parameter step that minimizes the plain loss plus
the perturbed loss. The perturbation bound per tensor is epsilon times
that tensor's elementwise standard deviation, and perturbations are never
applied at evaluation time.

Whoever holds a piece of state passes it down: the CLI builds the training
instances and dev lists once for both phases, and `train` allocates once
per call the gradient, perturbation and scratch arenas every step writes.
"""

import contextlib
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from . import models
from .dataset import SplitDataset, negative_pools, pool_songs
from .evaluation import evaluate
from .models import ScoreBatch
from .params import REGULARIZED, Arena

LEARNING_RATES = (1e-3, 1e-4)
LAMBDA_THETAS = (0.0, 1e-1, 1e-2, 1e-3, 1e-4)
EMBED_SIZES = (8, 16, 32, 64)
EPSILONS = (0.5, 1.0)
MAX_EPOCHS = 50

# Adam's step makes about a dozen passes over its buffers. On blocks of 32K
# float64 (256 KB) they stay in cache; over a whole arena of several MB each
# pass streams from memory again (at V = 20,000, d = 32 on a 2-vCPU x86-64
# host: 12 ms per step in blocks, 20 ms in one piece, 18 ms per tensor; a
# `train --apr` there spent 7.1 s in its epochs in blocks, 9.2 s in one piece).
ADAM_BLOCK = 1 << 15


@dataclass
class Hyperparams:
    learning_rate: float = 1e-3
    lambda_theta: float = 0.0
    d: int = 16
    epochs: int = 50
    batch_size: int = 256
    negatives_per_positive: int = 4
    epsilon: float = 0.5
    lambda_delta: float = 1.0
    seed: int = 0

    def validate(self):
        """Check values against the supported grid (CLI-facing contract)."""
        if self.learning_rate not in LEARNING_RATES:
            raise ValueError(f"learning_rate must be one of {LEARNING_RATES}")
        if self.lambda_theta not in LAMBDA_THETAS:
            raise ValueError(f"lambda_theta must be one of {LAMBDA_THETAS}")
        if self.d not in EMBED_SIZES:
            raise ValueError(f"d must be one of {EMBED_SIZES}")
        if not 0 <= self.epochs <= MAX_EPOCHS:
            raise ValueError(f"epochs must be in [0, {MAX_EPOCHS}]")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        if self.negatives_per_positive < 1:
            raise ValueError("negatives_per_positive must be positive")
        if self.epsilon not in EPSILONS:
            raise ValueError(f"epsilon must be one of {EPSILONS}")
        if not 0 <= self.lambda_delta < float("inf"):  # refuses nan too
            raise ValueError("lambda_delta must be finite and nonnegative")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must be in [0, 2**64 - 1]")


@dataclass
class TrainData:
    """Flattened training instances plus each playlist's negative pool.

    Instance i is song i of the split's flat train songs, `split.songs[i]`,
    in playlist `playlists[i]`, owned by `split.owner[playlists[i]]`; a
    minibatch gathers its members from the split's rows (see `_make_batch`).
    Playlist p's pool is the songs 1..V outside its full set, mapped from
    pool ranks through `gaps` (see `dataset.negative_pools`).
    """

    split: SplitDataset
    playlists: np.ndarray
    pool_sizes: np.ndarray  # (num_playlists,) songs outside each playlist's full set
    gaps: np.ndarray        # (num_playlists, longest full set) int64, raised rows
    num_songs: int          # V

    def __len__(self):
        return len(self.split.songs)


def build_train_data(split, num_songs):
    """One instance per (playlist, train song), in the split's train order."""
    pool_sizes, gaps = negative_pools(split, num_songs)
    return TrainData(
        split=split,
        playlists=np.repeat(np.arange(len(pool_sizes)), np.diff(split.offsets)),
        pool_sizes=pool_sizes,
        gaps=gaps,
        num_songs=num_songs,
    )


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def gradients(params, batch, lambda_theta=0.0, loss_scale=1.0, *, out):
    """Exact minibatch gradients for every trainable tensor.

    `batch.songs` is (B, 1 + k): each row's positive, then its negatives.
    `out`, the caller's arena from `params.zero_like()`, is zeroed and
    receives the gradients; padding rows are exactly zero. Returns
    (loss, out).
    """
    scores, cache = models.forward(params, batch)

    x = scores[:, 1:] - scores[:, :1]
    loss = float(np.sum(np.logaddexp(0.0, -x)))
    # d/dx of -log sigmoid(x)
    dx = _sigmoid(x) - 1.0
    dscores = np.empty_like(scores)
    dscores[:, 1:] = loss_scale * dx
    dscores[:, 0] = -loss_scale * dx.sum(axis=1)

    out.flat.fill(0.0)
    models.backward(params, batch, cache, dscores, out)

    if lambda_theta:
        for name, t in params.tensors.items():
            if name in REGULARIZED:
                loss += lambda_theta * float(np.sum(t * t))
                out[name] += loss_scale * 2.0 * lambda_theta * t
        params.zero_padding_rows(out)
    return loss_scale * loss, out


@dataclass
class AdamState:
    """Step count and moment estimates, flat in the layout of the parameters'
    arena, plus two buffers of up to one block for the step's intermediates."""

    m: np.ndarray = None  # m, v and scratch: allocated by the first step
    v: np.ndarray = None
    scratch: np.ndarray = None
    t: int = 0


def adam_update(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Standard bias-corrected Adam step, in place over the parameter arena,
    one ADAM_BLOCK of it at a time.

    Each element follows the per-tensor formula, in the same order of
    operations: m = beta1 m + (1 - beta1) g, v = beta2 v + (1 - beta2) g g,
    theta -= lr (m / c1) / (sqrt(v / c2) + eps).
    """
    if not isinstance(grads, Arena) or grads.layout != params.tensors.layout:
        raise ValueError("gradients must be an arena in the layout of the parameters")
    theta, g = params.tensors.flat, grads.flat
    if state.m is None:
        state.m, state.v = np.zeros_like(theta), np.zeros_like(theta)
        state.scratch = np.empty((2, min(ADAM_BLOCK, theta.size)))
    state.t += 1
    c1, c2 = 1.0 - beta1 ** state.t, 1.0 - beta2 ** state.t
    for start in range(0, theta.size, ADAM_BLOCK):
        block = slice(start, start + ADAM_BLOCK)
        m, v, gb = state.m[block], state.v[block], g[block]
        step, denom = (s[:m.size] for s in state.scratch)
        m *= beta1
        m += np.multiply(gb, 1.0 - beta1, out=step)
        v *= beta2
        np.multiply(gb, 1.0 - beta2, out=step)
        step *= gb
        v += step
        np.divide(v, c2, out=denom)
        np.sqrt(denom, out=denom)
        denom += eps
        np.divide(m, c1, out=step)
        step *= lr
        step /= denom
        theta[block] -= step
    params.zero_padding_rows()


def _perturbed(params, delta, work):
    """Fill `work` (a copy of `params`) with params + delta, as one add."""
    np.add(params.tensors.flat, delta.flat, out=work.tensors.flat)
    return work


def adversarial_delta(params, batch, epsilon, delta, work):
    """Fast-gradient perturbation: per tensor, epsilon * std * unit gradient.

    The gradient of the pairwise loss is taken at params + delta with the
    parameters treated as constants. Tensors with zero gradient (or zero
    spread) keep a zero perturbation. The caller owns both buffers: `delta`,
    an arena from `params.zero_like()` holding the current perturbation, is
    overwritten with the new one and returned; `work`, a copy of `params`,
    is scratch: it receives params + delta, then the deviations from each
    tensor's mean.

    Both reductions are taken on each tensor's flat view without BLAS, so
    their bits do not depend on its thread count: the norm is an einsum sum
    of squares, and the spread is `np.std`'s own reduction, with its bits (a
    sum, a subtract and a square, and a sum). The wrappers cost more than
    the arithmetic at these sizes.
    """
    gradients(_perturbed(params, delta, work), batch, lambda_theta=0.0, out=delta)
    for name, g in delta.items():
        g, t, dev = (a.reshape(-1) for a in (g, params.tensors[name], work.tensors[name]))
        norm = math.sqrt(np.einsum("i,i->", g, g))
        np.subtract(t, np.add.reduce(t) / t.size, out=dev)
        np.multiply(dev, dev, out=dev)
        std = math.sqrt(np.add.reduce(dev) / t.size)
        if norm == 0.0 or std == 0.0:
            g.fill(0.0)
        else:
            g *= epsilon * std / norm
    return delta


@dataclass
class TrainResult:
    params: object
    best_epoch: int = -1
    best_dev_hit10: float = -1.0


def draw_negatives(data, playlists, k, rng):
    """(B, k) negatives: row i is a uniform ordered draw of k distinct songs from
    the pool of playlist `playlists[i]` of `data`, a `TrainData`.

    It samples what `rng.choice(pool, k, replace=False)` samples, in k vectorised
    steps: draw j takes a uniform rank among the n - j ranks not yet drawn and
    steps it past each drawn rank at or below it, taken in ascending order. One
    `rng.integers` call draws all k raw ranks, draw j's B ranks after draw
    j - 1's, which reads the stream as k calls of B draws each would.
    """
    raw = rng.integers(0, data.pool_sizes[playlists] - np.arange(k)[:, None])
    ranks = np.empty((len(playlists), k), dtype=np.int64)
    for j, r in enumerate(raw):
        for e in np.sort(ranks[:, :j], axis=1).T:
            r += r >= e
        ranks[:, j] = r
    return pool_songs(data.gaps, data.num_songs, playlists, ranks)


def _make_batch(idx, data, k, rng, members=True):
    """Instances `idx` as contexts scoring [pos, neg_1..neg_k], with k negatives
    per row, and with their members and counts when `members` is true (MASS):
    each context's train songs without any copy of its positive."""
    playlists = data.playlists[idx]
    songs = np.empty((len(idx), 1 + k), dtype=np.int64)
    songs[:, 0] = data.split.songs[idx]
    songs[:, 1:] = draw_negatives(data, playlists, k, rng)
    batch = ScoreBatch(users=data.split.owner[playlists], playlists=playlists, songs=songs)
    if members:
        batch.members, batch.counts = data.split.members(playlists, songs[:, 0])
    return batch


def train(params, data, dev, hyper, mode="bpr", log_path=None, loss_scale=1.0, rng=None):
    """Train `params` in place on `data` (from `build_train_data`).

    mode="bpr" minimizes the pairwise loss. mode="apr" alternates the
    fast-gradient perturbation update and the robust parameter update,
    starting from the given (pretrained) parameters. With `dev`, the
    `held_out` dev lists, the result keeps a copy of the parameters of the
    best epoch by dev hit@10; with `dev=None` it holds `params` itself.
    An overflow or invalid value in a step raises FloatingPointError naming
    the mode and epoch, as does a loss that is not finite.
    """
    if rng is None:
        rng = np.random.default_rng(hyper.seed)
    k = hyper.negatives_per_positive
    smallest = int(data.pool_sizes[data.playlists].min()) if len(data) else k
    if k > smallest:
        raise ValueError(
            f"negatives_per_positive = {k} exceeds the smallest negative pool "
            f"({smallest} songs outside a playlist)"
        )
    state = AdamState()
    # gradient, perturbation and scratch buffers, reused by every minibatch
    grads = params.zero_like()
    if mode == "apr":
        adv_grads, delta, work = params.zero_like(), params.zero_like(), params.copy()
    result = TrainResult(params=params)
    log = open(log_path, "w", encoding="utf-8") if log_path else contextlib.nullcontext()

    try:
        with log as log_file, np.errstate(over="raise", invalid="raise"):
            for epoch in range(hyper.epochs):
                t0 = time.perf_counter()
                order = rng.permutation(len(data))
                epoch_loss = 0.0
                for start in range(0, len(order), hyper.batch_size):
                    idx = order[start:start + hyper.batch_size]
                    batch = _make_batch(idx, data, k, rng, members=params.kind == "mass")
                    if mode == "bpr":
                        loss, _ = gradients(params, batch, hyper.lambda_theta, loss_scale,
                                            out=grads)
                    else:
                        adversarial_delta(params, batch, hyper.epsilon, delta, work)
                        loss, _ = gradients(params, batch, hyper.lambda_theta, out=grads)
                        adv_loss, _ = gradients(_perturbed(params, delta, work), batch,
                                                lambda_theta=0.0, out=adv_grads)
                        loss += hyper.lambda_delta * adv_loss
                        if hyper.lambda_delta != 1.0:  # a product with 1.0 changes no value
                            adv_grads.flat *= hyper.lambda_delta
                        grads.flat += adv_grads.flat
                    if not np.isfinite(loss):
                        raise FloatingPointError("non-finite training loss")
                    adam_update(params, grads, state, hyper.learning_rate)
                    params.check_finite()
                    epoch_loss += loss
                seconds = time.perf_counter() - t0

                record = {"epoch": epoch, "train_loss": epoch_loss, "seconds": seconds}
                if dev is not None:
                    metrics = evaluate(models.make_scorer(params), dev, n_list=[10])
                    record["dev_hit10"] = metrics["N"][10]["hit"]
                    record["dev_ndcg10"] = metrics["N"][10]["ndcg"]
                    if record["dev_hit10"] > result.best_dev_hit10:
                        result.params = params.copy()
                        result.best_epoch = epoch
                        result.best_dev_hit10 = record["dev_hit10"]
                if log_file:
                    json.dump(record, log_file, sort_keys=True)
                    log_file.write("\n")
                    log_file.flush()
    except FloatingPointError as exc:
        raise FloatingPointError(f"{mode} epoch {epoch}: {exc}") from None
    return result
