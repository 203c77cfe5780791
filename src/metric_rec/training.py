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
"""

import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import models
from .dataset import pad_members
from .evaluation import evaluate
from .models import ScoreBatch
from .params import REGULARIZED

LEARNING_RATES = (1e-3, 1e-4)
LAMBDA_THETAS = (0.0, 1e-1, 1e-2, 1e-3, 1e-4)
EMBED_SIZES = (8, 16, 32, 64)
EPSILONS = (0.5, 1.0)
MAX_EPOCHS = 50


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
        if self.lambda_delta < 0:
            raise ValueError("lambda_delta must be nonnegative")

    def to_dict(self):
        return {
            "learning_rate": self.learning_rate,
            "lambda_theta": self.lambda_theta,
            "d": self.d,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "negatives_per_positive": self.negatives_per_positive,
            "epsilon": self.epsilon,
            "lambda_delta": self.lambda_delta,
            "seed": self.seed,
        }


@dataclass
class TrainBatch:
    """Quartets grouped by positive instance: each positive owns its negatives."""

    users: np.ndarray      # (B,)
    playlists: np.ndarray  # (B,)
    pos: np.ndarray        # (B,)
    members: np.ndarray    # (B, l)
    counts: np.ndarray     # (B,)
    negs: np.ndarray       # (B, k)


@dataclass
class TrainData:
    """Flattened training instances plus per-playlist negative pools."""

    users: np.ndarray
    playlists: np.ndarray
    pos: np.ndarray
    members: np.ndarray
    counts: np.ndarray
    neg_pools: dict  # playlist idx -> np.ndarray of non-member songs

    def __len__(self):
        return len(self.pos)


def build_train_data(split, num_songs):
    """One instance per (playlist, train song); members exclude the positive."""
    users, playlists, pos, members, counts = [], [], [], [], []
    l = split.max_members
    neg_pools = {}
    all_songs = np.arange(1, num_songs + 1)
    for p in sorted(split.train):
        full = split.full_set(p)
        neg_pools[p] = np.setdiff1d(all_songs, np.fromiter(full, dtype=np.int64))
        for s in split.train[p]:
            rest = [x for x in split.train[p] if x != s]
            padded, count = pad_members(rest, l)
            users.append(split.owner[p])
            playlists.append(p)
            pos.append(s)
            members.append(padded)
            counts.append(count)
    return TrainData(
        users=np.array(users, dtype=np.int64),
        playlists=np.array(playlists, dtype=np.int64),
        pos=np.array(pos, dtype=np.int64),
        members=np.array(members, dtype=np.int64),
        counts=np.array(counts, dtype=np.int64),
        neg_pools=neg_pools,
    )


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def bpr_loss(pos_scores, neg_scores, params=None, lambda_theta=0.0):
    """Pairwise logistic loss -sum log sigmoid(o_neg - o_pos) plus L2 term."""
    pos_scores = np.asarray(pos_scores, dtype=np.float64)
    neg_scores = np.asarray(neg_scores, dtype=np.float64)
    if pos_scores.shape != neg_scores.shape:
        raise ValueError("pos_scores and neg_scores must have equal shapes")
    x = neg_scores - pos_scores
    loss = float(np.sum(np.logaddexp(0.0, -x)))
    if params is not None and lambda_theta:
        loss += lambda_theta * sum(
            float(np.sum(t * t))
            for name, t in params.tensors.items()
            if name in REGULARIZED
        )
    return loss


def _quartet_batch(tb):
    """One context per positive; its candidates are [pos, neg_1..neg_k]."""
    return ScoreBatch(
        users=tb.users, playlists=tb.playlists,
        songs=np.concatenate([tb.pos[:, None], tb.negs], axis=1),
        members=tb.members, counts=tb.counts,
    )


def batch_loss(params, tb, lambda_theta=0.0):
    """Minibatch loss only (used by the finite-difference oracle)."""
    scores = models.score_batch(params, _quartet_batch(tb))
    pos = np.broadcast_to(scores[:, :1], tb.negs.shape)
    return bpr_loss(pos, scores[:, 1:], params, lambda_theta)


def gradients(params, tb, lambda_theta=0.0, loss_scale=1.0):
    """Exact minibatch gradients for every trainable tensor.

    Returns (loss, grads) where grads matches params.tensors in shape and
    padding rows are exactly zero.
    """
    batch = _quartet_batch(tb)
    scores, cache = models.forward(params, batch)

    x = scores[:, 1:] - scores[:, :1]
    loss = float(np.sum(np.logaddexp(0.0, -x)))
    # d/dx of -log sigmoid(x)
    dx = _sigmoid(x) - 1.0
    dscores = np.empty_like(scores)
    dscores[:, 1:] = loss_scale * dx
    dscores[:, 0] = -loss_scale * dx.sum(axis=1)

    grads = params.zero_like()
    models.backward(params, batch, cache, dscores, grads)

    if lambda_theta:
        for name, t in params.tensors.items():
            if name in REGULARIZED:
                loss += lambda_theta * float(np.sum(t * t))
                grads[name] += loss_scale * 2.0 * lambda_theta * t
        params.zero_padding_rows(grads)
    return loss_scale * loss, grads


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


def adam_update(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Standard bias-corrected Adam step over the tensor dict."""
    if not state.m:
        state.m = params.zero_like()
        state.v = params.zero_like()
    state.t += 1
    c1 = 1.0 - beta1 ** state.t
    c2 = 1.0 - beta2 ** state.t
    for name, g in grads.items():
        if g.shape != params.tensors[name].shape:
            raise ValueError(f"gradient shape mismatch for tensor {name}")
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        params.tensors[name] -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
    params.zero_padding_rows()


def _perturbed(params, delta, out):
    """Fill `out` (a copy of `params`) with params + delta, tensor by tensor."""
    for name, t in params.tensors.items():
        np.add(t, delta[name], out=out.tensors[name])
    return out


def adversarial_delta(params, tb, epsilon, delta=None, work=None):
    """Fast-gradient perturbation: per tensor, epsilon * std * unit gradient.

    The gradient of the pairwise loss is taken at params + delta with the
    parameters treated as constants. Tensors with zero gradient (or zero
    spread) keep a zero perturbation. `work` is a scratch copy of `params`
    that receives params + delta; one is allocated when it is not given.
    """
    if delta is None:
        delta = params.zero_like()
    if work is None:
        work = params.copy()
    _, grads = gradients(_perturbed(params, delta, work), tb, lambda_theta=0.0)
    new_delta = {}
    for name, g in grads.items():
        norm = float(np.linalg.norm(g))
        std = float(np.std(params.tensors[name]))
        if norm == 0.0 or std == 0.0:
            new_delta[name] = np.zeros_like(g)
        else:
            new_delta[name] = (epsilon * std / norm) * g
    return new_delta


@dataclass
class TrainResult:
    params: object
    best_epoch: int = -1
    best_dev_hit10: float = -1.0
    best_dev_ndcg10: float = 0.0
    history: list = field(default_factory=list)


def _sample_negatives_for(tb_idx, data, k, rng):
    negs = np.empty((len(tb_idx), k), dtype=np.int64)
    for row, i in enumerate(tb_idx):
        pool = data.neg_pools[data.playlists[i]]
        negs[row] = rng.choice(pool, size=k, replace=False)
    return negs


def _make_batch(idx, data, k, rng):
    return TrainBatch(
        users=data.users[idx],
        playlists=data.playlists[idx],
        pos=data.pos[idx],
        members=data.members[idx],
        counts=data.counts[idx],
        negs=_sample_negatives_for(idx, data, k, rng),
    )


def train(params, split, num_songs, hyper, mode="bpr", eval_dev=True,
          log_path=None, loss_scale=1.0, rng=None, data=None):
    """Run the optimization loop; returns the best-dev (or final) parameters.

    mode="bpr" minimizes the pairwise loss. mode="apr" alternates the
    fast-gradient perturbation update and the robust parameter update,
    starting from the given (pretrained) parameters. With eval_dev the
    best checkpoint by dev hit@10 is kept; otherwise the final parameters
    are returned.
    """
    if rng is None:
        rng = np.random.default_rng(hyper.seed)
    if data is None:
        data = build_train_data(split, num_songs)
    k = hyper.negatives_per_positive
    smallest = min((len(pool) for pool in data.neg_pools.values()), default=k)
    if k > smallest:
        raise ValueError(
            f"negatives_per_positive = {k} exceeds the smallest negative pool "
            f"({smallest} songs outside a playlist)"
        )
    state = AdamState()
    delta = params.zero_like() if mode == "apr" else None
    work = params.copy() if mode == "apr" else None
    result = TrainResult(params=params.copy())
    log_file = open(log_path, "w", encoding="utf-8") if log_path else None

    try:
        for epoch in range(hyper.epochs):
            t0 = time.perf_counter()
            order = rng.permutation(len(data))
            epoch_loss = 0.0
            for start in range(0, len(order), hyper.batch_size):
                idx = order[start:start + hyper.batch_size]
                tb = _make_batch(idx, data, k, rng)
                if mode == "bpr":
                    loss, grads = gradients(
                        params, tb, hyper.lambda_theta, loss_scale
                    )
                else:
                    delta = adversarial_delta(params, tb, hyper.epsilon, delta, work)
                    loss, grads = gradients(params, tb, hyper.lambda_theta)
                    adv_loss, adv_grads = gradients(
                        _perturbed(params, delta, work), tb, lambda_theta=0.0
                    )
                    loss += hyper.lambda_delta * adv_loss
                    for name in grads:
                        grads[name] += hyper.lambda_delta * adv_grads[name]
                if not np.isfinite(loss):
                    raise FloatingPointError("non-finite training loss")
                adam_update(params, grads, state, hyper.learning_rate)
                params.check_finite()
                epoch_loss += loss
            seconds = time.perf_counter() - t0

            record = {"epoch": epoch, "train_loss": epoch_loss, "seconds": seconds}
            if eval_dev:
                metrics = evaluate(
                    models.make_scorer(params), split, num_songs,
                    n_list=[10], seed=hyper.seed, which="dev",
                )
                record["dev_hit10"] = metrics["N"][10]["hit"]
                record["dev_ndcg10"] = metrics["N"][10]["ndcg"]
                if record["dev_hit10"] > result.best_dev_hit10:
                    result.params = params.copy()
                    result.best_epoch = epoch
                    result.best_dev_hit10 = record["dev_hit10"]
                    result.best_dev_ndcg10 = record["dev_ndcg10"]
            result.history.append(record)
            if log_file:
                json.dump(record, log_file, sort_keys=True)
                log_file.write("\n")
                log_file.flush()
    finally:
        if log_file:
            log_file.close()

    if not eval_dev or result.best_epoch < 0:
        result.params = params.copy()
    return result
