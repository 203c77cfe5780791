"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS/FAIL line.
The heavier criteria share trained models through a module-level cache so
the full set stays desk-scale.
"""

import json
import time

import numpy as np
import pytest
from click.testing import CliRunner

import synthetic
from oracles import mahalanobis_sq
from metric_rec import dataset, evaluation, models, params as params_mod, training
from metric_rec.cli import main as cli_main
from metric_rec.models import ScoreBatch
from metric_rec.training import Hyperparams


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {num:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} {name} failed{suffix}"


# ---------------------------------------------------------------------------
# shared trained models on the planted-cluster corpus
# ---------------------------------------------------------------------------

_PAIRS = {}


def _train_pair(seed):
    """Train one MDR and one MASS model on the planted corpus at `seed`."""
    if seed in _PAIRS:
        return _PAIRS[seed]
    catalog, split = synthetic.planted_cluster_split(seed=seed)
    hyper = Hyperparams(learning_rate=1e-3, d=16, epochs=50, batch_size=16, seed=seed)
    m, n, v = catalog.num_users, catalog.num_playlists, catalog.num_songs
    data = training.build_train_data(split, v)
    dev = evaluation.held_out(split, v, hyper.seed, "dev")
    mdr = params_mod.init_mdr(m, n, v, hyper.d, np.random.default_rng(seed))
    mdr_result = training.train(mdr, data, dev, hyper,
                                rng=np.random.default_rng(seed))
    mass = params_mod.init_mass(m, n, v, hyper.d,
                                np.random.default_rng(seed))
    mass_result = training.train(mass, data, dev, hyper,
                                 rng=np.random.default_rng(seed))
    _PAIRS[seed] = (catalog, split, mdr_result, mass_result)
    return _PAIRS[seed]


def _test_hit10(params_or_scorer, split, num_songs, seed):
    scorer = (params_or_scorer if callable(params_or_scorer)
              else models.make_scorer(params_or_scorer))
    out = evaluation.evaluate(scorer, evaluation.held_out(split, num_songs, seed=seed),
                              n_list=[10])
    return out["N"][10]["hit"]


def test_criterion_01_metric_axioms():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    n = 10_000
    bs = rng.normal(size=(n, 4))
    xs = rng.normal(size=(n, 4))
    ys = rng.normal(size=(n, 4))
    cs = rng.uniform(-2.0, 2.0, size=n)
    ok = True
    for b, x, y, c in zip(bs, xs, ys, cs):
        d = mahalanobis_sq(b, x, y)
        if not (d >= 0.0 and d == mahalanobis_sq(b, y, x)
                and mahalanobis_sq(b, x, x) == 0.0):
            ok = False
            break
        scaled = mahalanobis_sq(c * b, x, y)
        if abs(scaled - c * c * d) > 1e-12 * max(1.0, abs(scaled)):
            ok = False
            break
    elapsed = time.perf_counter() - t0
    _report(1, "metric axioms", ok and elapsed < 1.0, f"{n} triples in {elapsed:.2f}s")


def _random_small_model(kind, rng, **kwargs):
    m, n, v, d, l = 3, 3, 6, 4, 3
    if kind == "mdr":
        p = params_mod.init_mdr(m, n, v, d, rng, **kwargs)
    else:
        p = params_mod.init_mass(m, n, v, d, rng, **kwargs)
    for t in p.tensors.values():
        t += rng.normal(scale=0.1, size=t.shape)
    p.zero_padding_rows()
    return p


def _random_train_batch(rng, batch=8, k=2, v=6, l=3):
    counts = rng.integers(1, l + 1, size=batch)
    members = np.zeros((batch, l), dtype=np.int64)
    for i in range(batch):
        members[i, :counts[i]] = rng.choice(np.arange(1, v + 1), size=counts[i],
                                            replace=False)
    users = rng.integers(3, size=batch)
    playlists = rng.integers(3, size=batch)
    pos = rng.integers(1, v + 1, size=batch)
    negs = rng.integers(1, v + 1, size=(batch, k))
    return ScoreBatch(users=users, playlists=playlists,
                      songs=np.concatenate([pos[:, None], negs], axis=1),
                      members=members, counts=counts)


def test_criterion_02_gradient_gate():
    t0 = time.perf_counter()
    configs = (
        [("mdr", {"variant": var}) for var in params_mod.MDR_VARIANTS]
        + [("mass", {"variant": "us", "attention": att})
           for att in params_mod.ATTENTION_KINDS]
        + [("mass", {"variant": var, "attention": "mem_metric"})
           for var in ("ps", "ups")]
    )
    h = 1e-5
    draws_per_config = 12
    worst = 0.0
    total_draws = 0
    for kind, kwargs in configs:
        for draw in range(draws_per_config):
            rng = np.random.default_rng([kind == "mass", draw, len(kwargs)])
            p = _random_small_model(kind, rng, **kwargs)
            tb = _random_train_batch(rng)
            lam = 0.01
            _, grads = training.gradients(p, tb, lambda_theta=lam, out=p.zero_like())
            for name, t in p.tensors.items():
                flat = t.ravel()
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + h
                    fp = training.batch_loss(p, tb, lam)
                    flat[i] = orig - h
                    fm = training.batch_loss(p, tb, lam)
                    flat[i] = orig
                    fd = (fp - fm) / (2 * h)
                    g = grads[name].ravel()[i]
                    rel = abs(g - fd) / max(1.0, abs(fd), abs(g))
                    worst = max(worst, rel)
            total_draws += 1
    elapsed = time.perf_counter() - t0
    _report(2, "gradient finite-difference gate",
            worst <= 1e-4 and elapsed < 60.0,
            f"{total_draws} draws, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_attention_contract():
    rng = np.random.default_rng(3)
    ok = True
    for attention in params_mod.ATTENTION_KINDS:
        p = params_mod.init_mass(4, 4, 10, 4, rng, attention=attention)
        for t in p.tensors.values():
            t += rng.normal(scale=0.3, size=t.shape)
        p.zero_padding_rows()
        for _ in range(250):
            n = 4
            counts = rng.integers(1, 7, size=n)
            members = np.zeros((n, 6), dtype=np.int64)
            for i in range(n):
                members[i, :counts[i]] = rng.choice(np.arange(1, 11),
                                                    size=counts[i], replace=False)
            batch = ScoreBatch(
                users=rng.integers(4, size=n), playlists=rng.integers(4, size=n),
                songs=rng.integers(1, 11, size=n), members=members, counts=counts,
            )
            _, cache = models.forward(p, batch)
            alpha = cache["alpha"]
            if np.any(np.abs(alpha.sum(axis=1) - 1.0) > 1e-12):
                ok = False
            for i in range(n):
                if np.any(alpha[i, counts[i]:] != 0.0):
                    ok = False
    hand = models.masked_softmin(np.array([[0.0, np.log(3.0)]]), np.array([2]))[0]
    ok = ok and np.all(np.abs(hand - [0.75, 0.25]) <= 1e-12)
    _report(3, "attention normalization and padding", ok)


def test_criterion_04_toy_pattern_fixture():
    t0 = time.perf_counter()
    catalog, split = synthetic.figure1_split()
    hyper = Hyperparams(learning_rate=1e-3, d=8, epochs=500, batch_size=16)
    wins = 0
    data = training.build_train_data(split, catalog.num_songs)
    p1 = catalog.playlists["p1"]
    s3 = catalog.songs["s3"]
    candidates = np.array(
        [catalog.songs[f"d{i}"] for i in range(20)] + [s3], dtype=np.int64
    )
    for seed in range(10):
        hyper.seed = seed
        params = params_mod.init_mdr(
            catalog.num_users, catalog.num_playlists, catalog.num_songs,
            2, np.random.default_rng(seed), variant="ps", use_bias=False,
        )
        result = training.train(params, data, None, hyper,
                                rng=np.random.default_rng(seed))
        n = len(candidates)
        batch = ScoreBatch(
            users=np.full(n, split.owner[p1]), playlists=np.full(n, p1),
            songs=candidates,
        )
        scores = models.score_batch(result.params, batch)
        best = candidates[np.lexsort((candidates, scores))[0]]
        wins += int(best == s3)
    elapsed = time.perf_counter() - t0
    _report(4, "toy-pattern generalization", wins >= 9 and elapsed < 10.0,
            f"{wins}/10 seeds, {elapsed:.1f}s")


def test_criterion_05_planted_cluster_recall():
    t0 = time.perf_counter()
    catalog, split, mdr_result, mass_result = _train_pair(0)
    v = catalog.num_songs
    mdr_hit = _test_hit10(mdr_result.params, split, v, seed=0)
    mass_hit = _test_hit10(mass_result.params, split, v, seed=0)
    # Monte-Carlo oracle for the random baseline at 100 negatives
    rng = np.random.default_rng(123)
    random_hit = float(np.mean(
        [np.argmin(rng.standard_normal(101)) < 10 for _ in range(5000)]
    ))
    elapsed = time.perf_counter() - t0
    ok = (mdr_hit >= 0.80 and mass_hit >= 0.80
          and abs(random_hit - 10 / 101) < 0.02 and elapsed < 120.0)
    _report(5, "planted-cluster recall", ok,
            f"mdr hit@10 {mdr_hit:.3f}, mass hit@10 {mass_hit:.3f}, "
            f"random {random_hit:.3f}, {elapsed:.1f}s")


def test_criterion_06_adversarial_mechanics():
    # (a) perturbation norm equals epsilon times the tensor spread
    rng = np.random.default_rng(6)
    p = _random_small_model("mass", rng)
    tb = _random_train_batch(rng)
    eps = 0.5
    delta = training.adversarial_delta(p, tb, eps, p.zero_like(), p.copy())
    norm_ok = all(
        abs(float(np.linalg.norm(d)) - eps * float(np.std(p.tensors[name]))) < 1e-9
        for name, d in delta.items() if np.linalg.norm(d) > 0
    )

    # (b) epsilon=0 reduces to the plain objective scaled by 1 + lambda_delta
    catalog, split = synthetic.planted_cluster_split(seed=0)
    v = catalog.num_songs
    data = training.build_train_data(split, v)

    def short_run(mode):
        params = params_mod.init_mdr(
            catalog.num_users, catalog.num_playlists, v, 8,
            np.random.default_rng(1),
        )
        hyper = Hyperparams(d=8, epochs=2, batch_size=64, seed=1,
                            epsilon=0.0, lambda_delta=1.0)
        scale = 2.0 if mode == "bpr" else 1.0
        return training.train(params, data, None, hyper, mode=mode,
                              loss_scale=scale, rng=np.random.default_rng(1))

    bpr, apr = short_run("bpr"), short_run("apr")
    eps0_ok = all(
        np.array_equal(bpr.params.tensors[name], apr.params.tensors[name])
        for name in bpr.params.tensors
    )

    # (c) adversarial fine-tuning does not materially hurt dev accuracy
    deltas = []
    for seed in (0, 1, 2):
        catalog, split, mdr_result, _ = _train_pair(seed)
        hyper = Hyperparams(learning_rate=1e-3, d=16, epochs=10, batch_size=16,
                            seed=seed, epsilon=0.5, lambda_delta=1.0)
        apr_result = training.train(
            mdr_result.params.copy(), training.build_train_data(split, catalog.num_songs),
            evaluation.held_out(split, catalog.num_songs, hyper.seed, "dev"), hyper,
            mode="apr", rng=np.random.default_rng(seed + 100),
        )
        deltas.append(apr_result.best_dev_hit10 - mdr_result.best_dev_hit10)
    robust_ok = all(d >= -0.02 for d in deltas)

    _report(6, "adversarial training mechanics",
            norm_ok and eps0_ok and robust_ok,
            f"norm {norm_ok}, eps0 {eps0_ok}, dev deltas "
            + ", ".join(f"{d:+.3f}" for d in deltas))


def test_criterion_07_ranking_metric_table():
    ok = (
        evaluation.hit_at_n(1, 10) == 1 and evaluation.ndcg_at_n(1, 10) == 1.0
        and evaluation.hit_at_n(3, 10) == 1
        and evaluation.ndcg_at_n(3, 10) == 0.5
        and evaluation.hit_at_n(11, 10) == 0
        and evaluation.ndcg_at_n(11, 10) == 0.0
    )
    _report(7, "hit@N and NDCG@N unit table", ok)


def test_criterion_08_linear_scaling(tmp_path):
    def min_epoch_seconds(kind, num_playlists):
        catalog, split = synthetic.planted_cluster_split(
            seed=0, num_playlists=num_playlists, songs_per_cluster=300,
            users_per_cluster=30,
        )
        v = catalog.num_songs
        hyper = Hyperparams(d=16, epochs=3, batch_size=256, seed=0)
        if kind == "mdr":
            params = params_mod.init_mdr(
                catalog.num_users, catalog.num_playlists, v, 16,
                np.random.default_rng(0),
            )
        else:
            params = params_mod.init_mass(
                catalog.num_users, catalog.num_playlists, v, 16,
                np.random.default_rng(0),
            )
        log = str(tmp_path / f"{kind}_{num_playlists}.jsonl")
        result = training.train(params, training.build_train_data(split, v), None, hyper,
                                log_path=log, rng=np.random.default_rng(0))
        return min(r["seconds"] for r in result.history)

    ratios = {}
    for kind in ("mdr", "mass"):
        t_small = min_epoch_seconds(kind, 400)
        t_large = min_epoch_seconds(kind, 800)
        ratios[kind] = t_large / t_small
    ok = all(1.5 <= r <= 2.8 for r in ratios.values())
    _report(8, "epoch-time linear scaling", ok,
            f"mdr ratio {ratios['mdr']:.2f}, mass ratio {ratios['mass']:.2f}")


def test_criterion_09_fusion_endpoints():
    details = []
    ok = True
    for seed in (0, 1, 2):
        catalog, split, mdr_result, mass_result = _train_pair(seed)
        v = catalog.num_songs
        mdr_p, mass_p = mdr_result.params, mass_result.params

        def metrics(scorer):
            return evaluation.evaluate(scorer, evaluation.held_out(split, v, seed=seed),
                                       n_list=[10])

        m_mdr = metrics(models.make_scorer(mdr_p))
        m_mass = metrics(models.make_scorer(mass_p))
        ok = ok and metrics(models.make_scorer((mdr_p, mass_p), 1.0)) == m_mdr
        ok = ok and metrics(models.make_scorer((mdr_p, mass_p), 0.0)) == m_mass
        blend_hit = metrics(models.make_scorer((mdr_p, mass_p), 0.5))["N"][10]["hit"]
        floor = max(m_mdr["N"][10]["hit"], m_mass["N"][10]["hit"]) - 0.02
        ok = ok and blend_hit >= floor
        details.append(f"seed {seed} blend {blend_hit:.3f} floor {floor:.3f}")
    _report(9, "fusion endpoint identities", ok, "; ".join(details))


def test_criterion_10_end_to_end_determinism(tmp_path):
    runner = CliRunner()
    tsv = tmp_path / "interactions.tsv"
    synthetic.write_tsv(synthetic.planted_cluster_records(seed=0), tsv)

    def pipeline(tag):
        base = tmp_path / tag
        base.mkdir()
        split_dir = base / "splits"
        out_dir = base / "model"
        r = runner.invoke(cli_main, ["prepare", "--input", str(tsv),
                                     "--out", str(split_dir), "--seed", "0"])
        assert r.exit_code == 0, r.output
        cfg = base / "run.cfg"
        cfg.write_text(
            f"model = mdr\nsplit_dir = {split_dir}\nout_dir = {out_dir}\n"
            "epochs = 2\nbatch_size = 64\nd = 8\nseed = 0\n",
            encoding="utf-8",
        )
        r = runner.invoke(cli_main, ["train", "--config", str(cfg)])
        assert r.exit_code == 0, r.output
        metrics = base / "metrics.json"
        r = runner.invoke(cli_main, ["evaluate",
                                     "--checkpoint", str(out_dir / "checkpoint.json"),
                                     "--split", str(split_dir),
                                     "--seed", "0", "--out", str(metrics)])
        assert r.exit_code == 0, r.output
        return metrics.read_bytes()

    a, b = pipeline("run_a"), pipeline("run_b")
    ok = a == b
    _report(10, "end-to-end determinism", ok,
            f"metrics JSON {'identical' if ok else 'differs'}")
