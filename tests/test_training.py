import numpy as np
import pytest

import oracles
import synthetic
from metric_rec import dataset, models, params as params_mod, training
from metric_rec.dataset import InteractionRecord
from metric_rec.training import Hyperparams


def _toy_split(num_songs=8, seed=0):
    records = [InteractionRecord("u0", "p0", f"s{i}") for i in range(num_songs)]
    records += [InteractionRecord("u1", "p1", f"t{i}") for i in range(num_songs)]
    catalog = dataset.build_catalog(records)
    split = dataset.leave_one_out_split(records, seed, catalog)
    return catalog, split


def _small_model(kind, catalog, split, seed=0, **kwargs):
    rng = np.random.default_rng(seed)
    m, n, v = catalog.num_users, catalog.num_playlists, catalog.num_songs
    if kind == "mdr":
        return params_mod.init_mdr(m, n, v, 4, rng, **kwargs)
    return params_mod.init_mass(m, n, v, 4, rng, **kwargs)


def _one_batch(data, k, seed=0):
    rng = np.random.default_rng(seed)
    idx = np.arange(min(8, len(data)))
    return training._make_batch(idx, data, k, rng)


def test_bpr_loss_zero_margin():
    n = 7
    loss = training.bpr_loss(np.zeros(n), np.zeros(n))
    assert loss == pytest.approx(n * np.log(2.0))


def test_bpr_loss_saturation():
    assert training.bpr_loss([0.0], [1e4]) == pytest.approx(0.0, abs=1e-12)


def test_bpr_loss_unit_margin():
    assert training.bpr_loss([0.0], [1.0]) == pytest.approx(0.31326168751822286)


def test_bpr_loss_shape_mismatch():
    with pytest.raises(ValueError):
        training.bpr_loss(np.zeros(2), np.zeros(3))


def test_bpr_loss_regularization_term():
    catalog, split = _toy_split()
    p = _small_model("mdr", catalog, split)
    base = training.bpr_loss([0.0], [0.0], p, 0.0)
    reg = training.bpr_loss([0.0], [0.0], p, 0.1) - base
    expected = 0.1 * sum(
        float(np.sum(t * t))
        for name, t in p.tensors.items() if name in params_mod.REGULARIZED
    )
    assert reg == pytest.approx(expected)


def test_build_train_data_members_exclude_positive():
    catalog, split = _toy_split()
    data = training.build_train_data(split, catalog.num_songs)
    assert len(data) == sum(len(v) for v in split.train.values())
    for i in range(len(data)):
        row = data.members[i][:data.counts[i]]
        assert data.pos[i] not in row
        assert 0 not in row
    k = int(data.pool_sizes[data.playlists].min())
    negatives = training._make_batch(np.arange(len(data)), data, k,
                                     np.random.default_rng(0)).songs[:, 1:]
    for p, row in zip(data.playlists, negatives):
        assert not (set(row.tolist()) & (split.full_set(p) | {0}))


def _reference_instances(split):
    """`build_train_data`'s instance arrays, built one instance at a time."""
    instances = [(p, s) for p in sorted(split.train) for s in split.train[p]]
    members = np.zeros((len(instances), split.max_members), dtype=np.int64)
    counts = np.empty(len(instances), dtype=np.int64)
    for i, (p, s) in enumerate(instances):
        rest = [x for x in split.train[p] if x != s]
        members[i, :len(rest)] = rest
        counts[i] = len(rest)
    return {
        "users": np.array([split.owner[p] for p, _ in instances], dtype=np.int64),
        "playlists": np.array([p for p, _ in instances], dtype=np.int64),
        "pos": np.array([s for _, s in instances], dtype=np.int64),
        "members": members,
        "counts": counts,
    }


def test_build_train_data_matches_per_instance_reference():
    splits = [_toy_split()[::-1], _toy_split(num_songs=3)[::-1]]
    for seed in range(3):
        records = synthetic.planted_cluster_records(seed=seed, playlist_size=5 + 3 * seed)
        records += [InteractionRecord(r.user_id, f"q{r.playlist_id}", r.song_id)
                    for r in synthetic.planted_cluster_records(seed=seed, playlist_size=11)]
        catalog = dataset.build_catalog(records)
        splits.append((dataset.leave_one_out_split(records, seed, catalog), catalog))
    # a train list that repeats a song: its instances drop every copy of their positive
    splits.append((dataset.SplitDataset(train={0: [3, 1, 3, 2], 2: [5]}, dev={0: 4, 2: 6},
                                        test={0: 7, 2: 8}, owner={0: 1, 2: 0}, max_members=4),
                   dataset.build_catalog([InteractionRecord("u", "p", f"s{i}") for i in range(9)])))
    for split, catalog in splits:
        data = training.build_train_data(split, catalog.num_songs)
        for name, want in _reference_instances(split).items():
            got = getattr(data, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            np.testing.assert_array_equal(got, want, err_msg=name)


def _two_pool_data(pool_a=9, pool_b=8):
    """Playlists p0 and p1 over disjoint songs: p0's pool holds p1's `pool_a` songs
    and p1's pool holds p0's `pool_b` songs."""
    records = [InteractionRecord("u0", "p0", f"s{i}") for i in range(pool_b)]
    records += [InteractionRecord("u1", "p1", f"t{i}") for i in range(pool_a)]
    catalog = dataset.build_catalog(records)
    split = dataset.leave_one_out_split(records, 0, catalog)
    return catalog, split, training.build_train_data(split, catalog.num_songs)


def test_sampled_negatives_avoid_the_full_set_and_never_repeat():
    catalog, split, data = _two_pool_data()
    rng = np.random.default_rng(3)
    for k in (1, 4, 8):
        idx = np.tile(np.arange(len(data)), 200)
        batch = training._make_batch(idx, data, k, rng)
        for p, row in zip(batch.playlists, batch.songs[:, 1:]):
            assert len(set(row.tolist())) == k
            assert not (set(row.tolist()) & (split.full_set(p) | {0}))
            assert np.all((row >= 1) & (row <= catalog.num_songs))


def test_negatives_with_k_equal_to_the_pool_size_permute_the_pool():
    catalog, split, data = _two_pool_data(pool_a=8, pool_b=8)
    idx = np.tile(np.arange(len(data)), 50)
    batch = training._make_batch(idx, data, 8, np.random.default_rng(4))
    for p, row in zip(batch.playlists, batch.songs[:, 1:]):
        pool = dataset.songs_outside(split.full_set(p), catalog.num_songs)
        np.testing.assert_array_equal(np.sort(row), pool)
    assert len({tuple(row) for row in batch.songs[:, 1:].tolist()}) > 2


def test_negatives_are_uniform_over_ordered_tuples():
    catalog, split, data = _two_pool_data(pool_a=9)
    rows = np.flatnonzero(data.playlists == catalog.playlists["p0"])
    pool = dataset.songs_outside(split.full_set(catalog.playlists["p0"]), catalog.num_songs)
    assert len(pool) == 9
    trials = 504 * 200
    batch = training._make_batch(np.resize(rows, trials), data, 3, np.random.default_rng(5))
    tuples, counts = np.unique(batch.songs[:, 1:], axis=0, return_counts=True)
    assert len(tuples) == 9 * 8 * 7  # every ordered triple of distinct pool songs
    assert set(tuples.ravel().tolist()) == set(pool.tolist())
    expected = trials / 504
    sigma = np.sqrt(trials * (1 / 504) * (1 - 1 / 504))
    # 504 cells: a 4.5-sigma band per cell leaves the whole test a false-alarm
    # chance below 504 * 7e-6
    assert np.all(np.abs(counts - expected) < 4.5 * sigma)


@pytest.mark.parametrize("size", [1, 3, 16, 17, 41, 256])
def test_sampler_matches_the_k_call_reference_draw_for_draw(size):
    """One `rng.integers` call for all k draws gives the negatives of one call
    per draw, and leaves the generator in the same state."""
    catalog, split = synthetic.planted_cluster_split(seed=0)
    data = training.build_train_data(split, catalog.num_songs)
    pool_sizes, gaps = oracles.negative_pools(split, catalog.num_songs)
    np.testing.assert_array_equal(data.pool_sizes, pool_sizes)
    for seed in range(20):
        playlists = np.random.default_rng([size, seed]).choice(data.playlists, size)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = training.draw_negatives(data, playlists, 4, rng)
        want = oracles.draw_negatives(pool_sizes[playlists], gaps[playlists], 4, ref_rng)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), seed
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert rng.integers(0, 1 << 40, 3).tolist() == ref_rng.integers(0, 1 << 40, 3).tolist()


def test_sampler_with_k_equal_to_the_pool_size_matches_the_reference():
    catalog, split, data = _two_pool_data(pool_a=8, pool_b=8)
    pool_sizes, gaps = oracles.negative_pools(split, catalog.num_songs)
    for size in (1, 7):
        playlists = np.resize(data.playlists, size)
        rng, ref_rng = np.random.default_rng(size), np.random.default_rng(size)
        got = training.draw_negatives(data, playlists, 8, rng)
        want = oracles.draw_negatives(pool_sizes[playlists], gaps[playlists], 8, ref_rng)
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


_STEP_CONFIGS = (
    [("mdr", {"variant": var}) for var in params_mod.MDR_VARIANTS]
    + [("mdr", {"variant": "ups", "use_bias": False})]
    + [("mass", {"variant": "ups", "attention": att}) for att in params_mod.ATTENTION_KINDS]
    + [("mass", {"variant": "us", "attention": "mem_metric", "use_bias": False})]
)


@pytest.mark.parametrize("kind,kwargs", _STEP_CONFIGS,
                         ids=[f"{kind}-{'-'.join(map(str, kw.values()))}"
                              for kind, kw in _STEP_CONFIGS])
def test_scatters_equal_the_bincount_reference_bit_for_bit(monkeypatch, kind, kwargs):
    """The in-place scatter only ever writes a table that is still zero in its
    pass, and leaves it with the bits of the bincount reference; the gradients
    equal those computed with the reference in place of both scatters."""
    catalog, split = synthetic.planted_cluster_split(seed=0)
    p = _small_model(kind, catalog, split, **kwargs)
    rng = np.random.default_rng(8)
    for t in p.tensors.values():
        t += rng.normal(scale=0.1, size=t.shape)
    p.zero_padding_rows()
    data = training.build_train_data(split, catalog.num_songs)
    # 64 instances of a few playlists: every table gets repeated rows
    batch = training._make_batch(np.resize(np.arange(12), 64), data, 4, rng)
    scatter = models._scatter_add
    written = []

    def checked(target, batch, field_name, rows):
        assert target.tobytes() == bytes(target.nbytes), field_name
        want = target.copy()
        oracles.scatter_add(want, getattr(batch, field_name), rows)
        scatter(target, batch, field_name, rows)
        assert target.tobytes() == want.tobytes(), field_name
        written.append(field_name)

    monkeypatch.setattr(models, "_scatter_add", checked)
    grads = p.zero_like()
    for _ in range(2):  # the second pass reuses the gradient arena
        written.clear()
        training.gradients(p, batch, lambda_theta=1e-2, out=grads)
    tables = {"U", "P", "U_a", "P_a", "S", "S_a", "theta", "song_bias"}
    assert len(written) == len(tables & set(p.tensors))

    def reference(target, batch, field_name, rows):
        oracles.scatter_add(target, getattr(batch, field_name), rows)

    monkeypatch.setattr(models, "_scatter_add", reference)
    monkeypatch.setattr(models, "_scatter_add_sum", reference)
    _, want = training.gradients(p, batch, lambda_theta=1e-2, out=p.zero_like())
    assert grads.flat.tobytes() == want.flat.tobytes()


@pytest.mark.parametrize("kind,kwargs", [
    ("mdr", {"variant": "ups"}),
    ("mdr", {"variant": "us", "use_bias": False}),
    ("mass", {"variant": "us", "attention": "mem_metric"}),
    ("mass", {"variant": "ups", "attention": "nonmem_dot"}),
])
def test_gradients_match_finite_differences(kind, kwargs):
    catalog, split = _toy_split()
    p = _small_model(kind, catalog, split, **kwargs)
    rng = np.random.default_rng(5)
    for t in p.tensors.values():
        t += rng.normal(scale=0.1, size=t.shape)
    p.zero_padding_rows()
    data = training.build_train_data(split, catalog.num_songs)
    tb = _one_batch(data, k=2)
    lam = 0.01
    _, grads = training.gradients(p, tb, lambda_theta=lam, out=p.zero_like())
    h = 1e-5
    for name, t in p.tensors.items():
        flat = t.ravel()
        for i in range(0, flat.size, max(1, flat.size // 10)):
            orig = flat[i]
            flat[i] = orig + h
            fp = training.batch_loss(p, tb, lam)
            flat[i] = orig - h
            fm = training.batch_loss(p, tb, lam)
            flat[i] = orig
            fd = (fp - fm) / (2 * h)
            g = grads[name].ravel()[i]
            assert abs(g - fd) <= 1e-4 * max(1.0, abs(fd), abs(g)), (name, i)


def test_gradients_padding_rows_zero():
    catalog, split = _toy_split()
    p = _small_model("mass", catalog, split)
    data = training.build_train_data(split, catalog.num_songs)
    _, grads = training.gradients(p, _one_batch(data, 2), out=p.zero_like())
    for name in ("S", "S_a", "song_bias"):
        assert np.all(grads[name][0] == 0.0)


def test_gradients_regularization_linearity():
    catalog, split = _toy_split()
    p = _small_model("mdr", catalog, split)
    data = training.build_train_data(split, catalog.num_songs)
    tb = _one_batch(data, 2)
    _, g0 = training.gradients(p, tb, lambda_theta=0.0, out=p.zero_like())
    _, g1 = training.gradients(p, tb, lambda_theta=0.01, out=p.zero_like())
    _, g2 = training.gradients(p, tb, lambda_theta=0.02, out=p.zero_like())
    for name in g0:
        reg1 = g1[name] - g0[name]
        reg2 = g2[name] - g0[name]
        np.testing.assert_allclose(reg2, 2.0 * reg1, atol=1e-12)


def test_adam_zero_gradient_is_noop():
    catalog, split = _toy_split()
    p = _small_model("mdr", catalog, split)
    before = {k: v.copy() for k, v in p.tensors.items()}
    state = training.AdamState()
    for _ in range(3):
        training.adam_update(p, p.zero_like(), state, lr=0.1)
    for name, t in p.tensors.items():
        np.testing.assert_array_equal(t, before[name])


def test_adam_first_step_is_signed_lr():
    catalog, split = _toy_split()
    p = _small_model("mdr", catalog, split)
    before = {k: v.copy() for k, v in p.tensors.items()}
    grads = p.zero_like()
    grads.flat.fill(0.7)
    p.zero_padding_rows(grads)
    state = training.AdamState()
    training.adam_update(p, grads, state, lr=1e-3)
    step = before["B1"] - p.tensors["B1"]
    np.testing.assert_allclose(step, 1e-3, rtol=1e-6)


def test_adam_shape_mismatch_rejected():
    catalog, split = _toy_split()
    p = _small_model("mdr", catalog, split)
    grads = dict(p.zero_like())
    grads["B1"] = np.zeros(2)
    with pytest.raises(ValueError):
        training.adam_update(p, grads, training.AdamState(), lr=0.1)


def test_adam_refuses_gradients_of_another_layout_before_moving():
    """Gradients are an arena in the parameters' layout; a plain dict of the
    same tensors, or another model's arena, is refused before a value moves."""
    catalog, split = _toy_split()
    p = _small_model("mass", catalog, split)
    before = p.tensors.flat.copy()
    state = training.AdamState()
    for grads in (dict(p.zero_like()), _small_model("mdr", catalog, split).zero_like()):
        with pytest.raises(ValueError, match="layout"):
            training.adam_update(p, grads, state, lr=1e-3)
    assert p.tensors.flat.tobytes() == before.tobytes()
    assert state.t == 0 and state.m is None


@pytest.mark.parametrize("block", [training.ADAM_BLOCK, 1000], ids=["block", "small-blocks"])
@pytest.mark.parametrize("kind, kwargs", [
    ("mdr", {"variant": "ups"}),
    ("mass", {"variant": "us", "attention": "mem_metric"}),
])
def test_arena_adam_matches_per_tensor_reference(monkeypatch, kind, kwargs, block):
    """30 one-buffer Adam steps leave every tensor and moment bit-identical to
    the per-tensor reference step fed the same gradients, whether the arena
    fits one block or spans several and ends in a partial one."""
    monkeypatch.setattr(training, "ADAM_BLOCK", block)
    catalog, split = synthetic.planted_cluster_split(seed=0)
    p = _small_model(kind, catalog, split, **kwargs)
    ref = {name: t.copy() for name, t in p.tensors.items()}
    ref_m = {name: np.zeros_like(t) for name, t in ref.items()}
    ref_v = {name: np.zeros_like(t) for name, t in ref.items()}
    data = training.build_train_data(split, catalog.num_songs)
    rng = np.random.default_rng(3)
    state = training.AdamState()
    grads = p.zero_like()
    for step in range(1, 31):
        batch = training._make_batch(rng.choice(len(data), 16, replace=False), data, 4, rng)
        training.gradients(p, batch, lambda_theta=1e-2, out=grads)
        training.adam_update(p, grads, state, lr=1e-3)
        oracles.adam_step(ref, grads, ref_m, ref_v, step, lr=1e-3)
        p.zero_padding_rows(ref)
        for name, t in p.tensors.items():
            assert t.tobytes() == ref[name].tobytes(), (step, name)
    if block == 1000:  # several blocks, the last one partial
        assert p.tensors.flat.size > 1000 and p.tensors.flat.size % 1000
    assert state.m.tobytes() == np.concatenate([m.ravel() for m in ref_m.values()]).tobytes()
    assert state.v.tobytes() == np.concatenate([v.ravel() for v in ref_v.values()]).tobytes()


def test_assigned_tensor_still_trains():
    """An array assigned into `tensors` is written into the arena, so the
    one-buffer step updates it."""
    catalog, split = _toy_split()
    p = _small_model("mdr", catalog, split)
    ref = {name: t.copy() for name, t in p.tensors.items()}
    ref_m = {name: np.zeros_like(t) for name, t in ref.items()}
    ref_v = {name: np.zeros_like(t) for name, t in ref.items()}
    new_u = np.full_like(p.tensors["U"], 0.25)
    p.tensors["U"] = new_u
    ref["U"] = new_u.copy()
    assert np.shares_memory(p.tensors["U"], p.tensors.flat)
    assert not np.shares_memory(new_u, p.tensors.flat)
    state = training.AdamState()
    data = training.build_train_data(split, catalog.num_songs)
    batch = _one_batch(data, 2)
    grads = p.zero_like()
    for step in (1, 2):
        training.gradients(p, batch, out=grads)
        training.adam_update(p, grads, state, lr=1e-2)
        oracles.adam_step(ref, grads, ref_m, ref_v, step, lr=1e-2)
        p.zero_padding_rows(ref)
    for name, t in p.tensors.items():
        assert t.tobytes() == ref[name].tobytes(), name
    assert not np.all(p.tensors["U"] == 0.25)


@pytest.mark.parametrize("mode, passes", [("bpr", 1), ("apr", 3)])
def test_train_calls_the_hooked_entry_points_once_per_minibatch(monkeypatch, mode, passes):
    """`train` reaches `adam_update`, `gradients` and `adversarial_delta`
    through the module's attributes, once per minibatch (`gradients` once
    per pass), so that wrappers installed there see every call."""
    catalog, split = synthetic.planted_cluster_split(seed=0)
    p = _small_model("mass", catalog, split)
    calls = {"adam_update": 0, "gradients": 0, "adversarial_delta": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(training, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(training, name, counted)
    hyper = Hyperparams(epochs=2, batch_size=64, seed=0)
    data = training.build_train_data(split, catalog.num_songs)
    training.train(p, data, None, hyper, mode=mode)
    minibatches = 2 * -(-len(data) // 64)
    assert calls == {"adam_update": minibatches, "gradients": passes * minibatches,
                     "adversarial_delta": minibatches if mode == "apr" else 0}


def test_adversarial_delta_norm_invariant():
    catalog, split = _toy_split()
    p = _small_model("mass", catalog, split)
    rng = np.random.default_rng(6)
    for t in p.tensors.values():
        t += rng.normal(scale=0.1, size=t.shape)
    p.zero_padding_rows()
    data = training.build_train_data(split, catalog.num_songs)
    tb = _one_batch(data, 2)
    eps = 0.5
    delta = training.adversarial_delta(p, tb, eps, p.zero_like(), p.copy())
    for name, d in delta.items():
        std = float(np.std(p.tensors[name]))
        norm = float(np.linalg.norm(d))
        if norm > 0:
            assert abs(norm - eps * std) < 1e-9
    # a constant tensor has zero spread, so it receives no perturbation
    p.tensors["B3"] = np.full_like(p.tensors["B3"], 2.0)
    delta = training.adversarial_delta(p, tb, eps, p.zero_like(), p.copy())
    assert np.all(delta["B3"] == 0.0)


def test_adversarial_delta_direction_matches_fd():
    catalog, split = _toy_split()
    p = _small_model("mdr", catalog, split, variant="us")
    rng = np.random.default_rng(7)
    for t in p.tensors.values():
        t += rng.normal(scale=0.1, size=t.shape)
    p.zero_padding_rows()
    data = training.build_train_data(split, catalog.num_songs)
    tb = _one_batch(data, 2)
    delta = training.adversarial_delta(p, tb, 0.5, p.zero_like(), p.copy())
    h = 1e-5
    for name in ("U", "B1"):
        t = p.tensors[name]
        fd = np.zeros_like(t)
        flat, fd_flat = t.ravel(), fd.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = training.batch_loss(p, tb)
            flat[i] = orig - h
            fm = training.batch_loss(p, tb)
            flat[i] = orig
            fd_flat[i] = (fp - fm) / (2 * h)
        d = delta[name].ravel()
        cos = float(fd_flat @ d / (np.linalg.norm(fd_flat) * np.linalg.norm(d)))
        assert cos >= 0.999


def test_zero_learning_rate_keeps_parameters():
    catalog, split = _toy_split()
    p = _small_model("mdr", catalog, split)
    before = {k: v.copy() for k, v in p.tensors.items()}
    hyper = Hyperparams(learning_rate=0.0, epochs=1, batch_size=4, seed=0)
    result = training.train(p, training.build_train_data(split, catalog.num_songs), None, hyper)
    for name, t in result.params.tensors.items():
        np.testing.assert_array_equal(t, before[name])


def test_training_descends_on_toy_corpus():
    catalog, split = _toy_split(num_songs=10)
    p = _small_model("mdr", catalog, split)
    data = training.build_train_data(split, catalog.num_songs)
    tb = _one_batch(data, 4, seed=1)
    initial = training.batch_loss(p, tb)
    hyper = Hyperparams(epochs=5, batch_size=8, seed=0)
    result = training.train(p, data, None, hyper)
    assert training.batch_loss(result.params, tb) < initial


def test_training_deterministic():
    catalog, split = _toy_split()
    outs = []
    for _ in range(2):
        p = _small_model("mdr", catalog, split, seed=3)
        hyper = Hyperparams(epochs=2, batch_size=4, seed=3)
        result = training.train(p, training.build_train_data(split, catalog.num_songs), None,
                                hyper)
        outs.append(result.params.tensors)
    for name in outs[0]:
        np.testing.assert_array_equal(outs[0][name], outs[1][name])


def test_best_checkpoint_contract(tmp_path):
    records = [
        InteractionRecord(f"u{p}", f"p{p}", f"s{p}_{s}")
        for p in range(16) for s in range(8)
    ]
    catalog = dataset.build_catalog(records)
    split = dataset.leave_one_out_split(records, 0, catalog)
    p = _small_model("mdr", catalog, split)
    hyper = Hyperparams(epochs=4, batch_size=8, seed=0)
    log = str(tmp_path / "log.jsonl")
    from metric_rec.evaluation import evaluate, held_out
    dev = held_out(split, catalog.num_songs, seed=hyper.seed, which="dev")
    result = training.train(p, training.build_train_data(split, catalog.num_songs), dev,
                            hyper, log_path=log)
    assert 0 <= result.best_epoch < hyper.epochs
    metrics = evaluate(models.make_scorer(result.params), dev, n_list=[10])
    assert metrics["N"][10]["hit"] == result.best_dev_hit10
    with open(log, encoding="utf-8") as f:
        lines = f.read().strip().splitlines()
    assert len(lines) == hyper.epochs


def test_epsilon_zero_apr_matches_scaled_bpr():
    catalog, split = _toy_split()
    lam_delta = 1.0

    def run(mode):
        p = _small_model("mdr", catalog, split, seed=2)
        hyper = Hyperparams(epochs=2, batch_size=4, seed=2, lambda_theta=0.0,
                            epsilon=0.0, lambda_delta=lam_delta)
        scale = 1.0 + lam_delta if mode == "bpr" else 1.0
        return training.train(p, training.build_train_data(split, catalog.num_songs), None,
                              hyper, mode=mode, loss_scale=scale)

    bpr = run("bpr")
    apr = run("apr")
    for name in bpr.params.tensors:
        np.testing.assert_array_equal(
            bpr.params.tensors[name], apr.params.tensors[name]
        )


def test_hyperparams_grid_validation():
    Hyperparams().validate()
    with pytest.raises(ValueError):
        Hyperparams(learning_rate=0.5).validate()
    with pytest.raises(ValueError):
        Hyperparams(d=7).validate()
    with pytest.raises(ValueError):
        Hyperparams(epochs=51).validate()
    with pytest.raises(ValueError):
        Hyperparams(epsilon=0.3).validate()
    with pytest.raises(ValueError):
        Hyperparams(lambda_theta=0.5).validate()
    with pytest.raises(ValueError):
        Hyperparams(batch_size=0).validate()


def test_hyperparams_seed_and_lambda_delta_bounds():
    """Seeds are what `np.random.default_rng` takes and a checkpoint header
    can hold (0..2**64 - 1); lambda_delta must be a finite weight."""
    for seed in (0, 2 ** 64 - 1):
        Hyperparams(seed=seed).validate()
    Hyperparams(lambda_delta=0.0).validate()
    for bad in ({"seed": -1}, {"seed": 2 ** 64}, {"lambda_delta": float("nan")},
                {"lambda_delta": float("inf")}, {"lambda_delta": -0.5}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            Hyperparams(**bad).validate()
