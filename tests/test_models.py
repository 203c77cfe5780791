import numpy as np
import pytest

import oracles
from metric_rec import models, params as params_mod
from metric_rec.models import ScoreBatch


def _mdr_hand_params(variant="ups", use_bias=True):
    rng = np.random.default_rng(0)
    p = params_mod.init_mdr(1, 1, 1, 2, rng, variant=variant, use_bias=use_bias)
    t = p.tensors
    if "U" in t:
        t["U"][0] = [1.0, 0.0]
    if "P" in t:
        t["P"][0] = [0.0, 1.0]
    t["S"][1] = [1.0, 1.0]
    if use_bias:
        t["theta"][1] = 0.5
    return p


def test_mdr_zero_params_score_zero():
    p = _mdr_hand_params()
    for t in p.tensors.values():
        t[:] = 0.0
    assert oracles.mdr_score(p, 0, 0, 1) == 0.0


def test_mdr_hand_score():
    # d(u,s)=0+1, d(p,s)=1+0, theta=0.5 -> 2.5
    p = _mdr_hand_params("ups")
    assert oracles.mdr_score(p, 0, 0, 1) == pytest.approx(2.5)


def test_mdr_variant_term_deletion():
    assert oracles.mdr_score(_mdr_hand_params("us"), 0, 0, 1) == pytest.approx(1.5)
    assert oracles.mdr_score(_mdr_hand_params("ps"), 0, 0, 1) == pytest.approx(1.5)


def test_mdr_bias_additivity():
    p = _mdr_hand_params("ups")
    base = oracles.mdr_score(p, 0, 0, 1)
    p.tensors["theta"][1] += 0.3
    assert oracles.mdr_score(p, 0, 0, 1) == pytest.approx(base + 0.3)


def test_build_query_hand():
    # ReLU(3*1 + (-1)*2 + 0.5) = 1.5
    q = oracles.build_query([3.0], [-1.0], [[1.0], [2.0]], [0.5])
    np.testing.assert_allclose(q, [1.5])


def test_build_query_negative_preactivation_clamped():
    q = oracles.build_query([1.0, 0.0], [0.0, 1.0], -np.ones((4, 2)), [0.0, 0.0])
    np.testing.assert_allclose(q, [0.0, 0.0])


def test_build_query_shape_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        oracles.build_query([1.0], [1.0], np.ones((3, 2)), [0.0, 0.0])


def test_member_distances_hand():
    d = oracles.member_distances([1.0, 0.0], [[0.0, 1.0]], [1.0, 2.0])
    np.testing.assert_allclose(d, [5.0])  # 1 + (2*1)^2 = 5


def test_member_distances_identity_and_euclidean():
    q = np.array([0.3, -0.2])
    mvecs = np.array([[0.3, -0.2], [1.0, 1.0]])
    d = oracles.member_distances(q, mvecs, np.ones(2))
    assert d[0] == 0.0
    assert d[1] == pytest.approx(np.sum((q - mvecs[1]) ** 2))


def test_masked_softmin_hand():
    alpha = oracles.masked_softmin(np.array([[0.0, np.log(3.0)]]), np.array([2]))[0]
    np.testing.assert_allclose(alpha, [0.75, 0.25], atol=1e-12)


def test_masked_softmin_uniform_and_single():
    alpha = oracles.masked_softmin(np.array([[2.0, 2.0, 2.0, 9.9]]), np.array([3]))[0]
    np.testing.assert_allclose(alpha, [1 / 3, 1 / 3, 1 / 3, 0.0], atol=1e-12)
    alpha = oracles.masked_softmin(np.array([[5.0, 1.0, 1.0]]), np.array([1]))[0]
    np.testing.assert_allclose(alpha, [1.0, 0.0, 0.0])


def test_masked_softmax_rejects_empty_context():
    with pytest.raises(ValueError):
        oracles.masked_softmax(np.zeros((1, 3)), np.array([0]))


@pytest.mark.parametrize("attention", params_mod.ATTENTION_KINDS)
def test_mass_forward_rejects_empty_context(attention):
    p = params_mod.init_mass(2, 2, 6, 4, np.random.default_rng(0), attention=attention)
    batch = ScoreBatch(users=np.array([0, 1]), playlists=np.array([0, 1]),
                       songs=np.array([[1, 2], [3, 4]]), members=np.array([[5, 6], [5, 0]]),
                       counts=np.array([2, 0]))
    with pytest.raises(ValueError, match="at least one real member"):
        models.forward(p, batch)


def test_attention_variant_dot_hand():
    # softmax of (ln 3, 0) -> (0.75, 0.25)
    q = np.array([1.0])
    mvecs = np.array([[np.log(3.0)], [0.0]])
    alpha = oracles.attention_variant("mem_dot", q, mvecs, real_count=2)
    np.testing.assert_allclose(alpha, [0.75, 0.25], atol=1e-12)


def test_attention_variant_dot_uniform():
    q = np.array([0.4, -1.0])
    mvecs = np.tile([[1.0, 2.0]], (3, 1))
    alpha = oracles.attention_variant("nonmem_dot", q, mvecs, real_count=3)
    np.testing.assert_allclose(alpha, np.full(3, 1 / 3), atol=1e-12)


def test_attention_variant_metric_matches_attention_weights():
    rng = np.random.default_rng(2)
    q = rng.normal(size=4)
    mvecs = rng.normal(size=(5, 4))
    b = rng.normal(size=4)
    a1 = oracles.attention_variant("mem_metric", q, mvecs, b, real_count=3)
    a2 = oracles.attention_weights(q, mvecs, b, 3)
    np.testing.assert_allclose(a1, a2)


def test_attention_variant_unknown_kind():
    with pytest.raises(ValueError):
        oracles.attention_variant("other", np.zeros(2), np.zeros((1, 2)), real_count=1)


def test_weighted_member_score_hand():
    # distances (2, 4), alpha (0.75, 0.25), bias 0.1 -> 2.6
    alpha = np.array([0.75, 0.25])
    dists = np.array([2.0, 4.0])
    assert float(np.sum(alpha * dists) + 0.1) == pytest.approx(2.6)


def test_mass_score_convex_combination_bound():
    rng = np.random.default_rng(3)
    p = params_mod.init_mass(2, 2, 6, 4, rng)
    members = [1, 2, 4]
    padded = members + [0] * 0
    batch = ScoreBatch(
        users=np.array([0]), playlists=np.array([1]), songs=np.array([3]),
        members=np.array([padded]), counts=np.array([3]),
    )
    scores, cache = models.forward(p, batch)
    bias = p.tensors["song_bias"][3]
    lo, hi = cache["dists"][0, :3].min(), cache["dists"][0, :3].max()
    assert lo + bias - 1e-12 <= scores[0] <= hi + bias + 1e-12


def test_masr_hand_cases():
    assert oracles.masr_score(2.0, 3.0, alpha=1.0) == 2.0
    assert oracles.masr_score(2.0, 3.0, alpha=0.0) == 3.0
    assert oracles.masr_score(2.0, 3.0, alpha=0.5) == pytest.approx(2.5)
    with pytest.raises(ValueError):
        oracles.masr_score(1.0, 1.0, alpha=1.5)


def _rand_batch(rng, p, l, n=6):
    members = np.zeros((n, l), dtype=np.int64)
    counts = rng.integers(1, l + 1, size=n)
    for i in range(n):
        members[i, :counts[i]] = rng.choice(
            np.arange(1, p.num_songs + 1), size=counts[i], replace=False
        )
    return ScoreBatch(
        users=rng.integers(p.num_users, size=n),
        playlists=rng.integers(p.num_playlists, size=n),
        songs=rng.integers(1, p.num_songs + 1, size=n),
        members=members, counts=counts,
    )


@pytest.mark.parametrize("attention", params_mod.ATTENTION_KINDS)
def test_mass_attention_rows_normalized(attention):
    rng = np.random.default_rng(11)
    p = params_mod.init_mass(3, 4, 8, 4, rng, attention=attention)
    for t in p.tensors.values():
        t += rng.normal(scale=0.3, size=t.shape)
    p.zero_padding_rows()
    batch = _rand_batch(rng, p, 5)
    _, cache = models.forward(p, batch)
    alpha = cache["alpha"]
    np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-12)
    for i in range(len(batch.songs)):
        assert np.all(alpha[i, batch.counts[i]:] == 0.0)


def test_mass_ps_equals_us_with_shared_embedding():
    rng = np.random.default_rng(8)
    us = params_mod.init_mass(3, 3, 6, 4, rng, variant="us")
    ps = params_mod.init_mass(3, 3, 6, 4, np.random.default_rng(8), variant="ps")
    for name, t in us.tensors.items():
        ps.tensors[{"U": "P", "U_a": "P_a"}.get(name, name)] = t.copy()
    batch = _rand_batch(np.random.default_rng(9), us, 3)
    # user index i scores under `us` exactly as playlist index i under `ps`
    ps_batch = ScoreBatch(
        users=batch.users, playlists=batch.users, songs=batch.songs,
        members=batch.members, counts=batch.counts,
    )
    np.testing.assert_allclose(
        models.score_batch(us, batch), models.score_batch(ps, ps_batch)
    )


def test_mass_ups_reduces_to_us_with_zero_playlist_block():
    rng = np.random.default_rng(10)
    d = 4
    us = params_mod.init_mass(3, 3, 6, d, rng, variant="us")
    ups = params_mod.init_mass(3, 3, 6, d, np.random.default_rng(99), variant="ups")
    for name in ("U", "S", "b1", "B3", "U_a", "S_a", "b2", "B4",
                 "song_bias"):
        ups.tensors[name] = us.tensors[name].copy()
    for w in ("W1", "W2"):
        # rows: [user block; playlist block; song block]
        ups.tensors[w][:d] = us.tensors[w][:d]
        ups.tensors[w][d:2 * d] = 0.0
        ups.tensors[w][2 * d:] = us.tensors[w][d:]
    ups.tensors["P"][:] = 0.0
    ups.tensors["P_a"][:] = 0.0
    batch = _rand_batch(np.random.default_rng(12), us, 3)
    np.testing.assert_allclose(
        models.score_batch(us, batch), models.score_batch(ups, batch)
    )


def test_mass_requires_members():
    rng = np.random.default_rng(1)
    p = params_mod.init_mass(2, 2, 4, 2, rng)
    batch = ScoreBatch(
        users=np.array([0]), playlists=np.array([0]), songs=np.array([1])
    )
    with pytest.raises(ValueError, match="member"):
        models.forward(p, batch)


def test_backward_zeroes_padding_rows():
    rng = np.random.default_rng(13)
    p = params_mod.init_mass(3, 3, 6, 4, rng)
    batch = _rand_batch(rng, p, 3, n=4)
    scores, cache = models.forward(p, batch)
    grads = p.zero_like()
    models.backward(p, batch, cache, np.ones_like(scores), grads)
    for name in ("S", "S_a", "song_bias"):
        assert np.all(grads[name][0] == 0.0)


def test_make_scorer_blend_endpoints():
    rng = np.random.default_rng(14)
    mdr = params_mod.init_mdr(3, 3, 6, 4, rng)
    mass = params_mod.init_mass(3, 3, 6, 4, rng)
    batch = _rand_batch(rng, mass, 3)
    o_mdr = models.score_batch(mdr, batch)
    o_mass = models.score_batch(mass, batch)
    np.testing.assert_array_equal(models.make_scorer((mdr, mass), 1.0)(batch), o_mdr)
    np.testing.assert_array_equal(models.make_scorer((mdr, mass), 0.0)(batch), o_mass)
    np.testing.assert_allclose(
        models.make_scorer((mdr, mass), 0.5)(batch), 0.5 * o_mdr + 0.5 * o_mass
    )
    with pytest.raises(ValueError):
        models.make_scorer((mdr, mass), -0.1)
    with pytest.raises(ValueError):
        models.make_scorer((mdr, mass))


_ALL_CONFIGS = (
    [("mdr", {"variant": var}) for var in params_mod.MDR_VARIANTS]
    + [("mass", {"variant": var, "attention": att})
       for var in params_mod.MASS_VARIANTS for att in params_mod.ATTENTION_KINDS]
)


def _oracle_score(p, user, playlist, song, members, count):
    """One (context, candidate) score from the single-context helpers."""
    if p.kind == "mdr":
        return oracles.mdr_score(p, user, playlist, song)
    t = p.tensors
    bias = t["song_bias"][song] if p.use_bias else 0.0

    def query(suffix, w, b):
        ctx = np.concatenate([t[name + suffix][i] for name, i in (("U", user), ("P", playlist))
                              if name + suffix in t])
        return oracles.build_query(ctx, t["S" + suffix][song], t[w], t[b])

    real = members[:count]
    q = query("", "W1", "b1")
    dists = oracles.member_distances(q, t["S"][real], t["B3"])
    if p.attention.startswith("mem"):
        q_a, m_a = query("_a", "W2", "b2"), t["S_a"][real]
    else:
        q_a, m_a = q, t["S"][real]
    alpha = oracles.attention_variant(p.attention, q_a, m_a, t.get("B4"), count)
    return float(alpha @ dists) + bias


@pytest.mark.parametrize(
    "kind,kwargs", _ALL_CONFIGS,
    ids=[f"{kind}-{'-'.join(kw.values())}" for kind, kw in _ALL_CONFIGS],
)
def test_candidate_major_batch_matches_per_row_scoring(kind, kwargs):
    rng = np.random.default_rng(21)
    if kind == "mdr":
        p, l = params_mod.init_mdr(3, 4, 12, 4, rng, **kwargs), 1
    else:
        p, l = params_mod.init_mass(3, 4, 12, 4, rng, **kwargs), 5
    for t in p.tensors.values():
        t += rng.normal(scale=0.3, size=t.shape)
    p.zero_padding_rows()
    ctx = _rand_batch(rng, p, l, n=4)  # ragged counts, 0-padded members
    c = 5
    batch = ScoreBatch(
        users=ctx.users, playlists=ctx.playlists,
        songs=rng.integers(1, p.num_songs + 1, size=(4, c)),
        members=ctx.members, counts=ctx.counts,
    )
    # the same (context, candidate) pairs, one 1-D row each
    rows = ScoreBatch(
        users=np.repeat(ctx.users, c), playlists=np.repeat(ctx.playlists, c),
        songs=batch.songs.ravel(),
        members=np.repeat(ctx.members, c, axis=0), counts=np.repeat(ctx.counts, c),
    )

    scores, cache = models.forward(p, batch)
    row_scores, row_cache = models.forward(p, rows)
    assert scores.shape == (4, c) and row_scores.shape == (4 * c,)
    np.testing.assert_allclose(scores.ravel(), row_scores, rtol=1e-12)
    oracle = [
        _oracle_score(p, rows.users[i], rows.playlists[i], rows.songs[i],
                      rows.members[i], rows.counts[i])
        for i in range(len(rows.songs))
    ]
    np.testing.assert_allclose(row_scores, oracle, rtol=1e-10)

    dscores = rng.normal(size=(4, c))
    grads, row_grads = p.zero_like(), p.zero_like()
    models.backward(p, batch, cache, dscores, grads)
    models.backward(p, rows, row_cache, dscores.ravel(), row_grads)
    for name in grads:
        np.testing.assert_allclose(grads[name], row_grads[name], rtol=1e-10, atol=1e-12,
                                   err_msg=name)


@pytest.mark.parametrize("mem", [False, True], ids=["main", "attention"])
def test_query_gives_each_context_its_bits_at_batch_of_one(mem):
    """The context block of the MASS query is a per-context product: row i of
    a batch of 64 has the bits of context i scored alone."""
    rng = np.random.default_rng(31)
    p = params_mod.init_mass(6, 7, 40, 32, rng, variant="ups", attention="mem_metric")
    p.tensors.flat[...] += rng.normal(scale=0.3, size=p.tensors.flat.size)
    p.zero_padding_rows()
    b = 64
    batch = ScoreBatch(users=rng.integers(6, size=b), playlists=rng.integers(7, size=b),
                       songs=rng.integers(1, 41, size=(b, 5)),
                       members=rng.integers(1, 41, size=(b, 3)), counts=np.full(b, 3))
    q, _ = models._query(p, batch, batch.songs, mem)
    for i in range(b):
        one = ScoreBatch(*(a[i:i + 1] for a in (batch.users, batch.playlists, batch.songs,
                                                 batch.members, batch.counts)))
        q_one, _ = models._query(p, one, one.songs, mem)
        assert q_one.tobytes() == q[i:i + 1].tobytes(), i


@pytest.mark.parametrize("kind", ["mdr", "mass"])
def test_passes_over_one_batch_share_one_index_plan(kind):
    """Repeated passes over one batch reuse its scatter slots and member mask,
    tables of one width (S and S_a) share theirs, and the gradients equal
    those of a fresh batch with the same arrays, bit for bit."""
    rng = np.random.default_rng(15)
    if kind == "mdr":
        p = params_mod.init_mdr(3, 3, 9, 4, rng)
    else:
        p = params_mod.init_mass(3, 3, 9, 4, rng, variant="ups", attention="mem_metric")
    ctx = _rand_batch(rng, p, 5)
    batch = ScoreBatch(users=ctx.users, playlists=ctx.playlists,
                       songs=rng.integers(1, p.num_songs + 1, size=(6, 3)),
                       members=ctx.members, counts=ctx.counts)
    dscores = rng.normal(size=(6, 3))

    def grads_of(b):
        scores, cache = models.forward(p, b)
        grads = p.zero_like()
        models.backward(p, b, cache, dscores, grads)
        return grads

    first = grads_of(batch)
    plan = dict(batch.plan)
    expected = {("songs", 4), ("songs", 1), ("users", 4), ("playlists", 4)}
    if kind == "mass":
        expected |= {("members", 4), "mask"}
    assert set(plan) == expected
    second = grads_of(batch)
    assert all(batch.plan[key] is value for key, value in plan.items())
    assert set(batch.plan) == expected
    fresh = grads_of(ScoreBatch(users=batch.users, playlists=batch.playlists, songs=batch.songs,
                                members=batch.members, counts=batch.counts))
    for name in first:
        assert first[name].tobytes() == second[name].tobytes() == fresh[name].tobytes(), name
