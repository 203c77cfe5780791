import numpy as np
import pytest

import oracles
from metric_rec import kernels


def _random_inputs(rng, n=3, c=4, l=2, d=3):
    """Candidate-major inputs: n contexts, c candidates each, l members each."""
    b = rng.normal(size=d)
    q = rng.normal(size=(n, c, d))
    m = rng.normal(size=(n, l, d))
    dout_members = rng.normal(size=(n, c, l))
    return b, q, m, dout_members


def _random_rows(rng, n=3, c=4, k=1, d=3):
    """Row-kernel inputs: k metric rows, n contexts of k anchors, c candidates each."""
    b = rng.normal(size=(k, d))
    x = rng.normal(size=(n, k, d))
    y = rng.normal(size=(n, c, d))
    dout = rng.normal(size=(n, c))
    return b, x, y, dout


def test_numpy_forward_values():
    b = np.array([1.0, 2.0])
    x = np.array([[[3.0, 1.0]]])
    y = np.array([[[0.0, 0.0], [3.0, 0.0]]])
    np.testing.assert_allclose(kernels.sqdist_rows(kernels.row_sums(b[None, :], x), y),
                               [[13.0, 4.0]])
    # a second anchor under its own metric row adds its own distance
    x2 = np.array([[[3.0, 1.0], [0.0, 1.0]]])
    b2 = np.array([[1.0, 2.0], [3.0, 1.0]])
    np.testing.assert_allclose(kernels.sqdist_rows(kernels.row_sums(b2, x2), y),
                               [[14.0, 86.0]])
    q = np.array([[[1.0, 0.0], [0.0, 1.0]]])
    m = np.array([[[0.0, 1.0], [1.0, 0.0]]])
    np.testing.assert_allclose(kernels.sqdist_members(b, q, m), [[[5.0, 0.0], [0.0, 5.0]]])
    np.testing.assert_allclose(kernels.dot_members(q, m), [[[0.0, 1.0], [1.0, 0.0]]])


@pytest.mark.parametrize("k", [1, 2])
def test_sqdist_rows_matches_direct_difference(k):
    rng = np.random.default_rng(9)
    n, c = 64, 7
    b, x, y, _ = _random_rows(rng, n=n, c=c, k=k, d=16)
    # an exact hit in every context: all its anchors equal one candidate, where
    # the expansion cancels and rounding lands on either side of 0
    hit = np.arange(n) % c
    x[:] = y[np.arange(n), hit][:, None, :]
    direct = np.sum((b * (x[:, None, :, :] - y[:, :, None, :])) ** 2, axis=(-2, -1))
    out = kernels.sqdist_rows(kernels.row_sums(b, x), y)
    assert out.shape == (n, c)
    assert np.all(direct[np.arange(n), hit] == 0.0)
    assert np.all(out >= 0.0)
    np.testing.assert_allclose(out, direct, rtol=1e-12, atol=1e-12)


def test_sqdist_members_matches_direct_difference():
    rng = np.random.default_rng(8)
    b, q, m, _ = _random_inputs(rng, n=5, c=7, l=6, d=16)
    q[2, 3] = m[2, 1]  # an exact hit, where the expansion cancels to 0
    direct = np.sum((b * (q[:, :, None, :] - m[:, None, :, :])) ** 2, axis=-1)
    out = kernels.sqdist_members(b, q, m)
    assert out.shape == (5, 7, 6)
    assert np.all(out >= 0.0)
    np.testing.assert_allclose(out, direct, rtol=1e-12, atol=1e-12)


def _fd(fn, arrs, dout, which, i, h=1e-6):
    flat = arrs[which].ravel()
    orig = flat[i]
    flat[i] = orig + h
    fp = np.sum(dout * fn(*arrs))
    flat[i] = orig - h
    fm = np.sum(dout * fn(*arrs))
    flat[i] = orig
    return (fp - fm) / (2 * h)


def _check_fd(fn, arrs, dout, grads):
    for which, grad in grads:
        assert grad.shape == arrs[which].shape
        for i in range(arrs[which].size):
            fd = _fd(fn, arrs, dout, which, i)
            assert grad.ravel()[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)


def test_sqdist_members_backward_matches_fd():
    rng = np.random.default_rng(3)
    b, q, m, dout = _random_inputs(rng)
    dq, dm, db = kernels.sqdist_members_backward(b, q, m, dout)
    _check_fd(kernels.sqdist_members, [b, q, m], dout, ((1, dq), (2, dm), (0, db)))


def _sqdist_rows(b, x, y):
    """The row forward as a function of b, x and y, through `row_sums`."""
    return kernels.sqdist_rows(kernels.row_sums(b, x), y)


def test_sqdist_rows_backward_matches_fd():
    rng = np.random.default_rng(4)
    for k in (1, 2):  # one anchor per context (MDR us, ps) and two (ups)
        b, x, y, dout = _random_rows(rng, k=k)
        dx, dy, db = kernels.sqdist_rows_backward(b, x, y, dout, kernels.row_sums(b, x))
        _check_fd(_sqdist_rows, [b, x, y], dout, ((1, dx), (2, dy), (0, db)))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_row_sums_and_their_reuse_are_bitwise(k):
    """The explicit anchor adds give the bits of the axis reductions, and both
    row kernels return the same bits from them as from the reference sums."""
    rng = np.random.default_rng(10 + k)
    b, x, y, dout = _random_rows(rng, n=256, c=5, k=k, d=32)
    sums, ref = kernels.row_sums(b, x), oracles.row_sums(b, x)
    for got, want in zip(sums, ref):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert kernels.sqdist_rows(sums, y).tobytes() == kernels.sqdist_rows(ref, y).tobytes()
    for got, want in zip(kernels.sqdist_rows_backward(b, x, y, dout, sums),
                         kernels.sqdist_rows_backward(b, x, y, dout, ref)):
        assert got.tobytes() == want.tobytes()


def test_dot_members_backward_matches_fd():
    rng = np.random.default_rng(5)
    _, q, m, dout = _random_inputs(rng)
    dq, dm = kernels.dot_members_backward(q, m, dout)
    _check_fd(kernels.dot_members, [q, m], dout, ((0, dq), (1, dm)))


def test_active_backend_reports_selection():
    assert kernels.active_backend() == "numpy"
