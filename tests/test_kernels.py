import numpy as np
import pytest

from metric_rec import kernels


def _random_inputs(rng, n=3, c=4, l=2, d=3):
    """Candidate-major inputs: n contexts, c candidates each, l members each."""
    b = rng.normal(size=d)
    x = rng.normal(size=(n, d))
    y = rng.normal(size=(n, c, d))
    q = rng.normal(size=(n, c, d))
    m = rng.normal(size=(n, l, d))
    dout_rows = rng.normal(size=(n, c))
    dout_members = rng.normal(size=(n, c, l))
    return b, x, y, q, m, dout_rows, dout_members


def test_numpy_forward_values():
    b = np.array([1.0, 2.0])
    x = np.array([[3.0, 1.0]])
    y = np.array([[[0.0, 0.0], [3.0, 0.0]]])
    np.testing.assert_allclose(kernels.sqdist_rows(b, x, y), [[13.0, 4.0]])
    q = np.array([[[1.0, 0.0], [0.0, 1.0]]])
    m = np.array([[[0.0, 1.0], [1.0, 0.0]]])
    np.testing.assert_allclose(kernels.sqdist_members(b, q, m), [[[5.0, 0.0], [0.0, 5.0]]])
    np.testing.assert_allclose(kernels.dot_members(q, m), [[[0.0, 1.0], [1.0, 0.0]]])


def test_sqdist_members_matches_direct_difference():
    rng = np.random.default_rng(8)
    b, _, _, q, m, _, _ = _random_inputs(rng, n=5, c=7, l=6, d=16)
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
    b, _, _, q, m, _, dout = _random_inputs(rng)
    dq, dm, db = kernels.sqdist_members_backward(b, q, m, dout)
    _check_fd(kernels.sqdist_members, [b, q, m], dout, ((1, dq), (2, dm), (0, db)))


def test_sqdist_rows_backward_matches_fd():
    rng = np.random.default_rng(4)
    b, x, y, _, _, dout, _ = _random_inputs(rng)
    dx, dy, db = kernels.sqdist_rows_backward(b, x, y, dout)
    _check_fd(kernels.sqdist_rows, [b, x, y], dout, ((1, dx), (2, dy), (0, db)))


def test_dot_members_backward_matches_fd():
    rng = np.random.default_rng(5)
    _, _, _, q, m, _, dout = _random_inputs(rng)
    dq, dm = kernels.dot_members_backward(q, m, dout)
    _check_fd(kernels.dot_members, [q, m], dout, ((0, dq), (1, dm)))


def test_active_backend_reports_selection():
    assert kernels.active_backend() == "numpy"
