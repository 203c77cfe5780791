import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import grad_mahalanobis_sq, mahalanobis_sq

finite_floats = st.floats(min_value=-10, max_value=10, allow_nan=False)


def vec(dim):
    return arrays(np.float64, dim, elements=finite_floats)


def test_identity_case():
    assert mahalanobis_sq([1, 1], [0.3, -0.7], [0.3, -0.7]) == 0.0


def test_hand_value():
    # b=(1,2), x-y=(3,1): 3^2 + (2*1)^2 = 13
    assert mahalanobis_sq([1, 2], [3, 1], [0, 0]) == pytest.approx(13.0)


def test_zero_metric():
    assert mahalanobis_sq([0, 0], [5, -2], [1, 9]) == 0.0


def test_dimension_mismatch_names_lengths():
    with pytest.raises(ValueError, match="2.*3|3.*2"):
        mahalanobis_sq([1, 1], [1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        grad_mahalanobis_sq([1, 1, 1], [1, 2], [1, 2])


def test_grad_zero_at_minimum():
    db, dx, dy = grad_mahalanobis_sq([1, 2], [0.5, 0.5], [0.5, 0.5])
    assert np.all(db == 0) and np.all(dx == 0) and np.all(dy == 0)


def test_grad_hand_values():
    db, dx, dy = grad_mahalanobis_sq([1, 2], [3, 1], [0, 0])
    np.testing.assert_allclose(dx, [6, 8])
    np.testing.assert_allclose(db, [18, 4])
    np.testing.assert_allclose(dy, -dx)


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(0)
    h = 1e-5
    for _ in range(20):
        b, x, y = rng.normal(size=(3, 4))
        db, dx, dy = grad_mahalanobis_sq(b, x, y)
        for arr, grad in ((b, db), (x, dx), (y, dy)):
            for i in range(4):
                orig = arr[i]
                arr[i] = orig + h
                fp = mahalanobis_sq(b, x, y)
                arr[i] = orig - h
                fm = mahalanobis_sq(b, x, y)
                arr[i] = orig
                fd = (fp - fm) / (2 * h)
                assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-8)


@given(vec(3), vec(3), vec(3))
def test_symmetry(b, x, y):
    assert mahalanobis_sq(b, x, y) == mahalanobis_sq(b, y, x)


@given(vec(3), vec(3), vec(3), st.floats(min_value=-4, max_value=4))
def test_metric_scaling(b, x, y, c):
    scaled = mahalanobis_sq(c * b, x, y)
    assert scaled == pytest.approx(c * c * mahalanobis_sq(b, x, y), rel=1e-9, abs=1e-9)


@given(vec(5), vec(5))
def test_ones_reduces_to_euclidean(x, y):
    assert mahalanobis_sq(np.ones(5), x, y) == pytest.approx(
        float(np.sum((x - y) ** 2)), rel=1e-12, abs=1e-12
    )


@settings(max_examples=50)
@given(vec(3), vec(3), vec(3), vec(3))
def test_triangle_inequality_of_sqrt(b, x, y, z):
    d = lambda a, c: np.sqrt(mahalanobis_sq(b, a, c))
    assert d(x, z) <= d(x, y) + d(y, z) + 1e-9
