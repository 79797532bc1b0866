"""The checked eigendecomposition, and the fractional powers of a statistic
that the inverse-metric operator takes on its spectrum."""

import numpy as np
import pytest

from cgd.linalg import NonFiniteMatrix, eigendecompose
from cgd.metric import MetricSpec, build_inverse_metric
from cgd.moments import MomentState


def random_symmetric(rng, d, scale=1.0):
    a = rng.standard_normal((d, d)) * scale
    return (a + a.T) / 2.0


def inverse_metric(m2, power, eps, shape="full"):
    """The runtime operator (eps*I + clamp0(m2))^(-power) over a state whose
    second moment is ``m2`` (a matrix, or a vector for a diagonal state)."""
    m2 = np.asarray(m2, dtype=np.float64)
    state = MomentState(m1=np.zeros(m2.shape[0]), m2=m2, step=1)
    return build_inverse_metric(state, MetricSpec(shape, "second_moment", power, eps=eps))


def test_two_by_two_known_spectrum():
    # characteristic polynomial of [[2,1],[1,2]]: (2-w)^2 - 1 -> w = 1, 3
    w, v = eigendecompose([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(w, [1.0, 3.0], atol=1e-14)
    assert np.allclose(v.T @ v, np.eye(2), atol=1e-14)


def test_identity_spectrum():
    w, v = eigendecompose(np.eye(4))
    assert np.array_equal(w, np.ones(4))
    # columns must still form an orthonormal basis
    assert np.allclose(v.T @ v, np.eye(4), atol=1e-14)


def test_diagonal_matrix_sorted_ascending():
    w, _ = eigendecompose(np.diag([5.0, -3.0]))
    assert np.array_equal(w, [-3.0, 5.0])


@pytest.mark.parametrize("d", [2, 3, 8, 17])
def test_reconstruction(d):
    rng = np.random.default_rng(d)
    a = random_symmetric(rng, d, scale=3.0)
    w, v = eigendecompose(a)
    assert np.all(np.diff(w) >= 0)
    assert np.allclose(v @ np.diag(w) @ v.T, a, atol=1e-9)
    assert np.allclose(v.T @ v, np.eye(d), atol=1e-12)


def test_rotation_equivariance_of_spectrum():
    rng = np.random.default_rng(7)
    a = random_symmetric(rng, 6)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    w_a, _ = eigendecompose(a)
    w_r, _ = eigendecompose((q @ a @ q.T + (q @ a @ q.T).T) / 2.0)
    assert np.allclose(np.sort(w_a), np.sort(w_r), atol=1e-9)


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        eigendecompose(np.ones((2, 3)))
    with pytest.raises(ValueError):
        eigendecompose([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(NonFiniteMatrix):
        eigendecompose([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(NonFiniteMatrix):
        eigendecompose([[np.inf, 0.0], [0.0, 1.0]])
    assert issubclass(NonFiniteMatrix, ValueError)


def test_matrix_power_composition():
    # the operator at power p is spd^(-p) when eps is negligible next to the
    # spectrum, so powers -1/2, -1, 0 and 1 give a square root of spd, spd
    # itself, the identity and its inverse
    rng = np.random.default_rng(3)
    a = random_symmetric(rng, 5)
    spd = a @ a.T + 0.1 * np.eye(5)
    spd = (spd + spd.T) / 2.0

    def dense(power):
        op = inverse_metric(spd, power, 1e-300)
        return np.column_stack([op.apply(col) for col in np.eye(5)])

    half = dense(-0.5)
    assert np.allclose(half @ half, spd, atol=1e-8)
    assert np.allclose(dense(-1.0), spd, atol=1e-10)
    assert np.allclose(dense(0.0), np.eye(5), atol=1e-12)
    assert np.allclose(dense(1.0) @ spd, np.eye(5), atol=1e-8)


def test_apply_inverse_metric_matches_dense_power():
    rng = np.random.default_rng(5)
    c = random_symmetric(rng, 7)
    f = rng.standard_normal(7)
    eps, a = 1e-3, 0.37
    got = inverse_metric(c, a, eps).apply(f)
    w, v = eigendecompose(c)
    dense = (v * (np.maximum(w, 0.0) + eps) ** (-a)) @ v.T
    assert np.allclose(got, dense @ f, atol=1e-10)


def test_clamp_happens_before_shift():
    # eigenvalue -0.5 clamps to 0, then eps=1 shifts to 1: unit weight on
    # that eigendirection, (1.5)^(-0.5) on the other
    c = np.array([[0.0, 0.5], [0.5, 0.0]])
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)  # eigenvector of -0.5
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    op = inverse_metric(c, 0.5, 1.0)
    out_minus = op.apply(minus)
    out_plus = op.apply(plus)
    assert np.allclose(out_minus, minus, atol=1e-12)
    assert np.allclose(out_plus, plus / np.sqrt(1.5), atol=1e-12)


def test_diagonal_path_matches_full_path():
    # a diagonal spec reads diag(m2) of a full-mode state and skips the
    # eigendecomposition; on a diagonal m2 it must agree with the full spec
    rng = np.random.default_rng(9)
    m2 = np.diag(rng.uniform(-1.0, 4.0, size=6))
    f = rng.standard_normal(6)
    fast = inverse_metric(m2, 0.41, 1e-8, shape="diagonal")
    full = inverse_metric(m2, 0.41, 1e-8)
    assert fast.basis is None and full.basis is not None
    assert np.allclose(fast.apply(f), full.apply(f), atol=1e-12)


def test_power_zero_is_identity_bitwise():
    f = np.array([0.123456789, -9.87654321e3, 1e-12])
    out = inverse_metric([4.0, 0.5, 7.0], 0.0, 1e-8, shape="diagonal").apply(f)
    assert np.array_equal(out, f)


def test_eps_must_be_positive():
    with pytest.raises(ValueError):
        MetricSpec("full", "second_moment", 0.5, eps=0.0)
    with pytest.raises(ValueError):
        MetricSpec("diagonal", "second_moment", 0.5, eps=-1.0)
