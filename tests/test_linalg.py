import numpy as np
import pytest

from cgd.linalg import (
    DomainError,
    NonConvergence,
    NonFiniteMatrix,
    apply_inverse_metric,
    apply_inverse_metric_diag,
    eigendecompose,
    sym_matrix_power,
)


def random_symmetric(rng, d, scale=1.0):
    a = rng.standard_normal((d, d)) * scale
    return (a + a.T) / 2.0


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


@pytest.mark.parametrize("method", ["jacobi", "lapack"])
@pytest.mark.parametrize("d", [2, 3, 8, 17])
def test_reconstruction(method, d):
    rng = np.random.default_rng(d)
    a = random_symmetric(rng, d, scale=3.0)
    w, v = eigendecompose(a, method=method)
    assert np.all(np.diff(w) >= 0)
    assert np.allclose(v @ np.diag(w) @ v.T, a, atol=1e-9)
    assert np.allclose(v.T @ v, np.eye(d), atol=1e-12)


def test_auto_switches_backend_above_limit():
    # both ends of the "auto" policy must satisfy the same contract
    rng = np.random.default_rng(0)
    for d in (32, 40):
        a = random_symmetric(rng, d)
        w, v = eigendecompose(a, method="auto")
        assert np.allclose(v @ np.diag(w) @ v.T, a, atol=1e-9)


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
        eigendecompose([[np.inf, 0.0], [0.0, 1.0]], method="lapack")
    assert issubclass(NonFiniteMatrix, ValueError)
    with pytest.raises(ValueError):
        eigendecompose(np.eye(2), method="qr")


def test_jacobi_nonconvergence_when_sweeps_exhausted():
    a = [[2.0, 1.0], [1.0, 2.0]]
    with pytest.raises(NonConvergence):
        eigendecompose(a, method="jacobi", max_sweeps=0)


def test_matrix_power_composition():
    rng = np.random.default_rng(3)
    a = random_symmetric(rng, 5)
    spd = a @ a.T + 0.1 * np.eye(5)
    spd = (spd + spd.T) / 2.0
    half = sym_matrix_power(spd, 0.5)
    assert np.allclose(half @ half, spd, atol=1e-8)
    assert np.allclose(sym_matrix_power(spd, 1.0), spd, atol=1e-10)
    assert np.allclose(sym_matrix_power(spd, 0.0), np.eye(5), atol=1e-12)
    inv = sym_matrix_power(spd, -1.0)
    assert np.allclose(inv @ spd, np.eye(5), atol=1e-8)


def test_matrix_power_result_exactly_symmetric():
    rng = np.random.default_rng(11)
    a = random_symmetric(rng, 6)
    spd = a @ a.T + np.eye(6)
    b = sym_matrix_power((spd + spd.T) / 2.0, 0.3)
    assert np.array_equal(b, b.T)


def test_fractional_power_of_indefinite_matrix():
    # [[0, 0.5], [0.5, 0]] has eigenvalues -0.5 and 0.5
    c = [[0.0, 0.5], [0.5, 0.0]]
    with pytest.raises(DomainError):
        sym_matrix_power(c, 0.5)
    # integer powers stay legal without a floor
    sq = sym_matrix_power(c, 2.0)
    assert np.allclose(sq, 0.25 * np.eye(2), atol=1e-14)
    # a floor clamps the negative branch: eigenvalues become (floor, 0.5)
    clamped = sym_matrix_power(c, 0.5, floor=0.5)
    w, _ = eigendecompose(clamped)
    assert np.allclose(w, [np.sqrt(0.5), np.sqrt(0.5)], atol=1e-12)
    with pytest.raises(ValueError):
        sym_matrix_power(c, 0.5, floor=-1.0)


def test_apply_inverse_metric_matches_dense_power():
    rng = np.random.default_rng(5)
    c = random_symmetric(rng, 7)
    f = rng.standard_normal(7)
    eps, a = 1e-3, 0.37
    got = apply_inverse_metric(c, a, eps, f)
    w, v = eigendecompose(c)
    dense = (v * (np.maximum(w, 0.0) + eps) ** (-a)) @ v.T
    assert np.allclose(got, dense @ f, atol=1e-10)


def test_clamp_happens_before_shift():
    # eigenvalue -0.5 clamps to 0, then eps=1 shifts to 1: unit weight on
    # that eigendirection, (1.5)^(-0.5) on the other
    c = np.array([[0.0, 0.5], [0.5, 0.0]])
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)  # eigenvector of -0.5
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    out_minus = apply_inverse_metric(c, 0.5, 1.0, minus)
    out_plus = apply_inverse_metric(c, 0.5, 1.0, plus)
    assert np.allclose(out_minus, minus, atol=1e-12)
    assert np.allclose(out_plus, plus / np.sqrt(1.5), atol=1e-12)


def test_diagonal_path_matches_full_path():
    rng = np.random.default_rng(9)
    values = rng.uniform(-1.0, 4.0, size=6)
    f = rng.standard_normal(6)
    fast = apply_inverse_metric_diag(values, 0.41, 1e-8, f)
    full = apply_inverse_metric(np.diag(values), 0.41, 1e-8, f)
    assert np.allclose(fast, full, atol=1e-12)


def test_power_zero_is_identity_bitwise():
    f = np.array([0.123456789, -9.87654321e3, 1e-12])
    out = apply_inverse_metric_diag(np.array([4.0, 0.5, 7.0]), 0.0, 1e-8, f)
    assert np.array_equal(out, f)


def test_eps_must_be_positive():
    with pytest.raises(ValueError):
        apply_inverse_metric(np.eye(2), 0.5, 0.0, np.ones(2))
    with pytest.raises(ValueError):
        apply_inverse_metric_diag(np.ones(2), 0.5, -1.0, np.ones(2))
