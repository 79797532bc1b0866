"""The checked eigendecomposition: its spectrum and eigenvectors, the powers a
metric build takes on it, the tridiagonal path that serves large matrices, and
the copies of its input it makes or avoids when a metric build calls it."""

import tracemalloc

import numpy as np
import pytest

from cgd import linalg
from cgd.linalg import TRIDIAGONAL_MIN_DIM, EigenDecomposition, eigendecompose
from cgd.metric import build_inverse_metric
from cgd.optimizer import CgdConfig


def random_symmetric(rng, d, scale=1.0):
    a = rng.standard_normal((d, d)) * scale
    return (a + a.T) / 2.0


def metric(shape, statistic, power, eps=1e-8):
    """A config with the given metric; only the metric plays a part in a build."""
    return CgdConfig(1.0, 0.0, 0.0, shape, statistic, power, eps)


def dense_product(dec, weights):
    """V diag(weights) V^T as a matrix, one ``apply`` per unit vector."""
    n = dec.eigenvalues.shape[0]
    return np.column_stack([dec.apply(weights, e) for e in np.eye(n)])


def test_two_by_two_known_spectrum():
    # characteristic polynomial of [[2,1],[1,2]]: (2-w)^2 - 1 -> w = 1, 3
    dec = eigendecompose([[2.0, 1.0], [1.0, 2.0]])
    w = dec.eigenvalues
    assert np.allclose(w, [1.0, 3.0], atol=1e-14)
    # unit weights give V V^T, the identity for an orthonormal V
    assert np.allclose(dense_product(dec, np.ones(2)), np.eye(2), atol=1e-14)
    assert np.allclose(dense_product(dec, w), [[2.0, 1.0], [1.0, 2.0]], atol=1e-14)


def test_identity_spectrum():
    dec = eigendecompose(np.eye(4))
    assert np.array_equal(dec.eigenvalues, np.ones(4))
    # the eigenvectors must still form an orthonormal basis
    assert np.allclose(dense_product(dec, np.ones(4)), np.eye(4), atol=1e-14)


def test_diagonal_matrix_sorted_ascending():
    w = eigendecompose(np.diag([5.0, -3.0])).eigenvalues
    assert np.array_equal(w, [-3.0, 5.0])


@pytest.mark.parametrize("d", [2, 3, 8, 17])
def test_reconstruction(d):
    rng = np.random.default_rng(d)
    a = random_symmetric(rng, d, scale=3.0)
    dec = eigendecompose(a)
    w = dec.eigenvalues
    assert np.all(np.diff(w) >= 0)
    assert np.allclose(dense_product(dec, w), a, atol=1e-9)
    assert np.allclose(dense_product(dec, np.ones(d)), np.eye(d), atol=1e-12)


def test_rotation_equivariance_of_spectrum():
    rng = np.random.default_rng(7)
    a = random_symmetric(rng, 6)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    w_a = eigendecompose(a).eigenvalues
    w_r = eigendecompose((q @ a @ q.T + (q @ a @ q.T).T) / 2.0).eigenvalues
    assert np.allclose(np.sort(w_a), np.sort(w_r), atol=1e-9)


def test_rejects_bad_input():
    # a bad shape is a bad argument, never LinAlgError: that type means a
    # numerical failure (exit 3 in the CLI)
    for bad in (np.ones((2, 3)), [[0.0, 1.0], [2.0, 0.0]]):
        with pytest.raises(ValueError, match="^a:") as caught:
            eigendecompose(bad)
        assert not isinstance(caught.value, np.linalg.LinAlgError)
    # a non-finite entry is numpy's own LinAlgError, as np.linalg.eigh raises
    with pytest.raises(np.linalg.LinAlgError):
        eigendecompose([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(np.linalg.LinAlgError):
        eigendecompose([[np.inf, 0.0], [0.0, 1.0]])


# --- the powers a metric build takes on the decomposed spectrum ---

def test_clamp_happens_before_shift():
    # eigenvalue -0.5 clamps to 0, then eps=1 shifts to 1: unit weight on
    # that eigendirection, (1.5)^(-0.5) on the other
    m2 = np.array([[0.0, 0.5], [0.5, 0.0]])
    op = build_inverse_metric(np.zeros(2), m2, metric("full", "second_moment", 0.5, eps=1.0))
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)  # eigenvector of -0.5
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert np.allclose(op.apply(minus), minus, atol=1e-12)
    assert np.allclose(op.apply(plus), plus / np.sqrt(1.5), atol=1e-12)


def test_power_zero_is_identity_bitwise():
    op = build_inverse_metric(np.zeros(3), np.array([4.0, 0.5, 7.0]),
                              metric("diagonal", "second_moment", 0.0, eps=1e-8))
    f = np.array([0.123456789, -9.87654321e3, 1e-12])
    assert np.array_equal(op.apply(f), f)


# --- the tridiagonal path: eigh's first two LAPACK stages, reflectors kept ---

tridiagonal = pytest.mark.skipif(linalg._binding() is None,
                                 reason="numpy bundles no scipy-openblas LAPACK")
PARITY_DIMS = sorted({64, 100, 552, TRIDIAGONAL_MIN_DIM})


@tridiagonal
@pytest.mark.parametrize("d", PARITY_DIMS)
@pytest.mark.parametrize("scale", [1.0, 1e-160, 1e150])
def test_tridiagonal_path_is_bitwise_eigh(d, scale):
    # 1e-160 and 1e150 put the largest entry below RMIN and above RMAX, where
    # dsyevd decomposes a rescaled copy and rescales the eigenvalues back
    a = random_symmetric(np.random.default_rng(d), d, scale=scale)
    w = np.linalg.eigh(a)[0]
    # overwrite_a hands dsytrd the caller's own buffer, in either layout
    for given, overwrite in ((a, False), (a.copy(), True), (np.asfortranarray(a), True)):
        dec = eigendecompose(given, overwrite_a=overwrite)
        assert dec.reflectors is not None
        assert np.shares_memory(dec.reflectors, given) is overwrite
        assert np.array_equal(dec.eigenvalues, w)


@tridiagonal
@pytest.mark.parametrize("d", PARITY_DIMS)
def test_tridiagonal_apply_matches_dense_product(d):
    rng = np.random.default_rng(d + 1)
    g = rng.standard_normal((d, d // 3))
    x = rng.standard_normal(d)
    for scale in (1.0, 1e-160, 1e150):
        # at 1e-160 and 1e150 the reflectors are those of the rescaled matrix
        a = g @ g.T * scale  # rank-deficient, like the metric's covariance
        a = (a + a.T) / 2.0
        v = np.linalg.eigh(a)[1]
        for given, overwrite in ((a, False), (a.copy(), True), (np.asfortranarray(a), True)):
            dec = eigendecompose(given, overwrite_a=overwrite)
            weights = (np.maximum(dec.eigenvalues, 0.0) + 1e-8 * scale) ** -0.4
            dense = v @ (weights * (v.T @ x))
            got = dec.apply(weights, x)
            assert np.max(np.abs(got - dense)) <= 1e-12 * np.max(np.abs(dense))
    # LAPACK would read past the end of a short vector
    with pytest.raises(ValueError, match="length"):
        dec.apply(weights, x[:-1])


@tridiagonal
def test_factorization_holds_reflectors_tau_and_z_only():
    d = TRIDIAGONAL_MIN_DIM + 6
    dec = eigendecompose(random_symmetric(np.random.default_rng(2), d))
    assert EigenDecomposition._fields == ("eigenvalues", "z", "reflectors", "tau")
    assert dec.eigenvalues.shape == (d,) and dec.tau.shape == (d - 1,)
    assert dec.z.shape == dec.reflectors.shape == (d, d)


@tridiagonal
def test_non_converging_tridiagonal_solver_raises_linalg_error(monkeypatch):
    def failing_dstedc(*args):
        args[10]._obj.value = 1  # info > 0: the solver did not converge

    monkeypatch.setattr(linalg._binding(), "dstedc", failing_dstedc)
    with pytest.raises(np.linalg.LinAlgError, match="dstedc"):
        eigendecompose(random_symmetric(np.random.default_rng(0), TRIDIAGONAL_MIN_DIM))


@tridiagonal
def test_illegal_lapack_argument_raises_value_error(monkeypatch):
    def rejecting_dstedc(*args):
        args[10]._obj.value = -4  # info < 0: argument 4 had an illegal value

    monkeypatch.setattr(linalg._binding(), "dstedc", rejecting_dstedc)
    with pytest.raises(ValueError, match="^dstedc: illegal value in argument 4") as caught:
        eigendecompose(random_symmetric(np.random.default_rng(0), TRIDIAGONAL_MIN_DIM))
    assert not isinstance(caught.value, np.linalg.LinAlgError)


def _assert_is_eigh(a):
    dec = eigendecompose(a)
    w, v = np.linalg.eigh(a)
    assert dec.reflectors is None and dec.tau is None
    assert np.array_equal(dec.eigenvalues, w)
    assert np.array_equal(dec.z, v)
    x = np.random.default_rng(1).standard_normal(a.shape[0])
    weights = np.linspace(0.5, 2.0, a.shape[0])
    assert np.array_equal(dec.apply(weights, x), v @ (weights * (v.T @ x)))


def test_below_threshold_is_eigh():
    _assert_is_eigh(random_symmetric(np.random.default_rng(3), TRIDIAGONAL_MIN_DIM - 1))


def test_missing_binding_falls_back_to_eigh(monkeypatch):
    monkeypatch.setattr(linalg, "_binding", lambda: None)
    _assert_is_eigh(random_symmetric(np.random.default_rng(4), 100))


@pytest.mark.parametrize("n", [10, 100])
def test_apply_refuses_a_column_on_both_paths(n):
    # an (n, 1) column would broadcast into an (n, n) product on the eigh path
    dec = eigendecompose(random_symmetric(np.random.default_rng(n), n))
    x = np.random.default_rng(0).standard_normal(n)
    weights = np.ones(n)
    assert dec.apply(weights, x).shape == (n,)
    with pytest.raises(ValueError, match="length"):
        dec.apply(weights, x[:, None])


# --- overwrite_a: the tridiagonal path reduces a caller's buffer in place ---


@pytest.mark.parametrize("n", [10, 100])
def test_default_leaves_the_input_unchanged(n):
    a = random_symmetric(np.random.default_rng(n), n)
    before = a.copy()
    dec = eigendecompose(a)
    assert a.tobytes() == before.tobytes()
    assert not np.shares_memory(dec.z, a)
    assert dec.reflectors is None or not np.shares_memory(dec.reflectors, a)


@tridiagonal
def test_overwrite_copies_a_non_contiguous_view():
    d = TRIDIAGONAL_MIN_DIM + 6
    big = random_symmetric(np.random.default_rng(5), 2 * d)
    before = big.copy()
    view = big[::2, ::2]  # symmetric, strided in both axes
    dec = eigendecompose(view, overwrite_a=True)
    assert big.tobytes() == before.tobytes()
    assert not np.shares_memory(dec.reflectors, big)
    assert np.array_equal(dec.eigenvalues, np.linalg.eigh(view)[0])
    # the copy is reduced exactly as a contiguous copy of the view would be
    contiguous = eigendecompose(np.ascontiguousarray(view))
    x = np.random.default_rng(0).standard_normal(d)
    weights = np.linspace(0.5, 2.0, d)
    assert np.array_equal(dec.apply(weights, x), contiguous.apply(weights, x))


@tridiagonal
def test_overwrite_copies_a_read_only_input():
    a = random_symmetric(np.random.default_rng(6), TRIDIAGONAL_MIN_DIM)
    before = a.copy()
    a.flags.writeable = False
    dec = eigendecompose(a, overwrite_a=True)
    assert a.tobytes() == before.tobytes()
    assert np.array_equal(dec.eigenvalues, np.linalg.eigh(before)[0])


def _moments(d, seed):
    """(m1, m2) with a rank-deficient, exactly symmetric d x d second moment."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d // 2))
    m2 = g @ g.T / d
    return rng.standard_normal(d) * 0.1, (m2 + m2.T) / 2.0


@tridiagonal
def test_covariance_build_peaks_below_four_matrices():
    # the covariance, z and the one LAPACK workspace are live together; a
    # copy of the covariance for dsytrd would be a fourth d x d array, and a
    # separate dsytrd workspace (d x 32) kept alive under dstedc's a quarter
    d = 128
    moments = _moments(d, 7)
    cfg = metric("full", "covariance", 0.4)
    build_inverse_metric(*moments, cfg)  # binds LAPACK
    tracemalloc.start()
    try:
        build_inverse_metric(*moments, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.2 * d * d * 8


def test_second_moment_build_leaves_m2_unchanged():
    # a second-moment metric decomposes the caller's own m2, which it must copy
    m1, m2 = _moments(100, 8)
    before = m2.copy()
    op = build_inverse_metric(m1, m2, metric("full", "second_moment", 0.4))
    assert m2.tobytes() == before.tobytes()
    assert np.array_equal(op.eigenvalues, np.linalg.eigh(before)[0])
