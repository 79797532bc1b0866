import numpy as np
import pytest

from cgd.linalg import eigendecompose
from cgd.metric import (
    MetricShape,
    MetricSpec,
    MetricStatistic,
    build_inverse_metric,
)
from cgd.moments import MetricShape, MomentState, Timescales, covariance, update_moments


def random_symmetric(rng, d):
    a = rng.standard_normal((d, d))
    return (a + a.T) / 2.0


def inverse_metric(m2, power, eps, shape="full"):
    """The runtime operator (eps*I + clamp0(m2))^(-power) over a state whose
    second moment is ``m2`` (a matrix, or a vector for a diagonal state)."""
    m2 = np.asarray(m2, dtype=np.float64)
    state = MomentState(m1=np.zeros(m2.shape[0]), m2=m2, step=1)
    return build_inverse_metric(state, MetricSpec(shape, "second_moment", power, eps=eps))


def full_state(rng, d=4, steps=12, ts=Timescales(3.0, 8.0)):
    st = MomentState.initial(d, MetricShape.FULL)
    for _ in range(steps):
        st = update_moments(st, rng.standard_normal(d), ts)
    return st


def test_spec_accepts_strings_and_validates():
    spec = MetricSpec("diagonal", "covariance", 0.23)
    assert spec.shape is MetricShape.DIAGONAL
    assert spec.statistic is MetricStatistic.COVARIANCE
    assert spec.eps == 1e-8
    banded = r"^shape: expected one of \('diagonal', 'full'\), got 'banded'$"
    with pytest.raises(ValueError, match=banded):
        MetricSpec("banded", "covariance", 0.5)
    with pytest.raises(ValueError):
        MetricSpec("full", "covariance", np.nan)
    with pytest.raises(ValueError):
        MetricSpec("full", "covariance", 0.5, eps=0.0)


def test_statistic_values_diagonal_state():
    # tau = 0 makes m1 = g and m2 = g*g exactly, so the covariance is 0;
    # with eps = 1 and a = 0.5 the weights are (S + 1)^-0.5
    g = np.array([2.0, -1.0])
    st = update_moments(MomentState.initial(2, MetricShape.DIAGONAL), g, Timescales(0.0, 0.0))
    raw = build_inverse_metric(st, MetricSpec("diagonal", "second_moment", 0.5, eps=1.0))
    assert np.array_equal(raw.weights, [5.0 ** -0.5, 2.0 ** -0.5])
    centered = build_inverse_metric(st, MetricSpec("diagonal", "covariance", 0.5, eps=1.0))
    assert np.array_equal(centered.weights, [1.0, 1.0])
    assert raw.factorization is None and centered.factorization is None


def test_diagonal_metric_needs_diagonal_state():
    # a full state is not cut down to its diagonal
    st = full_state(np.random.default_rng(0))
    for statistic in MetricStatistic:
        with pytest.raises(ValueError, match="^state: a full-mode state"):
            build_inverse_metric(st, MetricSpec("diagonal", statistic, 0.5))


def test_full_metric_needs_full_state():
    st = MomentState.initial(3, MetricShape.DIAGONAL)
    for statistic in MetricStatistic:
        with pytest.raises(ValueError, match="^state: a diagonal-mode state"):
            build_inverse_metric(st, MetricSpec("full", statistic, 0.5))


def test_diagonal_clamp_then_shift():
    # entry -0.5 clamps to 0 before eps=1 shifts it: weight (0+1)^-0.5 = 1
    st = MomentState(m1=np.array([1.0, 0.0]), m2=np.array([0.5, 2.0]), step=1)
    spec = MetricSpec("diagonal", "covariance", 0.5, eps=1.0)
    op = build_inverse_metric(st, spec)
    assert np.allclose(op.weights, [1.0, 3.0 ** -0.5], atol=1e-15)


def test_full_metric_known_two_by_two():
    # covariance [[0, 0.5], [0.5, 0]] has eigenvalues -0.5, 0.5; with eps=1
    # and a=0.5 the operator has eigenvalues 1 and 1.5^-0.5
    m2 = np.array([[1.0, 1.5], [1.5, 1.0]])
    st = MomentState(m1=np.ones(2), m2=m2, step=3)
    spec = MetricSpec("full", "covariance", 0.5, eps=1.0)
    op = build_inverse_metric(st, spec)
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert np.allclose(op.apply(minus), minus, atol=1e-12)
    assert np.allclose(op.apply(plus), plus / np.sqrt(1.5), atol=1e-12)


def test_inverse_metric_is_spd():
    rng = np.random.default_rng(4)
    st = full_state(rng, d=6, ts=Timescales(1.0, 30.0))
    spec = MetricSpec("full", "covariance", 0.39)
    op = build_inverse_metric(st, spec)
    assert np.all(op.weights > 0.0)
    for _ in range(10):
        f = rng.standard_normal(6)
        assert f @ op.apply(f) > 0.0


def test_precondition_matches_dense_computation():
    rng = np.random.default_rng(5)
    st = full_state(rng, d=5)
    f = rng.standard_normal(5)
    spec = MetricSpec("full", "covariance", 0.4, eps=1e-6)
    got = build_inverse_metric(st, spec).apply(f)
    cov = st.m2 - np.outer(st.m1, st.m1)
    w, v = np.linalg.eigh(cov)
    dense = (v * (np.maximum(w, 0.0) + 1e-6) ** -0.4) @ v.T
    assert np.allclose(got, dense @ f, atol=1e-10)


def test_power_zero_diagonal_identity_bitwise():
    # the plain-gradient-descent corner must not perturb the force at all
    st = MomentState(m1=np.zeros(2), m2=np.array([3.0, 0.1]), step=1)
    spec = MetricSpec("diagonal", "second_moment", 0.0)
    f = np.array([0.1237, -45.6789])
    assert np.array_equal(build_inverse_metric(st, spec).apply(f), f)


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
    w, v = np.linalg.eigh(c)
    dense = (v * (np.maximum(w, 0.0) + eps) ** (-a)) @ v.T
    assert np.allclose(got, dense @ f, atol=1e-10)


def test_diagonal_path_matches_full_path():
    # a diagonal spec on a diagonal-mode state skips the eigendecomposition;
    # it must agree with the full spec on a full-mode state holding diag(m2)
    rng = np.random.default_rng(9)
    m2 = rng.uniform(-1.0, 4.0, size=6)
    f = rng.standard_normal(6)
    fast = inverse_metric(m2, 0.41, 1e-8, shape="diagonal")
    full = inverse_metric(np.diag(m2), 0.41, 1e-8)
    assert fast.factorization is None and full.factorization is not None
    assert np.allclose(fast.apply(f), full.apply(f), atol=1e-12)


def test_eps_must_be_positive():
    with pytest.raises(ValueError):
        MetricSpec("full", "second_moment", 0.5, eps=0.0)
    with pytest.raises(ValueError):
        MetricSpec("diagonal", "second_moment", 0.5, eps=-1.0)
    # an infinite eps would zero every weight and freeze the parameters
    for eps in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            MetricSpec("full", "second_moment", 0.5, eps=eps)


def test_operator_keeps_the_raw_spectrum_it_decomposed():
    rng = np.random.default_rng(7)
    # a first moment larger than the second moment's scale makes the
    # covariance indefinite
    st = MomentState(m1=3.0 * np.ones(4), m2=full_state(rng).m2, step=12)
    spec = MetricSpec("full", "covariance", 0.4)
    op = build_inverse_metric(st, spec)
    raw = eigendecompose(covariance(st)).eigenvalues
    assert np.min(raw) < 0.0  # indefinite: the kept spectrum is not clamped
    assert np.array_equal(op.eigenvalues, raw)
    diag = MomentState(m1=st.m1, m2=np.diag(st.m2).copy(), step=12)
    assert build_inverse_metric(diag, MetricSpec("diagonal", "covariance", 0.4)).eigenvalues is None
