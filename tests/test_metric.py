import numpy as np
import pytest

from cgd.linalg import eigendecompose
from cgd.metric import (
    MetricShape,
    MetricSpec,
    MetricStatistic,
    ModeMismatch,
    build_inverse_metric,
    statistic_values,
)
from cgd.moments import MetricShape, MomentState, Timescales, update_moments


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
    with pytest.raises(ValueError):
        MetricSpec("banded", "covariance", 0.5)
    with pytest.raises(ValueError):
        MetricSpec("full", "covariance", np.nan)
    with pytest.raises(ValueError):
        MetricSpec("full", "covariance", 0.5, eps=0.0)


def test_statistic_values_diagonal_state():
    g = np.array([2.0, -1.0])
    st = update_moments(MomentState.initial(2, MetricShape.DIAGONAL), g, Timescales(0.0, 0.0))
    raw = statistic_values(st, MetricSpec("diagonal", "second_moment", 0.5))
    assert np.array_equal(raw, g * g)
    centered = statistic_values(st, MetricSpec("diagonal", "covariance", 0.5))
    assert np.allclose(centered, np.zeros(2), atol=1e-15)


def test_statistic_values_full_state_diag_restriction():
    rng = np.random.default_rng(0)
    st = full_state(rng)
    stat = statistic_values(st, MetricSpec("diagonal", "second_moment", 0.5))
    assert stat.ndim == 1
    assert np.array_equal(stat, np.diag(st.m2))


def test_full_metric_needs_full_state():
    st = MomentState.initial(3, MetricShape.DIAGONAL)
    with pytest.raises(ModeMismatch):
        statistic_values(st, MetricSpec("full", "second_moment", 0.5))


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
    assert op.computed_at == 3
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
    w, v = eigendecompose(cov)
    dense = (v * (np.maximum(w, 0.0) + 1e-6) ** -0.4) @ v.T
    assert np.allclose(got, dense @ f, atol=1e-10)


def test_power_zero_diagonal_identity_bitwise():
    # the plain-gradient-descent corner must not perturb the force at all
    st = MomentState(m1=np.zeros(2), m2=np.array([3.0, 0.1]), step=1)
    spec = MetricSpec("diagonal", "second_moment", 0.0)
    f = np.array([0.1237, -45.6789])
    assert np.array_equal(build_inverse_metric(st, spec).apply(f), f)


def test_operator_caches_step_stamp():
    rng = np.random.default_rng(6)
    st = full_state(rng, steps=7)
    op = build_inverse_metric(st, MetricSpec("full", "second_moment", 0.5))
    assert op.computed_at == st.step == 7


def test_operator_keeps_the_raw_spectrum_it_decomposed():
    rng = np.random.default_rng(7)
    # a first moment larger than the second moment's scale makes the
    # covariance indefinite
    st = MomentState(m1=3.0 * np.ones(4), m2=full_state(rng).m2, step=12)
    spec = MetricSpec("full", "covariance", 0.4)
    op = build_inverse_metric(st, spec)
    raw = eigendecompose(statistic_values(st, spec)).eigenvalues
    assert np.min(raw) < 0.0  # indefinite: the kept spectrum is not clamped
    assert np.array_equal(op.eigenvalues, raw)
    assert build_inverse_metric(st, MetricSpec("diagonal", "covariance", 0.4)).eigenvalues is None
