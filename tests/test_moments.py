import numpy as np
import pytest

from cgd.moments import (
    BLOCK_ROWS,
    MetricShape,
    MomentState,
    Timescales,
    covariance,
    ema_update,
    update_moments,
)


def test_timescales_validation():
    Timescales(0.0, 0.0)
    Timescales(9.24, 13.6)
    with pytest.raises(ValueError):
        Timescales(-1.0, 0.0)
    with pytest.raises(ValueError):
        Timescales(0.0, np.inf)
    with pytest.raises(ValueError):
        Timescales(np.nan, 1.0)


def test_ema_tau_zero_returns_sample_bitwise():
    prev = np.array([3.7, -1.2])
    sample = np.array([0.1234567890123456, 7.7e-13])
    assert np.array_equal(ema_update(prev, sample, 0.0), sample)


def test_ema_fixed_point():
    x = np.array([2.5, -0.5])
    out = ema_update(x, x, 19.0)
    assert np.allclose(out, x, atol=1e-15)


def test_ema_matches_closed_form_weighted_sum():
    # avg_t = sum_s beta^(t-s) x_s / (1+tau) + beta^t avg_0
    rng = np.random.default_rng(0)
    tau = 7.3
    beta = tau / (1.0 + tau)
    samples = rng.standard_normal(20)
    for init in (0.0, 1.0):
        avg = init
        for t, x in enumerate(samples, start=1):
            avg = ema_update(avg, x, tau)
            direct = beta**t * init + sum(
                beta ** (t - s) * samples[s - 1] / (1.0 + tau) for s in range(1, t + 1)
            )
            assert abs(avg - direct) < 1e-12


def test_ema_rejects_bad_tau():
    with pytest.raises(ValueError):
        ema_update(0.0, 1.0, -0.5)
    with pytest.raises(ValueError):
        ema_update(0.0, 1.0, np.inf)


def test_initial_state():
    diag = MomentState.initial(3, MetricShape.DIAGONAL)
    assert np.array_equal(diag.m1, np.zeros(3))
    assert np.array_equal(diag.m2, np.ones(3))
    assert diag.step == 0 and diag.mode is MetricShape.DIAGONAL and diag.dim == 3

    full = MomentState.initial(3, MetricShape.FULL)
    assert np.array_equal(full.m2, np.eye(3))
    assert full.mode is MetricShape.FULL
    assert MomentState.initial(3, "full").mode is MetricShape.FULL

    with pytest.raises(ValueError):
        MomentState.initial(0)
    banded = r"^shape: expected one of \('diagonal', 'full'\), got 'banded'$"
    with pytest.raises(ValueError, match=banded):
        MomentState.initial(2, "banded")


def test_update_with_zero_timescales_replaces_state():
    g = np.array([2.0, -3.0])
    ts = Timescales(0.0, 0.0)
    st = update_moments(MomentState.initial(2, MetricShape.FULL), g, ts)
    assert np.array_equal(st.m1, g)
    assert np.array_equal(st.m2, np.outer(g, g))
    assert st.step == 1

    st_d = update_moments(MomentState.initial(2, MetricShape.DIAGONAL), g, ts)
    assert np.array_equal(st_d.m2, g * g)


def test_update_sequence_matches_manual_recursion():
    rng = np.random.default_rng(1)
    ts = Timescales(9.0, 999.0)
    st = MomentState.initial(4, MetricShape.DIAGONAL)
    m1 = np.zeros(4)
    m2 = np.ones(4)
    for _ in range(50):
        g = rng.standard_normal(4)
        st = update_moments(st, g, ts)
        m1 = g / 10.0 + m1 * (9.0 / 10.0)
        m2 = g * g / 1000.0 + m2 * (999.0 / 1000.0)
        assert np.allclose(st.m1, m1, atol=1e-15)
        assert np.allclose(st.m2, m2, atol=1e-15)
    assert st.step == 50


def test_full_mode_m2_stays_exactly_symmetric():
    rng = np.random.default_rng(2)
    ts = Timescales(5.0, 11.0)
    st = MomentState.initial(5, MetricShape.FULL)
    for _ in range(30):
        st = update_moments(st, rng.standard_normal(5), ts)
    assert np.array_equal(st.m2, st.m2.T)


def test_dimension_mismatch():
    st = MomentState.initial(3)
    with pytest.raises(ValueError, match="^grad:"):
        update_moments(st, np.ones(4), Timescales(1.0, 1.0))


def test_covariance_formula():
    g = np.array([1.0, 2.0])
    ts = Timescales(0.0, 3.0)
    st = update_moments(MomentState.initial(2, MetricShape.FULL), g, ts)
    # m1 = g, m2 = gg^T/4 + I*3/4; covariance picks up the -gg^T
    expected = np.outer(g, g) / 4.0 + np.eye(2) * 0.75 - np.outer(g, g)
    assert np.allclose(covariance(st), expected, atol=1e-15)

    st_d = update_moments(MomentState.initial(2, MetricShape.DIAGONAL), g, ts)
    assert np.allclose(covariance(st_d), g * g / 4.0 + 0.75 - g * g, atol=1e-15)


def _full_state_552(rng):
    # a 552-wide state like the multiply network's, so the blocked update
    # ends on a ragged block (552 = 8 * 64 + 40)
    d = 552
    a = 0.1 * rng.standard_normal((d, d))
    return MomentState(m1=0.1 * rng.standard_normal(d), m2=a @ a.T + np.eye(d), step=9)


def test_full_update_is_bitwise_the_ema_formula():
    rng = np.random.default_rng(3)
    st = _full_state_552(rng)
    assert st.dim % BLOCK_ROWS != 0
    m2_before = st.m2.copy()
    g = rng.standard_normal(st.dim)
    tau = 15.3
    new = update_moments(st, g, Timescales(17.1, tau))
    expected = np.outer(g, g) / (1.0 + tau) + st.m2 * (tau / (1.0 + tau))
    assert np.array_equal(new.m2, expected)
    assert np.array_equal(new.m1, ema_update(st.m1, g, 17.1))
    assert np.array_equal(st.m2, m2_before)  # the input state is not touched


def test_full_covariance_is_bitwise_m2_minus_outer():
    st = _full_state_552(np.random.default_rng(4))
    m2_before = st.m2.copy()
    assert np.array_equal(covariance(st), st.m2 - np.outer(st.m1, st.m1))
    assert np.array_equal(st.m2, m2_before)


def test_covariance_can_be_indefinite_under_two_timescales():
    # fast m1, slow m2: after a large constant gradient the centered moment
    # goes negative because m1^2 outruns m2
    ts = Timescales(0.0, 50.0)
    st = MomentState.initial(1, MetricShape.DIAGONAL)
    for _ in range(5):
        st = update_moments(st, np.array([10.0]), ts)
    assert covariance(st)[0] < 0.0
