import math

import numpy as np
import pytest

from cgd.moments import BLOCK_ROWS, covariance, ema_update, update_moments
from cgd.optimizer import CgdConfig, initial_state, preset


def timescales(tau1, tau2):
    """A config whose moment update runs at the two given memory lengths."""
    return CgdConfig(1.0, tau1, tau2, "diagonal", "second_moment", 0.5)


def initial_moments(dim, shape):
    """The (m1, m2) a fresh state of ``dim`` parameters starts from."""
    st = initial_state(np.zeros(dim), preset("cgd_full" if shape == "full" else "cgd_diagonal"))
    return st.m1, st.m2


def test_timescales_validation():
    timescales(0.0, 0.0)
    timescales(9.24, 13.6)
    with pytest.raises(ValueError):
        timescales(-1.0, 0.0)
    with pytest.raises(ValueError):
        timescales(0.0, np.inf)
    with pytest.raises(ValueError):
        timescales(np.nan, 1.0)


def test_ema_tau_zero_returns_sample_bitwise():
    prev = np.array([3.7, -1.2])
    sample = np.array([0.1234567890123456, 7.7e-13])
    assert np.array_equal(ema_update(prev, sample, 0.0), sample)
    # prev is not read: adding prev * 0 would turn a -0.0 sample into 0.0
    # and an infinite prev into NaN
    assert math.copysign(1.0, ema_update(5.0, -0.0, 0.0)) == -1.0
    assert ema_update(math.inf, 1.0, 0.0) == 1.0
    prev = np.array([math.inf, 5.0, math.nan])
    sample = np.array([1.0, -0.0, 2.0])
    out = ema_update(prev, sample, 0.0)
    assert out.tobytes() == sample.tobytes()
    assert out is not sample


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


@pytest.mark.parametrize("tau", ["3", True, False, None, 1j, [1.0], np.array(1.0)])
def test_ema_rejects_a_tau_that_is_not_a_real_number(tau):
    with pytest.raises(ValueError, match="^tau: must be a number"):
        ema_update(1.0, 2.0, tau)


def test_ema_takes_any_real_tau():
    assert ema_update(1.0, 2.0, 1) == ema_update(1.0, 2.0, 1.0) == 1.5
    assert ema_update(1.0, 2.0, np.float64(3.0)) == ema_update(1.0, 2.0, 3.0)
    assert ema_update(1.0, 2.0, np.int64(3)) == ema_update(1.0, 2.0, 3.0)


def test_initial_state():
    diag = initial_state(np.zeros(3), preset("cgd_diagonal"))
    assert np.array_equal(diag.m1, np.zeros(3))
    assert np.array_equal(diag.m2, np.ones(3))
    assert diag.step == 0 and diag.m2.ndim == 1 and diag.m1.shape == (3,)

    full = initial_state(np.zeros(3), preset("cgd_full"))
    assert np.array_equal(full.m2, np.eye(3))
    assert full.m2.ndim == 2

    with pytest.raises(ValueError, match="^dim:"):
        initial_state(np.zeros(0), preset("cgd_diagonal"))
    banded = r"^shape: expected one of \('diagonal', 'full'\), got 'banded'$"
    with pytest.raises(ValueError, match=banded):
        CgdConfig(1.0, 0.0, 0.0, "banded", "second_moment", 0.5)


def test_update_with_zero_timescales_replaces_state():
    g = np.array([2.0, -3.0])
    ts = timescales(0.0, 0.0)
    m1, m2 = update_moments(*initial_moments(2, "full"), g, ts)
    assert np.array_equal(m1, g)
    assert np.array_equal(m2, np.outer(g, g))

    _, m2_d = update_moments(*initial_moments(2, "diagonal"), g, ts)
    assert np.array_equal(m2_d, g * g)

    # both modes follow ema_update at tau == 0, bit for bit: the -0.0 entries
    # of g and of g g^T survive, and a non-finite old moment leaves no trace
    g = np.array([-0.0, 2.0])
    for shape, m2 in (("diagonal", np.array([math.inf, 1.0])),
                      ("full", np.full((2, 2), math.nan))):
        m1, m2 = update_moments(np.array([math.inf, 0.0]), m2, g, ts)
        assert m1.tobytes() == g.tobytes()
        expected = g * g if shape == "diagonal" else np.multiply.outer(g, g)
        assert m2.tobytes() == expected.tobytes()


def test_update_sequence_matches_manual_recursion():
    rng = np.random.default_rng(1)
    ts = timescales(9.0, 999.0)
    st = initial_moments(4, "diagonal")
    m1 = np.zeros(4)
    m2 = np.ones(4)
    for _ in range(50):
        g = rng.standard_normal(4)
        st = update_moments(*st, g, ts)
        m1 = g / 10.0 + m1 * (9.0 / 10.0)
        m2 = g * g / 1000.0 + m2 * (999.0 / 1000.0)
        assert np.allclose(st[0], m1, atol=1e-15)
        assert np.allclose(st[1], m2, atol=1e-15)


def test_full_mode_m2_stays_exactly_symmetric():
    rng = np.random.default_rng(2)
    ts = timescales(5.0, 11.0)
    m1, m2 = initial_moments(5, "full")
    for _ in range(30):
        m1, m2 = update_moments(m1, m2, rng.standard_normal(5), ts)
    assert np.array_equal(m2, m2.T)


def test_dimension_mismatch():
    with pytest.raises(ValueError, match="^grad:"):
        update_moments(*initial_moments(3, "diagonal"), np.ones(4), timescales(1.0, 1.0))


def test_covariance_formula():
    g = np.array([1.0, 2.0])
    ts = timescales(0.0, 3.0)
    st = update_moments(*initial_moments(2, "full"), g, ts)
    # m1 = g, m2 = gg^T/4 + I*3/4; covariance picks up the -gg^T
    expected = np.outer(g, g) / 4.0 + np.eye(2) * 0.75 - np.outer(g, g)
    assert np.allclose(covariance(*st), expected, atol=1e-15)

    st_d = update_moments(*initial_moments(2, "diagonal"), g, ts)
    assert np.allclose(covariance(*st_d), g * g / 4.0 + 0.75 - g * g, atol=1e-15)


def _full_moments_552(rng):
    # 552-wide moments like the multiply network's, so the blocked update
    # ends on a ragged block (552 = 8 * 64 + 40)
    d = 552
    a = 0.1 * rng.standard_normal((d, d))
    return 0.1 * rng.standard_normal(d), a @ a.T + np.eye(d)


def test_full_update_is_bitwise_the_ema_formula():
    rng = np.random.default_rng(3)
    m1, m2 = _full_moments_552(rng)
    assert m1.shape[0] % BLOCK_ROWS != 0
    m2_before = m2.copy()
    g = rng.standard_normal(m1.shape[0])
    tau = 15.3
    new_m1, new_m2 = update_moments(m1, m2, g, timescales(17.1, tau))
    expected = np.outer(g, g) / (1.0 + tau) + m2 * (tau / (1.0 + tau))
    assert np.array_equal(new_m2, expected)
    assert np.array_equal(new_m1, ema_update(m1, g, 17.1))
    assert np.array_equal(m2, m2_before)  # the input moments are not touched


def test_full_covariance_is_bitwise_m2_minus_outer():
    m1, m2 = _full_moments_552(np.random.default_rng(4))
    m2_before = m2.copy()
    assert np.array_equal(covariance(m1, m2), m2 - np.outer(m1, m1))
    assert np.array_equal(m2, m2_before)


def test_covariance_can_be_indefinite_under_two_timescales():
    # fast m1, slow m2: after a large constant gradient the centered moment
    # goes negative because m1^2 outruns m2
    ts = timescales(0.0, 50.0)
    st = initial_moments(1, "diagonal")
    for _ in range(5):
        st = update_moments(*st, np.array([10.0]), ts)
    assert covariance(*st)[0] < 0.0
