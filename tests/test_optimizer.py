import re
import tracemalloc

import numpy as np
import pytest

from cgd import linalg
from cgd.metric import MetricShape, MetricStatistic, build_inverse_metric
from cgd.moments import update_moments
from cgd.optimizer import (
    HYPERPARAMETERS,
    PRESET_NAMES,
    CgdConfig,
    OptimizerState,
    initial_state,
    preset,
    step,
)
from reference_optimizers import (
    adabelief_trajectory,
    adam_trajectory,
    rmsprop_trajectory,
    rosenbrock_gradient,
    sgd_trajectory,
)

Q0 = np.array([0.0, 0.5])


def run_preset(name, steps, context="rosenbrock", **kw):
    cfg = preset(name, context=context, **kw)
    st = initial_state(Q0, cfg)
    out = []
    for _ in range(steps):
        st = step(st, rosenbrock_gradient(st.params), cfg)
        out.append(st.params.copy())
    return np.array(out)


def test_config_validation():
    metric = dict(shape="diagonal", statistic="second_moment", power=0.5)
    with pytest.raises(ValueError):
        CgdConfig(gamma=0.0, tau1=0.0, tau2=0.0, **metric)
    with pytest.raises(ValueError):
        CgdConfig(gamma=0.1, tau1=0.0, tau2=0.0, **metric, metric_update_interval=0)
    # an interval of 1.5 would refresh at steps 1, 4, 7, ...: a float or a bool is refused
    for interval in (1.5, 2.0, True):
        with pytest.raises(ValueError, match="^metric_update_interval: must be an integer"):
            preset("cgd_full", metric_update_interval=interval)
    assert preset("cgd_full", metric_update_interval=np.int64(2)).metric_update_interval == 2
    # an integer past the float range is refused like infinity, not with OverflowError
    with pytest.raises(ValueError, match="^gamma: must be finite and > 0"):
        preset("adam", gamma=10**400)


def test_preset_tables():
    expected_shapes = {
        "sgd": (MetricShape.DIAGONAL, MetricStatistic.SECOND_MOMENT),
        "rmsprop": (MetricShape.DIAGONAL, MetricStatistic.SECOND_MOMENT),
        "adam": (MetricShape.DIAGONAL, MetricStatistic.SECOND_MOMENT),
        "adabelief": (MetricShape.DIAGONAL, MetricStatistic.COVARIANCE),
        "cgd_diagonal": (MetricShape.DIAGONAL, MetricStatistic.COVARIANCE),
        "cgd_full": (MetricShape.FULL, MetricStatistic.COVARIANCE),
    }
    for context in ("rosenbrock", "multiply"):
        for name in PRESET_NAMES:
            cfg = preset(name, context=context)
            g, t1, t2, a = HYPERPARAMETERS[context][name]
            assert cfg.gamma == g
            assert (cfg.tau1, cfg.tau2) == (t1, t2)
            assert cfg.power == a
            assert cfg.eps == 1e-8
            assert (cfg.shape, cfg.statistic) == expected_shapes[name]


def test_preset_spot_values():
    cfg = preset("adam", context="rosenbrock")
    assert (cfg.gamma, cfg.tau1, cfg.tau2) == (0.0822, 9.0, 999.0)
    cfg = preset("cgd_full", context="multiply")
    assert (cfg.gamma, cfg.power) == (0.0512, 0.40)


def test_preset_overrides_and_aliases():
    cfg = preset("cgd-diag", gamma=0.5, tau1=1.0, power=0.1, context="multiply")
    assert cfg.gamma == 0.5
    assert cfg.tau1 == 1.0
    assert cfg.tau2 == 12.3  # untouched table value
    assert cfg.power == 0.1
    swapped = preset("cgd_diagonal", statistic="second_moment")
    assert swapped.statistic is MetricStatistic.SECOND_MOMENT


@pytest.mark.parametrize("key", ["gamma", "tau1", "tau2", "power", "eps"])
@pytest.mark.parametrize("value", ["0.1", "x", True, False, None, 1j, [0.1]])
def test_config_refuses_a_float_setting_that_is_not_a_real_number(key, value):
    # a string, a bool, a complex number or a list is a ValueError naming the
    # setting, like any other bad value; None reaches CgdConfig directly only
    settings = dict(gamma=0.1, tau1=1.0, tau2=2.0, shape="full", statistic="covariance",
                    power=0.5, eps=1e-8)
    message = re.escape(f"{key}: must be a number, got {value!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        CgdConfig(**{**settings, key: value})
    if value is not None:
        with pytest.raises(ValueError, match=f"^{key}: must be a number"):
            preset("adam", **{key: value})


def test_preset_refuses_a_key_it_does_not_override():
    # the preset fixes the metric's shape, so shape is not an override either
    for key in ("shape", "beta1", "timescales"):
        with pytest.raises(ValueError, match=f"^{key}: not a preset override"):
            preset("adam", **{key: "full"})
    with pytest.raises(ValueError, match="^beta1, shape: not a preset override"):
        preset("cgd_full", shape="diagonal", beta1=0.9)


def test_preset_override_of_none_keeps_the_tuned_value():
    keys = ("gamma", "tau1", "tau2", "power", "eps", "statistic", "metric_update_interval")
    for context in ("rosenbrock", "multiply"):
        for name in PRESET_NAMES:
            assert preset(name, context=context, gamma=None) == preset(name, context=context)
            unset = dict.fromkeys(keys)
            assert preset(name, context=context, **unset) == preset(name, context=context)


def test_unknown_preset_and_context():
    with pytest.raises(ValueError, match="^optimizer:"):
        preset("adamw")
    with pytest.raises(ValueError, match="^context:"):
        preset("adam", context="quartic")


def test_sgd_step_is_plain_gradient_descent_bitwise():
    got = run_preset("sgd", 25)
    ref = sgd_trajectory(Q0, 0.0024, 25)
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("name,ref,args", [
    ("rmsprop", rmsprop_trajectory, (0.0067, 0.999)),
    ("adam", adam_trajectory, (0.0822, 0.9, 0.999)),
    ("adabelief", adabelief_trajectory, (0.034, 8.21 / 9.21, 11.78 / 12.78)),
])
def test_classical_corners_match_references(name, ref, args):
    got = run_preset(name, 25)
    expected = ref(Q0, *args, steps=25)
    assert np.max(np.abs(got - expected)) < 1e-13


def test_doubling_gamma_doubles_first_displacement():
    # one step from identical state: the update direction is identical and
    # scaling by 2 is exact in floating point; starting from zero params the
    # parameter subtraction itself adds no rounding of its own
    g = rosenbrock_gradient(Q0)
    zero = np.zeros(2)
    for name in PRESET_NAMES:
        base = preset(name, context="rosenbrock")
        double = preset(name, gamma=2.0 * base.gamma, context="rosenbrock")
        d1 = step(initial_state(zero, base), g, base).params
        d2 = step(initial_state(zero, double), g, double).params
        assert np.array_equal(2.0 * d1, d2), name


def test_initial_state_mode_follows_metric_shape():
    full_cfg = preset("cgd_full")
    assert full_cfg.shape is MetricShape.FULL
    assert initial_state(Q0, full_cfg).m2.ndim == 2
    diag_cfg = preset("cgd_diagonal")
    assert initial_state(Q0, diag_cfg).m2.ndim == 1


@pytest.mark.parametrize("params", [np.zeros((2, 2)), [[0.0, 0.5]], 3.0])
def test_initial_state_refuses_params_that_are_not_a_vector(params):
    # a matrix would broadcast each move over its rows, a 1 x 2 row would
    # get 1-vector moments, and a scalar has no dimension at all
    for name in ("adam", "cgd_full"):
        with pytest.raises(ValueError, match=r"^params: must be a vector, got an array of shape"):
            initial_state(params, preset(name))
    with pytest.raises(ValueError, match="^dim: must be >= 1, got 0$"):
        initial_state(np.zeros(0), preset("adam"))


def test_step_counts_advance():
    cfg = preset("adam")
    st = initial_state(Q0, cfg)
    for expected in (1, 2, 3):
        st = step(st, rosenbrock_gradient(st.params), cfg)
        assert st.step == expected


def test_metric_update_interval_reuses_operator():
    cfg = preset("cgd_full", context="rosenbrock", metric_update_interval=3)
    st = initial_state(Q0, cfg)
    ops, moments = [], []
    for _ in range(7):
        st = step(st, rosenbrock_gradient(st.params), cfg)
        ops.append(st.precond)
        moments.append((st.m1, st.m2))
    # built at moment steps 1, 4, 7; the states after steps 1-2 and 4-5
    # carry each into the two steps that reuse it
    assert ops[0] is ops[1]
    assert ops[3] is ops[4]
    assert ops[3] is not ops[0]
    assert ops[6] is not ops[3]
    # each operator was built from the moments of the step that built it
    for t in (0, 3, 6):
        fresh = build_inverse_metric(*moments[t], cfg)
        assert np.array_equal(ops[t].weights, fresh.weights)
        built, rebuilt = ops[t].factorization, fresh.factorization
        for field in ("eigenvalues", "z", "reflectors", "tau"):
            assert np.array_equal(getattr(built, field), getattr(rebuilt, field))
    assert not np.array_equal(ops[3].weights, build_inverse_metric(*moments[4], cfg).weights)


@pytest.mark.skipif(linalg._binding() is None, reason="numpy bundles no scipy-openblas LAPACK")
def test_cached_operator_on_the_tridiagonal_path_is_the_build():
    # at d = 70 the factorization keeps the reflectors, tau and the
    # tridiagonal eigenvectors, which a carried operator holds as built
    cfg = preset("cgd_full", context="multiply", metric_update_interval=3)
    rng = np.random.default_rng(11)
    st = initial_state(rng.standard_normal(70), cfg)
    ops, moments = [], []
    for _ in range(4):
        st = step(st, rng.standard_normal(70), cfg)
        ops.append(st.precond)
        moments.append((st.m1, st.m2))
    # built at steps 1 and 4; the states after steps 1, 2 and 4 carry one
    assert ops[0] is ops[1] and ops[3] is not ops[0]
    for t in (0, 3):
        built = ops[t].factorization
        rebuilt = build_inverse_metric(*moments[t], cfg).factorization
        assert built.reflectors is not None
        for field in ("eigenvalues", "z", "reflectors", "tau"):
            assert np.array_equal(getattr(built, field), getattr(rebuilt, field))


def test_state_carries_the_spectrum_of_the_applied_operator():
    cfg = preset("cgd_full", context="rosenbrock", metric_update_interval=3)
    st = initial_state(Q0, cfg)
    spectra = []
    for t in range(1, 8):
        given = st.precond
        st = step(st, rosenbrock_gradient(st.params), cfg)
        # steps 3 and 6 apply the operator they were given and carry none on;
        # the other steps carry on the operator they applied
        applied = given if t % 3 == 0 else st.precond
        assert st.spectrum is applied.eigenvalues
        assert st.spectrum.shape == (2,)
        spectra.append(st.spectrum)
    # built at steps 1, 4 and 7; the steps between reuse the carried operator's
    assert spectra[0] is spectra[1] is spectra[2] is not spectra[3]
    assert spectra[3] is spectra[4] is spectra[5] is not spectra[6]

    every = preset("cgd_full", context="rosenbrock")
    st = step(initial_state(Q0, every), rosenbrock_gradient(Q0), every)
    assert st.precond is None and st.spectrum.shape == (2,)

    diag = preset("cgd_diagonal", context="rosenbrock")
    assert step(initial_state(Q0, diag), rosenbrock_gradient(Q0), diag).spectrum is None


def test_state_carries_the_applied_operator_only_into_a_step_that_reuses_it():
    for interval in (1, 2, 3):
        cfg = preset("cgd_full", context="rosenbrock", metric_update_interval=interval)
        st = initial_state(Q0, cfg)
        for t in range(1, 8):
            st = step(st, rosenbrock_gradient(st.params), cfg)
            if t % interval:
                assert st.precond.eigenvalues is st.spectrum, (interval, t)
            else:
                assert st.precond is None, (interval, t)

    diag = preset("cgd_diagonal", context="rosenbrock", metric_update_interval=2)
    st = initial_state(Q0, diag)
    for _ in range(4):
        st = step(st, rosenbrock_gradient(st.params), diag)
        assert st.precond is None


def _peak_step_memory(interval, dim=128, steps=6):
    """Peak bytes traced over a ``st = step(st, g, cfg)`` loop, in d x d arrays."""
    cfg = preset("cgd_full", context="multiply", metric_update_interval=interval)
    rng = np.random.default_rng(4)
    grads = rng.standard_normal((steps, dim))
    st = initial_state(rng.standard_normal(dim), cfg)
    tracemalloc.start()
    try:
        for g in grads:
            st = step(st, g, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (dim * dim * 8)


def test_reuse_holds_no_more_arrays_at_its_peak_than_a_build_every_step():
    # A refresh step builds its operator while the state it was given is
    # alive; that state carries no operator, so at interval 2 the peak is the
    # interval-1 peak (five d x d arrays on the tridiagonal path at d = 128)
    every, every_other = _peak_step_memory(1), _peak_step_memory(2)
    assert every_other - every < 0.5, (every, every_other)


def test_step_mutates_no_input_array():
    rng = np.random.default_rng(9)
    for interval in (1, 2):
        cfg = preset("cgd_full", context="multiply", metric_update_interval=interval)
        st = initial_state(rng.standard_normal(70), cfg)
        for _ in range(3):
            grad = rng.standard_normal(70)
            before = [a.copy() for a in (st.params, st.m1, st.m2, grad)]
            new = step(st, grad, cfg)
            after = (st.params, st.m1, st.m2, grad)
            assert all(np.array_equal(a, b) for a, b in zip(before, after))
            st = new


def test_metric_update_interval_matches_manual_caching():
    cfg = preset("cgd_full", context="rosenbrock", metric_update_interval=4)
    st = initial_state(Q0, cfg)
    q = Q0.copy()
    m1, m2 = np.zeros(2), np.eye(2)
    op = None
    for t in range(10):
        g = rosenbrock_gradient(q)
        st = step(st, g, cfg)
        m1, m2 = update_moments(m1, m2, g, cfg)
        if op is None or t % 4 == 0:
            op = build_inverse_metric(m1, m2, cfg)
        q = q - cfg.gamma * op.apply(m1)
        assert np.array_equal(st.params, q), f"diverged at step {t + 1}"


def test_interval_one_equals_default_trajectory():
    base = run_preset("cgd_full", 15)
    explicit = run_preset("cgd_full", 15, metric_update_interval=1)
    assert np.array_equal(base, explicit)


def test_interval_is_noop_for_diagonal_metrics():
    base = run_preset("cgd_diagonal", 15)
    cached = run_preset("cgd_diagonal", 15, metric_update_interval=5)
    assert np.array_equal(base, cached)


def test_full_cgd_orthogonal_equivariance_small():
    # quadratic bowl: rotating the problem must rotate the trajectory
    rng = np.random.default_rng(8)
    d = 3
    basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
    h = basis @ np.diag([0.5, 1.0, 2.0]) @ basis.T
    h = (h + h.T) / 2.0
    rot, _ = np.linalg.qr(rng.standard_normal((d, d)))
    hr = rot @ h @ rot.T
    hr = (hr + hr.T) / 2.0

    cfg = preset("cgd_full", gamma=0.05, context="rosenbrock")
    q0 = rng.standard_normal(d)
    st_a = initial_state(q0, cfg)
    st_b = initial_state(rot @ q0, cfg)
    for _ in range(20):
        st_a = step(st_a, h @ st_a.params, cfg)
        st_b = step(st_b, hr @ st_b.params, cfg)
        assert np.allclose(st_b.params, rot @ st_a.params, atol=1e-9)


def _general_map_gap(power, eps, m2_as_metric, steps=400):
    """Largest relative distance between a full-metric run in p = A q
    coordinates and A times the same run in q, where A = orthogonal x
    diag(0.3, 0.6, 1, 2, 3) is not orthogonal; the 5-d quadratic's gradient
    carries the same fixed noise sequence in both runs."""
    rng = np.random.default_rng(3)
    rot, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    a = rot @ np.diag([0.3, 0.6, 1.0, 2.0, 3.0])
    a_inv = np.linalg.inv(a)
    c = rng.standard_normal((5, 5))
    h = c @ c.T + 0.5 * np.eye(5)
    noise = 0.3 * rng.standard_normal((steps, 5))
    q0 = rng.standard_normal(5)
    cfg = CgdConfig(0.02, 17.1, 15.3, "full", "covariance", power, eps)
    plain = initial_state(q0, cfg)
    # m2 starts at I in q; as a metric it maps to A^-T A^-1 in p
    m2 = a_inv.T @ a_inv if m2_as_metric else np.eye(5)
    mapped = OptimizerState(a @ q0, np.zeros(5), (m2 + m2.T) / 2.0)
    worst = 0.0
    for t in range(steps):
        plain = step(plain, h @ plain.params + noise[t], cfg)
        mapped = step(mapped, a_inv.T @ (h @ (a_inv @ mapped.params) + noise[t]), cfg)
        assert plain.spectrum[0] > 0.0  # no eigenvalue is clamped
        expected = a @ plain.params
        worst = max(worst, np.linalg.norm(mapped.params - expected) / np.linalg.norm(expected))
    return worst


def test_full_cgd_covariance_under_a_general_linear_map():
    # covariant only at a = 1, with m2_0 mapped as a metric, eps -> 0 and no
    # clamped eigenvalue (the README's four conditions); 4e-12 measured
    assert _general_map_gap(1.0, 1e-14, m2_as_metric=True) < 1e-9
    # each broken condition leaves an O(1) gap: 6.5 at a = 0.4, 1.2 with m2_0 = I
    assert _general_map_gap(0.4, 1e-14, m2_as_metric=True) > 1.0
    assert _general_map_gap(1.0, 1e-14, m2_as_metric=False) > 0.3
