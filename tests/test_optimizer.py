import tracemalloc

import numpy as np
import pytest

from cgd import linalg
from cgd.metric import MetricSpec, MetricStatistic, build_inverse_metric
from cgd.moments import MetricShape, MomentState, Timescales, update_moments
from cgd.optimizer import (
    HYPERPARAMETERS,
    PRESET_NAMES,
    CgdConfig,
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
    spec = MetricSpec("diagonal", "second_moment", 0.5)
    with pytest.raises(ValueError):
        CgdConfig(gamma=0.0, timescales=Timescales(0.0, 0.0), metric=spec)
    with pytest.raises(ValueError):
        CgdConfig(gamma=0.1, timescales=Timescales(0.0, 0.0), metric=spec,
                  metric_update_interval=0)
    # an interval of 1.5 would refresh at steps 1, 4, 7, ...: a float or a bool is refused
    for interval in (1.5, 2.0, True):
        with pytest.raises(ValueError, match="^metric_update_interval: must be an integer"):
            preset("cgd_full", metric_update_interval=interval)
    assert preset("cgd_full", metric_update_interval=np.int64(2)).metric_update_interval == 2


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
            assert cfg.timescales == Timescales(t1, t2)
            assert cfg.metric.power == a
            assert cfg.metric.eps == 1e-8
            assert (cfg.metric.shape, cfg.metric.statistic) == expected_shapes[name]


def test_preset_spot_values():
    cfg = preset("adam", context="rosenbrock")
    assert (cfg.gamma, cfg.timescales.tau1, cfg.timescales.tau2) == (0.0822, 9.0, 999.0)
    cfg = preset("cgd_full", context="multiply")
    assert (cfg.gamma, cfg.metric.power) == (0.0512, 0.40)


def test_preset_overrides_and_aliases():
    cfg = preset("cgd-diag", gamma=0.5, tau1=1.0, power=0.1, context="multiply")
    assert cfg.gamma == 0.5
    assert cfg.timescales.tau1 == 1.0
    assert cfg.timescales.tau2 == 12.3  # untouched table value
    assert cfg.metric.power == 0.1
    swapped = preset("cgd_diagonal", statistic="second_moment")
    assert swapped.metric.statistic is MetricStatistic.SECOND_MOMENT


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
    assert initial_state(Q0, full_cfg).moments.mode is MetricShape.FULL
    diag_cfg = preset("cgd_diagonal")
    assert initial_state(Q0, diag_cfg).moments.m2.ndim == 1


def test_step_counts_advance():
    cfg = preset("adam")
    st = initial_state(Q0, cfg)
    for expected in (1, 2, 3):
        st = step(st, rosenbrock_gradient(st.params), cfg)
        assert st.moments.step == expected


def test_metric_update_interval_reuses_operator():
    cfg = preset("cgd_full", context="rosenbrock", metric_update_interval=3)
    st = initial_state(Q0, cfg)
    ops, moments = [], []
    for _ in range(7):
        st = step(st, rosenbrock_gradient(st.params), cfg)
        ops.append(st.precond)
        moments.append(st.moments)
    # built at moment steps 1, 4, 7; the states after steps 1-2 and 4-5
    # carry each into the two steps that reuse it
    assert ops[0] is ops[1]
    assert ops[3] is ops[4]
    assert ops[3] is not ops[0]
    assert ops[6] is not ops[3]
    # each operator was built from the moments of the step that built it
    for t in (0, 3, 6):
        fresh = build_inverse_metric(moments[t], cfg.metric)
        assert np.array_equal(ops[t].weights, fresh.weights)
        built, rebuilt = ops[t].factorization, fresh.factorization
        for field in ("eigenvalues", "z", "reflectors", "tau"):
            assert np.array_equal(getattr(built, field), getattr(rebuilt, field))
    assert not np.array_equal(ops[3].weights, build_inverse_metric(moments[4], cfg.metric).weights)


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
        moments.append(st.moments)
    # built at steps 1 and 4; the states after steps 1, 2 and 4 carry one
    assert ops[0] is ops[1] and ops[3] is not ops[0]
    for t in (0, 3):
        built = ops[t].factorization
        rebuilt = build_inverse_metric(moments[t], cfg.metric).factorization
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
            before = [a.copy() for a in (st.params, st.moments.m1, st.moments.m2, grad)]
            new = step(st, grad, cfg)
            after = (st.params, st.moments.m1, st.moments.m2, grad)
            assert all(np.array_equal(a, b) for a, b in zip(before, after))
            st = new


def test_metric_update_interval_matches_manual_caching():
    cfg = preset("cgd_full", context="rosenbrock", metric_update_interval=4)
    st = initial_state(Q0, cfg)
    q = Q0.copy()
    moments = MomentState.initial(2, MetricShape.FULL)
    op = None
    for t in range(10):
        g = rosenbrock_gradient(q)
        st = step(st, g, cfg)
        moments = update_moments(moments, g, cfg.timescales)
        if op is None or (moments.step - 1) % 4 == 0:
            op = build_inverse_metric(moments, cfg.metric)
        q = q - cfg.gamma * op.apply(moments.m1)
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
