import numpy as np
import pytest

from cgd.problems import (
    DEPTH,
    N_NEURONS,
    N_PARAMS,
    INPUT_NEURONS,
    MultiplyProblem,
    OUTPUT_NEURON,
    RosenbrockProblem,
    finite_diff_grad,
    net_forward,
    net_loss,
    net_loss_and_grad,
    rosenbrock_grad,
    rosenbrock_loss,
    sample_batch,
    unpack_params,
)


def predict(q, inputs):
    """The output neuron's final activation for each input row."""
    return net_forward(*unpack_params(q), inputs)[1]


def test_rosenbrock_known_values():
    assert rosenbrock_loss(np.array([1.0, 1.0])) == 0.0
    assert rosenbrock_loss(np.array([0.0, 0.5])) == 26.0
    assert np.array_equal(rosenbrock_grad(np.array([1.0, 1.0])), [0.0, 0.0])
    assert np.array_equal(rosenbrock_grad(np.array([0.0, 0.5])), [-2.0, 100.0])


def test_rosenbrock_generalizes_to_higher_dim():
    q = np.zeros(3)
    # two consecutive pairs, each contributing (1-0)^2 = 1
    assert rosenbrock_loss(q) == 2.0
    g = rosenbrock_grad(np.array([0.3, -0.2, 0.7]))
    fd = finite_diff_grad(RosenbrockProblem(dim=3), np.array([0.3, -0.2, 0.7]), h=1e-6)
    assert np.allclose(g, fd, atol=1e-6)


def _textbook_rosenbrock(q):
    """Loss and gradient from the per-pair formulas in plain Python floats,
    each gradient entry summed onto 0.0; numpy's sum adds the loss terms."""
    q = q.tolist()
    terms, grad = [], [0.0] * len(q)
    for i, (x, y) in enumerate(zip(q[:-1], q[1:])):
        slope, valley = 1.0 - x, y - x * x
        terms.append(slope * slope + 100.0 * (valley * valley))
        grad[i] += -2.0 * slope - 400.0 * x * valley
        grad[i + 1] += 200.0 * valley
    return float(np.sum(terms)), np.array(grad)


def test_rosenbrock_is_bitwise_the_textbook_formulas():
    # 10^4 points, half at d = 2 and half at d in 3..50; a quarter of the
    # coordinates are 0.0, -0.0, 1.0 or -1.0, where terms are exactly zero
    # and only the order of operations fixes the sign of a zero entry
    rng = np.random.default_rng(21)
    special = np.array([0.0, -0.0, 1.0, -1.0])
    for n in range(10_000):
        d = 2 if n % 2 else int(rng.integers(3, 51))
        q = rng.standard_normal(d) * 10.0 ** rng.integers(-3, 3)
        pick = rng.random(d) < 0.25
        q[pick] = rng.choice(special, pick.sum())
        loss, grad = _textbook_rosenbrock(q)
        assert rosenbrock_loss(q).hex() == loss.hex(), q
        assert rosenbrock_grad(q).tobytes() == grad.tobytes(), q


def test_rosenbrock_rejects_scalar_problems():
    with pytest.raises(ValueError, match="^dim: "):
        rosenbrock_loss(np.array([1.0]))
    with pytest.raises(ValueError, match="^dim: "):
        RosenbrockProblem(dim=1)


@pytest.mark.parametrize("dim", ["3", 2.5, 2.0, True, None])
def test_rosenbrock_problem_refuses_a_dim_that_is_not_an_integer(dim):
    with pytest.raises(ValueError, match="^dim: must be an integer, got "):
        RosenbrockProblem(dim)


@pytest.mark.parametrize("q", [np.zeros((2, 2)), np.zeros((1, 2)), np.float64(1.0)])
def test_rosenbrock_refuses_a_point_that_is_not_a_vector(q):
    with pytest.raises(ValueError, match="^q: "):
        rosenbrock_loss(q)
    with pytest.raises(ValueError, match="^q: "):
        rosenbrock_grad(q)


@pytest.mark.parametrize("h", [0.0, -1e-6, np.inf, np.nan, "1e-6", True, None])
def test_finite_diff_grad_refuses_a_step_that_is_not_finite_and_positive(h):
    with pytest.raises(ValueError, match="^h: "):
        finite_diff_grad(RosenbrockProblem(), np.zeros(2), h=h)


def test_rosenbrock_initial_params():
    p = RosenbrockProblem()
    assert np.array_equal(p.initial_params(seed=0), [0.0, 0.5])
    assert np.array_equal(p.initial_params(seed=123), [0.0, 0.5])
    assert np.array_equal(RosenbrockProblem(dim=4).initial_params(), np.zeros(4))


def test_parameter_vector_roundtrip():
    rng = np.random.default_rng(0)
    q = rng.standard_normal(N_PARAMS)
    weights, biases = unpack_params(q)
    assert weights.shape == (N_NEURONS, N_NEURONS)
    assert biases.shape == (N_NEURONS,)
    assert np.array_equal(np.concatenate([weights.ravel(), biases]), q)
    # weights occupy the leading block, row-major; both are views of q
    assert weights[1, 2] == q[1 * N_NEURONS + 2]
    assert biases[4] == q[N_NEURONS * N_NEURONS + 4]
    assert np.shares_memory(weights, q) and np.shares_memory(biases, q)
    with pytest.raises(ValueError):
        unpack_params(np.zeros(10))


def test_constants():
    assert N_NEURONS == 23
    assert DEPTH == 5
    assert N_PARAMS == 23 * 23 + 23 == 552


def test_zero_network_predicts_zero():
    pred = predict(np.zeros(N_PARAMS), np.array([[0.3, -0.8]]))
    assert pred == 0.0


def test_forward_output_bounded_by_activation():
    rng = np.random.default_rng(1)
    states, pred = net_forward(*unpack_params(rng.standard_normal(N_PARAMS) * 3.0),
                               rng.uniform(-1, 1, size=(50, 2)))
    assert states.shape == (DEPTH, 50, N_NEURONS) and pred.shape == (50,)
    assert np.all(np.abs(states[1:]) <= 1.0)
    assert np.all(np.abs(pred) < 1.0)


def test_bias_only_network_hand_value():
    # zero weights, bias b on the output neuron: every iteration yields
    # tanh(b) there, independent of inputs
    q = np.zeros(N_PARAMS)
    q[N_NEURONS * N_NEURONS + 2] = 0.7
    pred = predict(q, np.array([[0.1, 0.9]]))
    assert np.allclose(pred, np.tanh(0.7), atol=1e-15)


def test_net_loss_matches_direct_mse():
    rng = np.random.default_rng(2)
    q = 0.1 * rng.standard_normal(N_PARAMS)
    batch = sample_batch(5, 16)
    direct = float(np.mean((predict(q, batch[:, :2]) - batch[:, 2]) ** 2))
    assert net_loss(q, batch) == direct
    loss, _ = net_loss_and_grad(q, batch)
    assert np.isclose(loss, direct, atol=1e-15)


def test_net_gradient_against_finite_differences():
    rng = np.random.default_rng(3)
    q = 0.1 * rng.standard_normal(N_PARAMS)
    problem = MultiplyProblem(batch_size=5)
    batch = problem.batch(11)
    analytic = problem.gradient(q, batch)
    numeric = finite_diff_grad(problem, q, h=1e-5, batch=batch)
    scale = np.max(np.abs(analytic))
    assert np.max(np.abs(analytic - numeric)) / scale < 1e-6


def test_batch_gradient_is_size_weighted_mean():
    rng = np.random.default_rng(4)
    q = 0.1 * rng.standard_normal(N_PARAMS)
    batch = sample_batch(7, 6)
    _, g_all = net_loss_and_grad(q, batch)
    _, g_head = net_loss_and_grad(q, batch[:2])
    _, g_tail = net_loss_and_grad(q, batch[2:])
    combined = (2.0 * g_head + 4.0 * g_tail) / 6.0
    assert np.allclose(g_all, combined, atol=1e-12)


@pytest.mark.parametrize("size", [1, 2, 100])
def test_network_kernel_leaves_its_inputs_unchanged(size):
    # the kernel works in buffers and in place; none of them may be q or batch
    rng = np.random.default_rng(size)
    q = 0.5 * rng.standard_normal(N_PARAMS)
    batch = sample_batch(size, size)
    q_before, batch_before = q.copy(), batch.copy()
    net_loss(q, batch)
    net_loss_and_grad(q, batch)
    assert q.tobytes() == q_before.tobytes()
    assert batch.tobytes() == batch_before.tobytes()


@pytest.mark.parametrize("shape", [(0, 3), (4, 2), (4,), (0, 0)])
def test_network_loss_refuses_a_batch_without_rows_or_a_target(shape):
    q = np.zeros(N_PARAMS)
    with pytest.raises(ValueError, match="^batch: "):
        net_loss(q, np.zeros(shape))
    with pytest.raises(ValueError, match="^batch: "):
        net_loss_and_grad(q, np.zeros(shape))


@pytest.mark.parametrize("rows", [[[0.1, 0.2, 0.02]], ((0.1, 0.2, 0.02),), None, 3.0])
def test_network_refuses_rows_that_are_not_a_numpy_array(rows):
    q = np.zeros(N_PARAMS)
    with pytest.raises(ValueError, match="^batch: expected a numpy array"):
        net_loss(q, rows)
    with pytest.raises(ValueError, match="^batch: expected a numpy array"):
        net_loss_and_grad(q, rows)
    with pytest.raises(ValueError, match="^inputs: expected a numpy array"):
        net_forward(*unpack_params(q), rows)


@pytest.mark.parametrize("shape", [(0, 2), (4, 1), (4,)])
def test_network_forward_refuses_inputs_without_rows_or_both_inputs(shape):
    # an (n, 1) array would broadcast x onto both input neurons
    with pytest.raises(ValueError, match="^inputs: "):
        net_forward(*unpack_params(np.zeros(N_PARAMS)), np.zeros(shape))


def test_sample_batch_contents():
    batch = sample_batch(0, 100)
    assert batch.shape == (100, 3)
    assert np.all(np.abs(batch[:, :2]) <= 1.0)
    assert np.array_equal(batch[:, 2], batch[:, 0] * batch[:, 1])
    assert np.array_equal(batch, sample_batch(0, 100))
    assert not np.array_equal(batch, sample_batch(1, 100))
    with pytest.raises(ValueError, match="^batch_size: "):
        sample_batch(0, 0)
    with pytest.raises(ValueError, match="^seed: "):
        sample_batch(-1, 3)
    for seed in ("1", 1.5, None, True):
        with pytest.raises(ValueError, match="^seed: must be an integer, got "):
            sample_batch(seed, 3)
    for size in ("3", 2.5, None, True):
        with pytest.raises(ValueError, match="^batch_size: must be an integer, got "):
            sample_batch(0, size)


def test_multiply_problem_surface():
    p = MultiplyProblem(batch_size=10)
    assert p.dim == N_PARAMS
    q = p.initial_params(seed=0)
    assert q.shape == (N_PARAMS,)
    assert np.all(np.abs(q) <= 0.5 / np.sqrt(N_NEURONS))
    assert np.array_equal(q, MultiplyProblem().initial_params(seed=0))
    assert not np.array_equal(q, p.initial_params(seed=1))
    # a batch is the seed's draw at the problem's size; the loss is that of the rows given
    assert np.array_equal(p.batch(2), sample_batch(2, 10))
    assert p.loss(q, p.batch(2)) == net_loss(q, sample_batch(2, 10))
    assert p.loss(q, p.batch(0)) != p.loss(q, p.batch(2))
    with pytest.raises(ValueError, match="^batch_size: "):
        MultiplyProblem(batch_size=0)


@pytest.mark.parametrize("batch_size", [True, "3", 2.5, None])
def test_multiply_problem_refuses_a_batch_size_that_is_not_an_integer(batch_size):
    # True would pass a `< 1` test and fail at the problem's first batch
    with pytest.raises(ValueError, match="^batch_size: must be an integer, got "):
        MultiplyProblem(batch_size)


def test_multiply_gradient_descends():
    p = MultiplyProblem(batch_size=50)
    q = p.initial_params(seed=5)
    batch = p.batch(9)
    g = p.gradient(q, batch)
    before = p.loss(q, batch)
    after = p.loss(q - 1e-3 * g / np.max(np.abs(g)), batch)
    assert after < before


def textbook_update(weights, biases, state):
    """One synchronous update of every neuron: tanh(x @ W.T + b)."""
    return np.tanh(state @ weights.T + biases)


def reference_states(weights, biases, inputs):
    """Textbook forward pass: DEPTH updates of the input state."""
    x = np.zeros((inputs.shape[0], N_NEURONS))
    x[:, list(INPUT_NEURONS)] = inputs[:, :2]
    states = [x]
    for _ in range(DEPTH):
        states.append(textbook_update(weights, biases, states[-1]))
    return states


def reference_loss_and_grad(q, batch):
    """Textbook reverse pass, keeping the last sensitivity product."""
    weights, biases = unpack_params(q)
    n = batch.shape[0]
    states = reference_states(weights, biases, batch)
    residual = states[-1][:, OUTPUT_NEURON] - batch[:, 2]
    gw = np.zeros_like(weights)
    gb = np.zeros_like(biases)
    sensitivity = np.zeros((n, N_NEURONS))
    sensitivity[:, OUTPUT_NEURON] = 2.0 * residual / n
    for k in range(DEPTH, 0, -1):
        u = sensitivity * (1.0 - states[k] ** 2)
        gw += u.T @ states[k - 1]
        gb += u.sum(axis=0)
        sensitivity = u @ weights
    return float(np.mean(residual**2)), np.concatenate([gw.ravel(), gb]), states


@pytest.mark.parametrize("size", [1, 2, 7, 100])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_network_kernel_matches_textbook_reference(size, seed):
    rng = np.random.default_rng(seed)
    # a small scale keeps tanh linear-ish, a large one saturates it
    for scale in (0.1, 1.0):
        q = scale * rng.standard_normal(N_PARAMS)
        weights, biases = unpack_params(q)
        batch = sample_batch(seed, size)
        ref_loss, ref_grad, ref_states = reference_loss_and_grad(q, batch)
        states, pred = net_forward(weights, biases, batch)
        assert states.shape == (DEPTH, size, N_NEURONS)
        np.testing.assert_array_equal(states[0], ref_states[0])
        # each update is checked against one textbook update of the kernel's
        # own previous state: which BLAS routine numpy picks, and so how a
        # product rounds, depends on the batch size and the operands' layout,
        # and along a chain of updates that rounding compounds, so comparing
        # two chains state by state would pin a summation order
        for k in range(1, DEPTH):
            want = textbook_update(weights, biases, states[k - 1])
            np.testing.assert_allclose(states[k], want, rtol=1e-13, atol=1e-15)
        # the kernel forms the last update for the output neuron alone
        want = textbook_update(weights, biases, states[-1])[:, OUTPUT_NEURON]
        np.testing.assert_allclose(pred, want, rtol=1e-13, atol=1e-15)
        loss, grad = net_loss_and_grad(q, batch)
        assert grad.shape == (N_PARAMS,)
        np.testing.assert_allclose(loss, ref_loss, rtol=1e-13)
        np.testing.assert_allclose(net_loss(q, batch), ref_loss, rtol=1e-13)
        atol = 1e-13 * np.max(np.abs(ref_grad))
        np.testing.assert_allclose(grad, ref_grad, rtol=1e-13, atol=atol)
