"""Benchmark objectives: the Rosenbrock valley and a product-learning network.

Both problems expose the same small surface the run harness consumes:
``dim``, ``initial_params(seed)``, ``loss(q, batch)`` and
``gradient(q, batch)``. Neither keeps state between calls. The
Rosenbrock objective is deterministic and ignores the batch; the network
objective evaluates the rows it is given, which ``MultiplyProblem.batch(seed)``
draws, so a caller that passes one draw to ``gradient`` and ``loss``
evaluates both on the same data. A bad argument is a ``ValueError`` whose
message starts with its name.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from ._args import scalar


# --- Rosenbrock ---------------------------------------------------------


def _rosenbrock_point(q) -> NDArray[np.float64]:
    """q as a float vector of at least two coordinates."""
    q = np.asarray(q, dtype=np.float64)
    if q.ndim != 1:
        raise ValueError(f"q: expected a parameter vector, got shape {q.shape}")
    if q.shape[0] < 2:
        raise ValueError("dim: rosenbrock needs at least 2 dimensions")
    return q


def rosenbrock_loss(q: NDArray[np.float64]) -> float:
    """Generalized Rosenbrock value, sum over consecutive coordinate pairs.

    For two dimensions this is the classic (1-x)^2 + 100(y - x^2)^2 with the
    minimum at (1, 1).
    """
    q = _rosenbrock_point(q)
    head, tail = q[:-1], q[1:]
    return float(np.add.reduce((1.0 - head) ** 2 + 100.0 * (tail - head**2) ** 2))


def rosenbrock_grad(q: NDArray[np.float64]) -> NDArray[np.float64]:
    q = _rosenbrock_point(q)
    head, tail = q[:-1], q[1:]
    valley = tail - head**2
    # accumulate onto zeros, so a -0.0 term reads +0.0 as in the textbook sum
    grad = np.zeros(q.shape)
    lower, upper = grad[:-1], grad[1:]
    lower += -2.0 * (1.0 - head) - 400.0 * head * valley
    upper += 200.0 * valley
    return grad


class RosenbrockProblem:
    """Deterministic valley benchmark; the 2-D start point sits at (0, 0.5)."""

    def __init__(self, dim: int = 2):
        self.dim = scalar("dim", dim, int, low=2)

    def initial_params(self, seed: int = 0) -> NDArray[np.float64]:
        # Fixed start regardless of seed: the objective has no sampling.
        q = np.zeros(self.dim)
        if self.dim == 2:
            q[1] = 0.5
        return q

    def loss(self, q, batch=None) -> float:
        return rosenbrock_loss(q)

    def gradient(self, q, batch=None) -> NDArray[np.float64]:
        return rosenbrock_grad(q)


# --- Product-learning network -------------------------------------------

N_NEURONS = 23
DEPTH = 5
N_PARAMS = N_NEURONS * N_NEURONS + N_NEURONS  # 552
INPUT_NEURONS = (0, 1)
OUTPUT_NEURON = 2
_INPUT_SLICE = slice(INPUT_NEURONS[0], INPUT_NEURONS[-1] + 1)  # adjacent neurons


def unpack_params(q: NDArray[np.float64]) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Views of a 552-vector as the (N_NEURONS, N_NEURONS) weight matrix, held
    row-major in the leading entries, and the N_NEURONS biases after it.

    The network is all-to-all recurrent: every neuron connects to every
    neuron (self-loops included), so there is no layer structure to exploit,
    and the one weight matrix is applied DEPTH times.
    """
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (N_PARAMS,):
        raise ValueError(f"q: expected a parameter vector of shape ({N_PARAMS},), got {q.shape}")
    return q[:-N_NEURONS].reshape(N_NEURONS, N_NEURONS), q[-N_NEURONS:]


def _row_count(name: str, rows: NDArray[np.float64], columns: int) -> int:
    """The number of rows of a 2-D array that has at least one row and at
    least ``columns`` columns; any other value is refused under ``name``."""
    if not isinstance(rows, np.ndarray):
        raise ValueError(f"{name}: expected a numpy array, got {type(rows).__name__}")
    if rows.ndim != 2 or rows.shape[0] < 1 or rows.shape[1] < columns:
        raise ValueError(
            f"{name}: expected n >= 1 rows of at least {columns} columns, got shape {rows.shape}"
        )
    return rows.shape[0]


def net_forward(
    weights: NDArray[np.float64], biases: NDArray[np.float64], inputs: NDArray[np.float64]
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Forward pass for n input rows whose first two columns are (x, y);
    further columns are ignored. Returns ``(states, pred)``.

    ``states`` is one (DEPTH, n, N_NEURONS) array: ``states[0]`` is zero
    except the two input neurons, and each state after it is one synchronous
    tanh update of the one before. The DEPTH-th update is formed for the
    output neuron alone, since nothing else of it is read: ``pred``, the n
    predictions.
    """
    n = _row_count("inputs", inputs, 2)
    # a product runs faster on a contiguous copy of the transpose (one small
    # copy per call) than on the strided view
    weights_t = np.ascontiguousarray(weights.T)
    # adding the (N_NEURONS,) biases by broadcasting allocates an n x 23
    # temporary on every call; adding an array of the state's shape does not
    bias_rows = np.empty((n, N_NEURONS))
    bias_rows[...] = biases
    states = np.zeros((DEPTH, n, N_NEURONS))
    states[0, :, _INPUT_SLICE] = inputs[:, :2]
    for k in range(1, DEPTH):
        z = np.dot(states[k - 1], weights_t, out=states[k])
        z += bias_rows
        np.tanh(z, out=z)
    pred = np.dot(states[-1], weights[OUTPUT_NEURON])
    pred += biases[OUTPUT_NEURON]
    return states, np.tanh(pred, out=pred)


def net_loss(q: NDArray[np.float64], batch: NDArray[np.float64]) -> float:
    """Mean squared error of the network on a (n, 3) batch of (x, y, target)."""
    n = _row_count("batch", batch, 3)
    _, pred = net_forward(*unpack_params(q), batch)
    residual = pred - batch[:, 2]
    return float(np.add.reduce(residual * residual)) / n


def net_loss_and_grad(
    q: NDArray[np.float64], batch: NDArray[np.float64]
) -> tuple[float, NDArray[np.float64]]:
    """MSE and its gradient w.r.t. the 552 parameters, by reverse accumulation.

    The weight matrix is shared across all DEPTH applications, so its
    gradient is one sum over every update: the sensitivities of the first
    DEPTH-1 updates are stacked in one buffer and met with the states they
    read in one product. The last update reaches the output neuron alone,
    so it adds one row.
    """
    n = _row_count("batch", batch, 3)
    weights, biases = unpack_params(q)
    states, pred = net_forward(weights, biases, batch)
    residual = pred - batch[:, 2]
    loss = float(np.add.reduce(residual * residual)) / n

    # d tanh(z)/dz expressed through the activation: 1 - x^2
    u_out = np.square(pred)
    np.subtract(1.0, u_out, out=u_out)
    u_out *= 2.0 * residual / n
    # u[k - 1]: the loss's derivative by the pre-activation of update k < DEPTH
    u = np.square(states[1:])
    np.subtract(1.0, u, out=u)
    out_row = np.dot(u_out, states[-1])
    # states[-1] is spent: the products below go into it, where a
    # broadcasting ufunc or np.multiply.outer would allocate n x 23 temporaries
    scratch = states[-1]
    # the top update reaches the output neuron alone: its sensitivity is the
    # outer product of u_out and the output neuron's weights, a rank-1 GEMM
    u[-1] *= np.dot(u_out.reshape(-1, 1), weights[OUTPUT_NEURON, None], out=scratch)
    for k in range(DEPTH - 2, 0, -1):  # the input state has no parameters upstream
        u[k - 1] *= np.dot(u[k], weights, out=scratch)

    grad = np.empty(N_PARAMS)
    gw, gb = unpack_params(grad)
    rows = u.reshape(-1, N_NEURONS)
    np.dot(rows.T, states[:-1].reshape(-1, N_NEURONS), out=gw)
    # a column sum as a vector-matrix product: one BLAS call, where
    # np.add.reduce over axis 0 loops once per row (~3x slower at n = 100)
    np.dot(np.ones(rows.shape[0]), rows, out=gb)
    gw[OUTPUT_NEURON] += out_row
    gb[OUTPUT_NEURON] += np.add.reduce(u_out)
    return loss, grad


def sample_batch(seed: int, size: int) -> NDArray[np.float64]:
    """(size, 3) rows of x, y, x*y with x, y uniform on [-1, 1]."""
    size = scalar("batch_size", size, int, low=1)
    rng = np.random.default_rng(scalar("seed", seed, int, low=0))
    # numpy refuses a size past its limit with ValueError, one past the
    # machine's memory with MemoryError; both are MemoryError here
    try:
        batch = np.empty((size, 3))
        batch[:, :2] = rng.uniform(-1.0, 1.0, size=(size, 2))
    except (MemoryError, ValueError) as exc:
        raise MemoryError(f"no room for a batch of {size} samples: {exc}") from None
    np.multiply(batch[:, 0], batch[:, 1], out=batch[:, 2])
    return batch


class MultiplyProblem:
    """Learn f(x, y) = x*y with the 23-neuron unconstrained network.

    Stochastic: a run draws each step's rows once with ``batch(seed)`` and
    passes them to ``gradient`` and to ``loss``, so the loss surface changes
    step to step while a step's gradient and loss see the same data.
    """

    def __init__(self, batch_size: int = 100):
        self.dim = N_PARAMS
        self.batch_size = scalar("batch_size", batch_size, int, low=1)

    def initial_params(self, seed: int = 0) -> NDArray[np.float64]:
        rng = np.random.default_rng(seed)
        return rng.uniform(-0.5, 0.5, size=N_PARAMS) / np.sqrt(N_NEURONS)

    def batch(self, seed: int) -> NDArray[np.float64]:
        return sample_batch(seed, self.batch_size)

    def loss(self, q, batch) -> float:
        return net_loss(q, batch)

    def gradient(self, q, batch) -> NDArray[np.float64]:
        _, grad = net_loss_and_grad(q, batch)
        return grad


def finite_diff_grad(problem, q, h: float, batch=None) -> NDArray[np.float64]:
    """Central-difference gradient of problem.loss at q, one coordinate at a time."""
    h = scalar("h", h, above=0)
    q = np.asarray(q, dtype=np.float64)
    grad = np.zeros_like(q)
    for i in range(q.shape[0]):
        bumped = q.copy()
        bumped[i] = q[i] + h
        up = problem.loss(bumped, batch)
        bumped[i] = q[i] - h
        down = problem.loss(bumped, batch)
        grad[i] = (up - down) / (2.0 * h)
    return grad


__all__ = [
    "rosenbrock_loss",
    "rosenbrock_grad",
    "RosenbrockProblem",
    "unpack_params",
    "net_forward",
    "net_loss",
    "net_loss_and_grad",
    "sample_batch",
    "MultiplyProblem",
    "finite_diff_grad",
    "N_NEURONS",
    "DEPTH",
    "N_PARAMS",
    "INPUT_NEURONS",
    "OUTPUT_NEURON",
]
