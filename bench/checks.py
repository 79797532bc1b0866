"""Output checks, each against a computation made here or a required property.

Nothing here compares with stored output. The Rosenbrock value, the loss
EMA, the textbook optimizer loops, the network forward pass, the batch
stream, the moment averages and the eigendecompositions (scipy, not the
program's numpy path) are all recomputed from the run's inputs. Every check
returns a list of failure messages; an empty list is a pass. None depends
on CSV bytes, which follow the BLAS thread count.
"""

from __future__ import annotations

import csv

import numpy as np
import scipy.linalg

from workloads import PRESET_METRICS

TAU_SMOOTH = 20.0
EIG_TRACK_INTERVAL = 10
EPS = 1e-8
BATCH_SIZE = 100
N_NEURONS, DEPTH, INPUTS, OUTPUT = 23, 5, (0, 1), 2
CONVERGED = 1e-3

# The textbook loops stay within 1e-12 of rmsprop and adam up to steps 457
# and 520, and of adabelief for all 5000 steps; the acceptance tests
# establish the first 100. Over 200 steps the largest gap is 1.6e-14.
# sgd must match bit for bit all the way.
TEXTBOOK_SPAN = 200
TEXTBOOK_TOL = 1e-12

# Relative tolerances, each far below the perturbation the self-test plants
# (1e-6 on a loss row or an eigenvalue, 1e-4 on a direction, 1e-3 on a
# gradient) and far above the largest gap measured on working code: 2.8e-15
# (EMA), 8.4e-13 (diagonal moves), 4.4e-11 (full-metric directions),
# 3.2e-15 (eigenvalues), 1.7e-8 (central differences).
LOSS_RTOL = 1e-12
DIRECTION_RTOL = 1e-8
EIG_RTOL = 1e-10
FD_RTOL = 1e-5
FD_STEP = 1e-5


def beta(tau: float) -> float:
    return tau / (1.0 + tau)


def read_csv(path) -> dict[str, np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    table = np.array([[float(cell) for cell in row] for row in body])
    return {name: table[:, i] for i, name in enumerate(header)}


def columns(cols: dict, prefix: str) -> np.ndarray | None:
    names = sorted((n for n in cols if n.startswith(prefix) and n[len(prefix):].isdigit()),
                   key=lambda n: int(n[len(prefix):]))
    return np.column_stack([cols[n] for n in names]) if names else None


def check_table(label: str, cols: dict, steps: int) -> list[str]:
    out = []
    if len(cols["step"]) != steps or not np.array_equal(cols["step"], np.arange(1, steps + 1)):
        out.append(f"{label}: step column is not 1..{steps}")
    if not all(np.all(np.isfinite(v)) for v in cols.values()):
        out.append(f"{label}: non-finite value in the CSV")
    return out


def check_smoothing(label: str, loss: np.ndarray, smoothed: np.ndarray) -> list[str]:
    b = beta(TAU_SMOOTH)
    expected = np.empty_like(loss)
    expected[0] = loss[0]
    for t in range(1, loss.shape[0]):
        expected[t] = b * expected[t - 1] + (1.0 - b) * loss[t]
    err = np.abs(smoothed - expected) / np.abs(expected)
    if not np.all(err <= LOSS_RTOL):
        t = int(np.argmax(err))
        return [f"{label}: smoothed_loss at step {t + 1} is off its EMA by {err[t]:.2e}"]
    return []


def check_converged(label: str, smoothed: np.ndarray) -> list[str]:
    if not smoothed[-1] < CONVERGED:
        return [f"{label}: final smoothed loss {smoothed[-1]:.3g} is not below {CONVERGED:g}"]
    return []


# --- Rosenbrock ---------------------------------------------------------


def check_rosenbrock_loss(label: str, cols: dict) -> list[str]:
    x, y = cols["q0"], cols["q1"]
    expected = (1.0 - x) ** 2 + 100.0 * (y - x * x) ** 2
    err = np.abs(cols["loss"] - expected) / np.maximum(np.abs(expected), 1e-300)
    if not np.all(err <= LOSS_RTOL):
        t = int(np.argmax(err))
        return [f"{label}: loss at step {t + 1} is off (1-q0)^2+100(q1-q0^2)^2 by {err[t]:.2e}"]
    return []


def textbook_rosenbrock(preset: str, hp: tuple, steps: int) -> np.ndarray:
    """Beta-form loops of the classical optimizers, no bias correction."""
    gamma, tau1, tau2, _ = hp
    b1, b2 = beta(tau1), beta(tau2)
    q = np.array([0.0, 0.5])
    m, v = np.zeros(2), np.ones(2)
    out = np.empty((steps, 2))
    for t in range(steps):
        x, y = q
        g = np.array([-2.0 * (1.0 - x) - 400.0 * x * (y - x * x), 200.0 * (y - x * x)])
        if preset == "sgd":
            q = q - gamma * g
        else:
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            s = v - m * m if preset == "adabelief" else v
            q = q - gamma * m / np.sqrt(EPS + np.maximum(s, 0.0))
        out[t] = q
    return out


def check_textbook(label: str, preset: str, hp: tuple, params: np.ndarray) -> list[str]:
    if preset == "sgd":
        if not np.array_equal(params, textbook_rosenbrock(preset, hp, params.shape[0])):
            return [f"{label}: parameters differ from textbook gradient descent"]
        return []
    span = min(TEXTBOOK_SPAN, params.shape[0])
    dev = float(np.max(np.abs(params[:span] - textbook_rosenbrock(preset, hp, span))))
    if not dev <= TEXTBOOK_TOL:
        return [f"{label}: parameters leave the textbook loop by {dev:.2e} within {span} steps"]
    return []


def check_ranking(final_smoothed: dict[str, float]) -> list[str]:
    leaders = {"adam", "cgd_diagonal", "cgd_full"}
    top = set(sorted(final_smoothed, key=final_smoothed.get)[:3])
    out = [f"rosenbrock: {name} ends at {final_smoothed[name]:.3g}, not below 1e-2"
           for name in sorted(leaders) if not final_smoothed[name] < 1e-2]
    if top != leaders:
        out.append(f"rosenbrock: top three are {sorted(top)}, not {sorted(leaders)}")
    return out


# --- The multiply network -------------------------------------------------


def batch_seeds(seed: int, steps: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    return rng.integers(2**63, size=steps)


def batch(batch_seed: int) -> np.ndarray:
    xy = np.random.default_rng(int(batch_seed)).uniform(-1.0, 1.0, size=(BATCH_SIZE, 2))
    return np.column_stack([xy, xy[:, 0] * xy[:, 1]])


def net_loss(q: np.ndarray, data: np.ndarray) -> float:
    """Mean squared error of the 23-neuron all-to-all tanh net, 5 updates."""
    w = q[: N_NEURONS * N_NEURONS].reshape(N_NEURONS, N_NEURONS)
    b = q[N_NEURONS * N_NEURONS:]
    x = np.zeros((data.shape[0], N_NEURONS))
    x[:, INPUTS[0]], x[:, INPUTS[1]] = data[:, 0], data[:, 1]
    for _ in range(DEPTH):
        x = np.tanh(x @ w.T + b)
    return float(np.mean((x[:, OUTPUT] - data[:, 2]) ** 2))


def check_final_loss(label: str, loss: np.ndarray, final_params, seed: int) -> list[str]:
    data = batch(batch_seeds(seed, loss.shape[0])[-1])
    expected = net_loss(np.asarray(final_params, dtype=np.float64), data)
    err = abs(loss[-1] - expected) / expected
    if not err <= 1e-10:
        return [f"{label}: last loss {loss[-1]!r} differs from the forward pass "
                f"{expected!r} by {err:.2e}"]
    return []


def check_spectrum(label: str, eig: np.ndarray) -> list[str]:
    """Tracked eigenvalues: clamped, descending, carried between tracked
    steps, and the top one at least a decade below its peak at the end."""
    out = []
    if np.any(eig < 0.0) or np.any(np.diff(eig, axis=1) > 0.0):
        out.append(f"{label}: eig columns are not clamped at zero and descending")
    carried = np.arange(1, eig.shape[0]) % EIG_TRACK_INTERVAL != 0
    if not np.array_equal(eig[1:][carried], eig[:-1][carried]):
        out.append(f"{label}: eig values change between tracked steps")
    top = eig[:, 0]
    if not top[-1] <= top.max() / 10.0:
        out.append(f"{label}: top eigenvalue ends at {top[-1]:.3g}, "
                   f"not a decade below its peak {top.max():.3g}")
    return out


def own_moments(grads: np.ndarray, tau1: float, tau2: float, full: bool):
    """Yield (step, m1, m2) for every step: beta-form EMAs, m1 from zero and
    m2 from the identity (ones on the diagonal)."""
    b1, b2 = beta(tau1), beta(tau2)
    d = grads.shape[1]
    m1 = np.zeros(d)
    m2 = np.eye(d) if full else np.ones(d)
    for t, g in enumerate(grads, start=1):
        m1 = b1 * m1 + (1.0 - b1) * g
        m2 = b2 * m2 + (1.0 - b2) * (np.outer(g, g) if full else g * g)
        yield t, m1, m2


def relative_error(actual: np.ndarray, expected: np.ndarray) -> float:
    return float(np.linalg.norm(actual - expected) / np.linalg.norm(expected))


def check_diagonal_moves(label: str, preset: str, hp: tuple, grads, before, after) -> list[str]:
    """At each sampled step, the parameter move equals a textbook diagonal
    update built from this module's own moment averages of the gradients."""
    gamma, tau1, tau2, power = hp
    centered = PRESET_METRICS[preset][1]
    out = []
    for t, m1, v in own_moments(grads, tau1, tau2, full=False):
        if t not in before:
            continue
        s = v - m1 * m1 if centered else v
        expected = m1 / (EPS + np.maximum(s, 0.0)) ** power
        err = relative_error((before[t] - after[t]) / gamma, expected)
        if not err <= DIRECTION_RTOL:
            out.append(f"{label}: step {t} moves {err:.2e} off the textbook diagonal update")
    return out


def check_gradients(label: str, grads, before, seed: int, at) -> list[str]:
    """Gradients against central differences of this module's forward pass."""
    seeds = batch_seeds(seed, grads.shape[0])
    out = []
    for t in at:
        q, data = before[t], batch(seeds[t - 1])
        numeric = np.empty_like(q)
        for i in range(q.shape[0]):
            bumped = q.copy()
            bumped[i] = q[i] + FD_STEP
            up = net_loss(bumped, data)
            bumped[i] = q[i] - FD_STEP
            numeric[i] = (up - net_loss(bumped, data)) / (2.0 * FD_STEP)
        analytic = grads[t - 1]
        err = float(np.max(np.abs(numeric - analytic)) / np.max(np.abs(analytic)))
        if not err <= FD_RTOL:
            out.append(f"{label}: gradient at step {t} is {err:.2e} off central differences")
    return out


def check_full_directions(label: str, hp: tuple, interval: int, grads, before, after,
                          eig: np.ndarray, eig_at) -> list[str]:
    """Full-metric steps against (eps*I + clamp0(C))^(-a) @ m1, with C from
    this module's moment averages and decomposed by scipy. With a refresh
    interval > 1 the operator is built on steps 1, 1 + interval, ... and a
    step in between must apply the last one built to its current m1. The
    tracked eig columns must equal C's top eigenvalues, clamped, descending."""
    gamma, tau1, tau2, power = hp
    k = eig.shape[1]
    out = []
    operator = None
    for t, m1, m2 in own_moments(grads, tau1, tau2, full=True):
        refresh = (t - 1) % interval == 0
        build = refresh and any(s in before for s in range(t, t + interval))
        if build or t in eig_at:
            w, v = scipy.linalg.eigh(m2 - np.outer(m1, m1))
        if build:
            operator = (v, (np.maximum(w, 0.0) + EPS) ** (-power))
        if t in before:
            basis, weights = operator
            expected = basis @ (weights * (basis.T @ m1))
            err = relative_error((before[t] - after[t]) / gamma, expected)
            if not err <= DIRECTION_RTOL:
                kind = "refresh" if refresh else "cached-operator"
                out.append(f"{label}: {kind} step {t} direction is {err:.2e} off")
        if t in eig_at:
            top = np.maximum(w, 0.0)[::-1][:k]
            err = float(np.max(np.abs(eig[t - 1] - top)) / top[0])
            if not err <= EIG_RTOL:
                out.append(f"{label}: eig row {t} is {err:.2e} off the top {k} of C")
    return out
