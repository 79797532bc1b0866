"""Experiment runner: seeded optimization runs recorded to CSV.

A run is fully determined by its :class:`ExperimentConfig` — problem, preset,
overrides, step budget, seed. Each step evaluates the gradient on that step's
batch, applies the optimizer update, and records the post-update loss on the
same batch, so row t answers "how good are the parameters after t updates".
The loss column is also tracked through a presentation-only EMA (tau = 20)
that never feeds back into optimization.

Config files are flat ``key = value`` text; unknown keys are hard errors.
"""

from __future__ import annotations

import functools
import io
import math
import numbers
import os
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np
from numpy.typing import NDArray

from .metric import MetricShape
from .moments import ema_update
from .optimizer import (PRESET_NAMES, CgdConfig, initial_state, normalize_preset_name,
                        preset, step)
from .problems import MultiplyProblem, RosenbrockProblem, finite_diff_grad

TAU_PLOT = 20.0

PROBLEM_NAMES = ("rosenbrock", "multiply")


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


class NumericalError(RuntimeError):
    """Loss or full-metric statistic became non-finite during a run, or the
    eigensolver did not converge on the statistic."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class ExperimentConfig:
    """One optimization run, fully specified.

    gamma/tau1/tau2/power/statistic left as None fall back to the named
    preset's tuned values for the chosen problem, and eps to the metric's
    default. dim and q0 apply to rosenbrock only, batch_size to multiply
    only; setting one for the wrong problem is a config error rather than a
    silent ignore.
    """

    problem: str = "rosenbrock"
    optimizer: str = "cgd_diagonal"
    gamma: float | None = None
    tau1: float | None = None
    tau2: float | None = None
    power: float | None = None
    eps: float | None = None
    statistic: str | None = None
    steps: int = 5000
    seed: int = 0
    dim: int | None = None
    q0: tuple[float, ...] | None = None
    batch_size: int | None = None
    eig_track_k: int = 0
    eig_track_interval: int = 10
    metric_update_interval: int = 1
    output_dir: str = "runs"

    def __post_init__(self):
        # the one place a value is typed: a config file, an override and Python all pass here
        for field in fields(self):
            value = getattr(self, field.name)
            if value is not None or field.default is not None:
                object.__setattr__(self, field.name, _coerce(field.name, value))
        if self.problem not in PROBLEM_NAMES:
            raise ConfigError(f"problem: expected one of {PROBLEM_NAMES}, got {self.problem!r}")
        for key, low in _LOWER_BOUNDS.items():
            if getattr(self, key) < low:
                raise ConfigError(f"{key}: must be >= {low}, got {getattr(self, key)}")
        if self.problem == "rosenbrock":
            if self.batch_size is not None:
                raise ConfigError("batch_size: only valid for the multiply problem")
        else:
            if self.dim is not None:
                raise ConfigError("dim: only valid for the rosenbrock problem")
            if self.q0 is not None:
                raise ConfigError("q0: only valid for the rosenbrock problem")
        dim = self.build_problem().dim
        if self.q0 is not None and len(self.q0) != dim:
            raise ConfigError(f"q0: expected {dim} values, got {len(self.q0)}")
        if self.q0 is not None and not all(map(math.isfinite, self.q0)):
            raise ConfigError(f"q0: must be finite, got {self.q0}")
        if self.eig_track_k > dim:
            raise ConfigError(f"eig_track_k: exceeds problem dimension {dim}")
        # Resolve the preset eagerly so an unknown name, bad hyperparameters
        # and incompatible eigenvalue tracking fail at config time, not mid-run.
        opt = self.optimizer_config()
        # frozen dataclass: the canonical name replaces the one given
        object.__setattr__(self, "optimizer", normalize_preset_name(self.optimizer))
        if self.eig_track_k > 0 and opt.shape is not MetricShape.FULL:
            raise ConfigError("eig_track_k: requires a full-matrix metric (cgd_full)")

    def build_problem(self):
        """The configured problem; an unset dim or batch_size keeps the problem's default."""
        try:
            if self.problem == "rosenbrock":
                return RosenbrockProblem() if self.dim is None else RosenbrockProblem(self.dim)
            if self.batch_size is None:
                return MultiplyProblem()
            return MultiplyProblem(self.batch_size)
        except ValueError as exc:  # each problem check names its key first
            raise ConfigError(str(exc)) from None

    def optimizer_config(self) -> CgdConfig:
        try:
            return preset(self.optimizer, context=self.problem, gamma=self.gamma, tau1=self.tau1,
                          tau2=self.tau2, power=self.power, eps=self.eps, statistic=self.statistic,
                          metric_update_interval=self.metric_update_interval)
        except ValueError as exc:  # each field check names its field first
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        return cls(**_known(mapping))

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        # decoded in one piece, so a non-UTF-8 byte is reported at its file
        # offset (a byte-order mark included, which "utf-8-sig" would skip);
        # a NUL byte in the path is a ValueError from open()
        try:
            with open(path, "rb") as fh:
                contents = fh.read().decode("utf-8").removeprefix("\ufeff")
        except (OSError, ValueError) as exc:
            raise ConfigError(f"config: cannot read {path}: {exc}") from exc
        mapping: dict[str, str] = {}
        # universal newlines: \n, \r\n and \r each end a line
        for lineno, line in enumerate(io.StringIO(contents, newline=None), start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ConfigError(
                    f"{path}:{lineno}: expected 'key = value', got {line.strip()!r}"
                )
            key, value = text.split("=", 1)
            key = key.strip()
            if key in mapping:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            mapping[key] = value.strip()
        return cls.from_mapping(mapping)

    def with_overrides(self, overrides: dict) -> "ExperimentConfig":
        return replace(self, **_known(overrides))


def _value_type(hint) -> type:
    """The type a field declares: ``int | None`` -> int, ``tuple[float, ...]`` -> tuple."""
    hint = next((arg for arg in get_args(hint) if arg is not type(None)), hint)
    return get_origin(hint) or hint


_FIELD_TYPES = {key: _value_type(hint) for key, hint in get_type_hints(ExperimentConfig).items()}
_LOWER_BOUNDS = {"steps": 1, "seed": 0, "eig_track_k": 0, "eig_track_interval": 1}

# what a field takes, besides a string, from a config built in Python
_TYPED_VALUES = {int: numbers.Integral, float: numbers.Real, str: os.PathLike}
_EXPECTED = {int: "an integer", float: "a number", str: "a string",
             tuple: "comma-separated numbers"}


def _known(mapping: dict) -> dict:
    """``mapping`` itself, once each of its keys names an ExperimentConfig field."""
    unknown = sorted(set(mapping) - set(_FIELD_TYPES))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    return mapping


def _coerce(key: str, raw):
    """Turn a config-file string, or a value given in Python, into the field type."""
    kind = _FIELD_TYPES[key]
    try:
        if kind is tuple:  # a string, or any other sequence (a numpy array included)
            parts = raw.split(",") if isinstance(raw, str) else raw
            return tuple(float(part) for part in parts)
        if isinstance(raw, str):
            return kind(raw.strip())
        if isinstance(raw, _TYPED_VALUES[kind]) and not isinstance(raw, bool):
            return kind(raw)  # not through str(), which would round a np.float32
    except (TypeError, ValueError, OverflowError):  # float(None); float(10**400)
        pass
    raise ConfigError(f"{key}: expected {_EXPECTED[kind]}, got {raw!r}")


@dataclass
class RunRecord:
    """Per-step trajectory of one run.

    ``params`` is populated only for low-dimensional problems (d <= 4), where
    plotting the raw trajectory is meaningful. ``eigenvalues`` holds the
    tracked top-k spectrum of the metric statistic per row (descending),
    carried forward between tracking steps; None when tracking is off.
    """

    config: ExperimentConfig
    steps: NDArray[np.int64]
    losses: NDArray[np.float64]
    smoothed: NDArray[np.float64]
    params: NDArray[np.float64] | None
    eigenvalues: NDArray[np.float64] | None
    final_params: NDArray[np.float64]


def track_eigenvalues(spectrum: NDArray[np.float64], k: int) -> NDArray[np.float64]:
    """Top-k eigenvalues of a spectrum clamped at zero, descending.

    ``spectrum`` is the raw ascending spectrum a step carries in
    ``OptimizerState.spectrum``: that of the statistic behind the full-metric
    operator the step applied (the covariance or the second moment, as the
    metric is configured; between refreshes, the reused operator's).
    """
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise ValueError(f"k: must be an integer, got {k!r}")
    if not 1 <= k <= spectrum.shape[0]:
        raise ValueError(f"k: must be in [1, {spectrum.shape[0]}], got {k}")
    return np.maximum(spectrum, 0.0)[::-1][:k]


def batch_seed_sequence(seed: int, steps: int) -> NDArray[np.int64]:
    """Per-step batch seeds, derived from the run seed on a separate stream.

    The spawn key keeps these independent of the parameter-init stream, which
    consumes default_rng(seed) directly.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    return rng.integers(2**63, size=steps)


# glibc mallopt parameters (malloc.h) and the fixed thresholds run_experiment sets
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_TRIM_THRESHOLD_BYTES = 256 * 2**20
_MMAP_THRESHOLD_BYTES = 32 * 2**20

@functools.cache
def _keep_heap_resident() -> None:
    """Stop glibc from handing the heap top back to the kernel after each step.

    A full-metric step at d = 552 frees its transient d x d arrays (outer
    product, covariance, eigensolver workspace) together. They exceed glibc's
    dynamic trim threshold, so the heap top is trimmed and the next step
    faults about 11 MB back in. A fixed trim threshold keeps those pages, but
    it also stops glibc raising the mmap threshold as it goes, which would
    leave every 2.4 MB d x d array to its own mmap and munmap; so the mmap
    threshold is fixed above them too. The setting is process-wide and made
    once per process. Off glibc, or if the C library cannot be reached, this
    does nothing.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return
        import ctypes  # already loaded by numpy; ctypes.util would pull in subprocess

        mallopt = ctypes.CDLL(None).mallopt
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    except (ImportError, ValueError, OSError, AttributeError):
        pass


def run_experiment(cfg: ExperimentConfig) -> RunRecord:
    """Execute one seeded run and return its complete trajectory.

    The first call in a process fixes glibc's malloc trim and mmap thresholds
    (see the README's Performance note).
    """
    _keep_heap_resident()
    problem = cfg.build_problem()
    opt_cfg = cfg.optimizer_config()

    # numpy refuses a size past its limit with ValueError and one past the
    # machine's memory with MemoryError; either way the config asked for it
    try:
        if cfg.q0 is not None:
            q_start = np.asarray(cfg.q0, dtype=np.float64)
        else:
            q_start = problem.initial_params(cfg.seed)
        state = initial_state(q_start, opt_cfg)
    except (MemoryError, ValueError) as exc:
        raise ConfigError(f"dim: no room for the state of {problem.dim} parameters: {exc}") \
            from None

    # Rosenbrock takes no batch; drawing its seeds would load numpy.random (~6 MB of RSS)
    stochastic = cfg.problem == "multiply"
    dim = q_start.shape[0]
    keep_params = dim <= 4
    k = cfg.eig_track_k

    try:
        batch_seeds = batch_seed_sequence(cfg.seed, cfg.steps) if stochastic else None
        losses = np.empty(cfg.steps)
        smoothed = np.empty(cfg.steps)
        params = np.empty((cfg.steps, dim)) if keep_params else None
        eigs = np.empty((cfg.steps, k)) if k > 0 else None
    except (MemoryError, ValueError) as exc:
        raise ConfigError(f"steps: no room for the record of {cfg.steps} steps: {exc}") from None

    # the key that sizes a step's arrays: the batch on multiply, the dimension on rosenbrock
    size_key = "batch_size" if stochastic else "dim"
    smooth = 0.0  # a Python float: its EMA rounds as a float64 does, without numpy scalars
    for t in range(cfg.steps):
        try:
            batch = problem.batch(int(batch_seeds[t])) if stochastic else None
            grad = problem.gradient(state.params, batch)
            state = step(state, grad, opt_cfg)
            loss = problem.loss(state.params, batch)
        except np.linalg.LinAlgError as exc:  # a non-finite or non-converging statistic
            raise NumericalError(
                f"full-metric eigendecomposition failed at step {t + 1}: {exc}", step=t + 1
            ) from exc
        except MemoryError as exc:
            raise ConfigError(f"{size_key}: no room for step {t + 1}: {exc}") from None
        if not math.isfinite(loss):
            raise NumericalError(f"loss became non-finite at step {t + 1}", step=t + 1)
        smooth = loss if t == 0 else ema_update(smooth, loss, TAU_PLOT)
        losses[t] = loss
        smoothed[t] = smooth
        if keep_params:
            params[t] = state.params
        if k > 0 and t % cfg.eig_track_interval == 0:
            eigs[t : t + cfg.eig_track_interval] = track_eigenvalues(state.spectrum, k)

    return RunRecord(
        config=cfg,
        steps=np.arange(1, cfg.steps + 1, dtype=np.int64),
        losses=losses,
        smoothed=smoothed,
        params=params,
        eigenvalues=eigs,
        final_params=state.params.copy(),
    )


def _value_columns(record: RunRecord) -> list[tuple[str, NDArray[np.float64]]]:
    """The CSV's columns after ``step``, in order, each named with its values."""
    columns = [("loss", record.losses), ("smoothed_loss", record.smoothed)]
    if record.params is not None:
        columns += [(f"q{i}", record.params[:, i]) for i in range(record.params.shape[1])]
    if record.eigenvalues is not None:
        columns += [(f"eig{i}", record.eigenvalues[:, i])
                    for i in range(record.eigenvalues.shape[1])]
    return columns


def csv_header(record: RunRecord) -> list[str]:
    return ["step"] + [name for name, _ in _value_columns(record)]


def make_output_dir(out_dir) -> Path:
    """Create the directory the CSVs go to; failing to is a config error."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


def write_csv(record: RunRecord, path) -> None:
    """Serialize a run record; repr() keeps every float round-trippable.

    An unwritable path raises :class:`ConfigError`.
    """
    table = np.column_stack([values for _, values in _value_columns(record)])
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(csv_header(record)) + "\n")
            for step, row in zip(record.steps.tolist(), table):
                fh.write(f"{step}," + ",".join(map(repr, row.tolist())) + "\n")
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def compare_suite(suite: str, out_dir, /, **settings) -> dict[str, RunRecord]:
    """Run every preset on one benchmark, writing a CSV per optimizer.

    ``settings`` apply to every run and are typed like config-file values;
    any :class:`ExperimentConfig` key is accepted except the four set here
    per run (``problem``, ``optimizer``, ``eig_track_k``, ``output_dir``).
    One not given keeps its default. Every run's config is built, and so
    checked, before the directory is made or a run starts. The full-matrix
    run on the multiply suite also tracks the top-10 covariance eigenvalues,
    matching the spectra-decay figure setup.
    """
    if suite not in PROBLEM_NAMES:
        raise ConfigError(f"suite: expected one of {PROBLEM_NAMES}, got {suite!r}")
    fixed = sorted(set(settings) & {"problem", "optimizer", "eig_track_k", "output_dir"})
    if fixed:
        raise ConfigError(f"{', '.join(fixed)}: set by compare for each run")
    configs = [ExperimentConfig(problem=suite, optimizer=name, output_dir=str(Path(out_dir)),
                                eig_track_k=10 if (suite, name) == ("multiply", "cgd_full") else 0,
                                **_known(settings)) for name in PRESET_NAMES]
    out = make_output_dir(out_dir)
    records: dict[str, RunRecord] = {}
    for cfg in configs:
        record = run_experiment(cfg)
        write_csv(record, out / f"{cfg.optimizer}.csv")
        records[cfg.optimizer] = record
    return records


# --- Gradient verification ------------------------------------------------

GRADCHECK_POINTS = 20
GRADCHECK_TOL = 1e-5


def gradcheck(problem_name: str) -> float:
    """Max relative error between analytic gradients and central differences.

    ``GRADCHECK_POINTS`` points are drawn from a fixed seed; the network
    problem gets a fresh batch per point, drawn once and shared by the
    gradient and every loss probe at that point.
    """
    problem = ExperimentConfig(problem=problem_name).build_problem()
    rng = np.random.default_rng(0)
    if problem_name == "rosenbrock":
        h = 1e-6
        points = [rng.uniform(-2.0, 2.0, size=2) for _ in range(GRADCHECK_POINTS)]
    else:
        h = 1e-5
        points = [0.1 * rng.standard_normal(problem.dim) for _ in range(GRADCHECK_POINTS)]
    worst = 0.0
    for point, q in enumerate(points):
        batch = problem.batch(point) if problem_name == "multiply" else None
        analytic = problem.gradient(q, batch)
        numeric = finite_diff_grad(problem, q, h=h, batch=batch)
        scale = max(float(np.max(np.abs(analytic))), 1e-300)
        worst = max(worst, float(np.max(np.abs(numeric - analytic))) / scale)
    return worst


__all__ = [
    "TAU_PLOT",
    "PROBLEM_NAMES",
    "GRADCHECK_POINTS",
    "GRADCHECK_TOL",
    "ConfigError",
    "NumericalError",
    "ExperimentConfig",
    "RunRecord",
    "track_eigenvalues",
    "batch_seed_sequence",
    "run_experiment",
    "csv_header",
    "make_output_dir",
    "write_csv",
    "compare_suite",
    "gradcheck",
]
