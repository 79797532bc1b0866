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

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .linalg import NonFiniteMatrix, eigendecompose
from .metric import MetricStatistic, ModeMismatch
from .moments import MetricShape, MomentState, covariance, ema_update
from .optimizer import CgdConfig, initial_state, normalize_preset_name, preset, step
from .problems import MultiplyProblem, RosenbrockProblem, finite_diff_grad

TAU_PLOT = 20.0

PROBLEM_NAMES = ("rosenbrock", "multiply")


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending field."""


class NumericalError(RuntimeError):
    """Loss or full-metric statistic became non-finite during a run."""

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class ExperimentConfig:
    """One optimization run, fully specified.

    gamma/tau1/tau2/power/eps/statistic left as None fall back to the named
    preset's tuned values for the chosen problem. dim and q0 apply to
    rosenbrock only, batch_size to multiply only; setting one for the wrong
    problem is a config error rather than a silent ignore.
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
        if self.problem not in PROBLEM_NAMES:
            raise ConfigError(f"problem: expected one of {PROBLEM_NAMES}, got {self.problem!r}")
        if self.steps < 1:
            raise ConfigError(f"steps: must be >= 1, got {self.steps}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        if self.eig_track_k < 0:
            raise ConfigError(f"eig_track_k: must be >= 0, got {self.eig_track_k}")
        if self.eig_track_interval < 1:
            raise ConfigError(
                f"eig_track_interval: must be >= 1, got {self.eig_track_interval}"
            )
        if self.metric_update_interval < 1:
            raise ConfigError(
                f"metric_update_interval: must be >= 1, got {self.metric_update_interval}"
            )
        if self.problem == "rosenbrock":
            if self.batch_size is not None:
                raise ConfigError("batch_size: only valid for the multiply problem")
            if self.dim is not None and self.dim < 2:
                raise ConfigError(f"dim: rosenbrock needs dim >= 2, got {self.dim}")
            if self.q0 is not None and len(self.q0) != self.resolved_dim():
                raise ConfigError(
                    f"q0: expected {self.resolved_dim()} values, got {len(self.q0)}"
                )
        else:
            if self.dim is not None:
                raise ConfigError("dim: only valid for the rosenbrock problem")
            if self.q0 is not None:
                raise ConfigError("q0: only valid for the rosenbrock problem")
            if self.batch_size is not None and self.batch_size < 1:
                raise ConfigError(f"batch_size: must be >= 1, got {self.batch_size}")
        if self.eig_track_k > self.resolved_dim():
            raise ConfigError(
                f"eig_track_k: exceeds problem dimension {self.resolved_dim()}"
            )
        # Resolve the preset eagerly so bad names and incompatible eigenvalue
        # tracking fail at config time, not mid-run.
        opt = self.optimizer_config()
        if self.eig_track_k > 0 and opt.metric.shape is not MetricShape.FULL:
            raise ConfigError("eig_track_k: requires a full-matrix metric (cgd_full)")

    def resolved_dim(self) -> int:
        if self.problem == "rosenbrock":
            return 2 if self.dim is None else self.dim
        return MultiplyProblem().dim

    def build_problem(self):
        if self.problem == "rosenbrock":
            return RosenbrockProblem(dim=self.resolved_dim())
        return MultiplyProblem(batch_size=100 if self.batch_size is None else self.batch_size)

    def optimizer_config(self) -> CgdConfig:
        try:
            return preset(
                self.optimizer,
                self.gamma,
                context=self.problem,
                tau1=self.tau1,
                tau2=self.tau2,
                power=self.power,
                eps=1e-8 if self.eps is None else self.eps,
                statistic=self.statistic,
                metric_update_interval=self.metric_update_interval,
            )
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"optimizer: {exc}") from exc

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(mapping) - known)
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
        kwargs = {}
        for key, raw in mapping.items():
            kwargs[key] = _coerce(key, raw)
        return cls(**kwargs)

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        mapping: dict[str, str] = {}
        try:
            with open(path, encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, start=1):
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
        except OSError as exc:
            raise ConfigError(f"config: cannot read {path}: {exc}") from exc
        return cls.from_mapping(mapping)

    def with_overrides(self, overrides: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(self)}
        unknown = sorted(set(overrides) - known)
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
        coerced = {key: _coerce(key, value) for key, value in overrides.items()}
        return replace(self, **coerced)


_INT_KEYS = {"steps", "seed", "dim", "batch_size", "eig_track_k", "eig_track_interval",
             "metric_update_interval"}
_FLOAT_KEYS = {"gamma", "tau1", "tau2", "power", "eps"}
_STR_KEYS = {"problem", "optimizer", "statistic", "output_dir"}


def _coerce(key: str, raw):
    """Turn a config-file string (or an already-typed value) into the field type."""
    if raw is None:
        return None
    if key in _INT_KEYS:
        if isinstance(raw, bool):
            raise ConfigError(f"{key}: expected an integer, got {raw!r}")
        if isinstance(raw, int):
            return raw
        try:
            return int(str(raw).strip())
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {raw!r}") from None
    if key in _FLOAT_KEYS:
        if isinstance(raw, (int, float)) and not isinstance(raw, bool):
            return float(raw)
        try:
            return float(str(raw).strip())
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
    if key == "q0":
        if isinstance(raw, (tuple, list)):
            return tuple(float(v) for v in raw)
        try:
            return tuple(float(part) for part in str(raw).split(","))
        except ValueError:
            raise ConfigError(f"q0: expected comma-separated numbers, got {raw!r}") from None
    if key in _STR_KEYS:
        value = str(raw).strip()
        if key == "optimizer":
            try:
                return normalize_preset_name(value)
            except KeyError as exc:
                raise ConfigError(f"optimizer: {exc.args[0]}") from None
        return value
    raise ConfigError(f"unknown config key(s): {key}")


@dataclass
class RunRecord:
    """Per-step trajectory of one run.

    ``params`` is populated only for low-dimensional problems (d <= 4), where
    plotting the raw trajectory is meaningful. ``eigenvalues`` holds the
    tracked top-k covariance spectrum per row (descending), carried forward
    between tracking steps; None when tracking is off.
    """

    config: ExperimentConfig
    steps: NDArray[np.int64]
    losses: NDArray[np.float64]
    smoothed: NDArray[np.float64]
    params: NDArray[np.float64] | None
    eigenvalues: NDArray[np.float64] | None
    final_params: NDArray[np.float64]


def track_eigenvalues(
    moments: MomentState, k: int, spectrum: NDArray[np.float64] | None = None
) -> NDArray[np.float64]:
    """Top-k eigenvalues of the clamped gradient covariance, descending.

    ``spectrum`` is the raw ascending spectrum of ``covariance(moments)``
    when the caller already has it (a full covariance metric built from these
    moments); without it the covariance is decomposed here.
    """
    if moments.mode is not MetricShape.FULL:
        raise ModeMismatch("eigenvalue tracking needs full-matrix moments")
    if not 1 <= k <= moments.dim:
        raise ValueError(f"k must be in [1, {moments.dim}], got {k}")
    if spectrum is None:
        spectrum = eigendecompose(covariance(moments)).eigenvalues
    elif spectrum.shape != (moments.dim,):
        raise ValueError(
            f"spectrum shape {spectrum.shape} does not match dimension {moments.dim}"
        )
    clamped = np.maximum(spectrum, 0.0)
    return clamped[::-1][:k]


def batch_seed_sequence(seed: int, steps: int) -> NDArray[np.int64]:
    """Per-step batch seeds, derived from the run seed on a separate stream.

    The spawn key keeps these independent of the parameter-init stream, which
    consumes default_rng(seed) directly.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    return rng.integers(2**63, size=steps)


def run_experiment(cfg: ExperimentConfig) -> RunRecord:
    """Execute one seeded run and return its complete trajectory."""
    problem = cfg.build_problem()
    opt_cfg = cfg.optimizer_config()

    if cfg.q0 is not None:
        q_start = np.asarray(cfg.q0, dtype=np.float64)
    else:
        q_start = problem.initial_params(cfg.seed)
    state = initial_state(q_start, opt_cfg)

    stochastic = cfg.problem == "multiply"
    batch_seeds = batch_seed_sequence(cfg.seed, cfg.steps) if stochastic else None

    dim = q_start.shape[0]
    keep_params = dim <= 4
    k = cfg.eig_track_k
    # the metric's own spectrum is the tracked one only when it decomposed
    # the covariance; a second-moment metric's spectrum is of m2
    reuse_spectrum = opt_cfg.metric.statistic is MetricStatistic.COVARIANCE

    losses = np.empty(cfg.steps)
    smoothed = np.empty(cfg.steps)
    params = np.empty((cfg.steps, dim)) if keep_params else None
    eigs = np.empty((cfg.steps, k)) if k > 0 else None

    for t in range(cfg.steps):
        bs = int(batch_seeds[t]) if stochastic else None
        grad = problem.gradient(state.params, bs)
        try:
            state = step(state, grad, opt_cfg)
        except NonFiniteMatrix as exc:
            raise NumericalError(
                f"full-metric statistic became non-finite at step {t + 1}", step=t + 1
            ) from exc
        loss = problem.loss(state.params, bs)
        if not math.isfinite(loss):
            raise NumericalError(f"loss became non-finite at step {t + 1}", step=t + 1)
        losses[t] = loss
        smoothed[t] = loss if t == 0 else ema_update(smoothed[t - 1], loss, TAU_PLOT)
        if keep_params:
            params[t] = state.params
        if k > 0:
            if t % cfg.eig_track_interval == 0:
                spectrum = state.spectrum if reuse_spectrum else None
                eigs[t] = track_eigenvalues(state.moments, k, spectrum)
            else:
                eigs[t] = eigs[t - 1]

    return RunRecord(
        config=cfg,
        steps=np.arange(1, cfg.steps + 1, dtype=np.int64),
        losses=losses,
        smoothed=smoothed,
        params=params,
        eigenvalues=eigs,
        final_params=state.params.copy(),
    )


def csv_header(record: RunRecord) -> list[str]:
    columns = ["step", "loss", "smoothed_loss"]
    if record.params is not None:
        columns += [f"q{i}" for i in range(record.params.shape[1])]
    if record.eigenvalues is not None:
        columns += [f"eig{i}" for i in range(record.eigenvalues.shape[1])]
    return columns


def make_output_dir(out_dir) -> Path:
    """Create the directory the CSVs go to; failing to is a config error."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc.strerror or exc}") from exc
    return out


def write_csv(record: RunRecord, path) -> None:
    """Serialize a run record; repr() keeps every float round-trippable.

    An unwritable path raises :class:`ConfigError`.
    """
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join(csv_header(record)) + "\n")
            for t in range(record.steps.shape[0]):
                cells = [str(int(record.steps[t])), repr(float(record.losses[t])),
                         repr(float(record.smoothed[t]))]
                if record.params is not None:
                    cells += [repr(float(v)) for v in record.params[t]]
                if record.eigenvalues is not None:
                    cells += [repr(float(v)) for v in record.eigenvalues[t]]
                fh.write(",".join(cells) + "\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def compare_suite(
    suite: str,
    out_dir,
    *,
    steps: int = 5000,
    seed: int = 0,
    metric_update_interval: int = 1,
) -> dict[str, RunRecord]:
    """Run every preset on one benchmark, writing a CSV per optimizer.

    The full-matrix run on the multiply suite also tracks the top-10
    covariance eigenvalues, matching the spectra-decay figure setup.
    """
    from .optimizer import PRESET_NAMES

    if suite not in PROBLEM_NAMES:
        raise ConfigError(f"suite: expected one of {PROBLEM_NAMES}, got {suite!r}")
    out = make_output_dir(out_dir)
    records: dict[str, RunRecord] = {}
    for name in PRESET_NAMES:
        track = 10 if (suite == "multiply" and name == "cgd_full") else 0
        cfg = ExperimentConfig(
            problem=suite,
            optimizer=name,
            steps=steps,
            seed=seed,
            eig_track_k=track,
            metric_update_interval=metric_update_interval,
            output_dir=str(out),
        )
        record = run_experiment(cfg)
        write_csv(record, out / f"{name}.csv")
        records[name] = record
    return records


# --- Gradient verification ------------------------------------------------

GRADCHECK_POINTS = 20
GRADCHECK_TOL = 1e-5


def gradcheck(problem_name: str, n_points: int = GRADCHECK_POINTS) -> float:
    """Max relative error between analytic gradients and central differences.

    Points are drawn from a fixed seed; the network problem gets a fresh
    batch per point, with loss and gradient evaluated on the same batch.
    """
    rng = np.random.default_rng(0)
    worst = 0.0
    if problem_name == "rosenbrock":
        problem = RosenbrockProblem()
        for _ in range(n_points):
            q = rng.uniform(-2.0, 2.0, size=2)
            analytic = problem.gradient(q)
            numeric = finite_diff_grad(problem, q, h=1e-6)
            scale = max(float(np.max(np.abs(analytic))), 1e-300)
            worst = max(worst, float(np.max(np.abs(numeric - analytic))) / scale)
    elif problem_name == "multiply":
        problem = MultiplyProblem()
        for point in range(n_points):
            q = 0.1 * rng.standard_normal(problem.dim)
            analytic = problem.gradient(q, batch_seed=point)
            numeric = finite_diff_grad(problem, q, h=1e-5, batch_seed=point)
            scale = max(float(np.max(np.abs(analytic))), 1e-300)
            worst = max(worst, float(np.max(np.abs(numeric - analytic))) / scale)
    else:
        raise ConfigError(f"problem: expected one of {PROBLEM_NAMES}, got {problem_name!r}")
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
