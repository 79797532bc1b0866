"""The covariant gradient descent step and its classical-method presets.

One update does two things, in order: fold the incoming gradient into the
moment state, then move the parameters against the first moment mapped
through the inverse metric,

    q  <-  q - gamma * (eps*I + clamp0(S))^(-power) @ m1,

where S is the tracked second-moment statistic selected by the config.
Specific corners of the configuration space reproduce classical optimizers
exactly (see :func:`preset`): plain SGD at power 0, RMSProp/Adam on the
diagonal second moment at power 1/2, the variance-based diagonal form, and
the full-covariance generalization.

No bias correction is applied anywhere; instead the second moment starts at
the identity (ones in diagonal mode), so the very first steps are already
well scaled. Classical references used in tests follow the same convention.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._args import choice, scalar
from .metric import InverseMetricOperator, MetricShape, MetricStatistic, build_inverse_metric
from .moments import update_moments

# each number setting: its kind (float unless given) and bounds, checked by _args.scalar
_NUMBERS = {"gamma": {"above": 0}, "tau1": {"low": 0}, "tau2": {"low": 0}, "power": {},
            "eps": {"above": 0}, "metric_update_interval": {"kind": int, "low": 1}}


@dataclass(frozen=True)
class CgdConfig:
    """Everything a step needs: the learning rate ``gamma``, the EMA memory
    lengths ``tau1`` and ``tau2`` of the first and second moment (in steps),
    and the metric: its ``shape`` and ``statistic`` (members or their string
    values), ``power`` and ``eps``. A float setting takes any real number but
    a bool and is stored as a float; a bad value is a ValueError naming it.

    ``metric_update_interval`` = N builds the full-metric operator at steps
    1, N + 1, 2N + 1, ... and applies each for N steps. Only the O(d^3)
    decomposition is amortized; the O(d^2) moment update and operator apply
    still run every step. The default of 1 builds one every step.
    """

    gamma: float
    tau1: float
    tau2: float
    shape: MetricShape
    statistic: MetricStatistic
    power: float
    eps: float = 1e-8
    metric_update_interval: int = 1

    def __post_init__(self):
        for name, rule in _NUMBERS.items():
            object.__setattr__(self, name, scalar(name, getattr(self, name), **rule))
        for name, enum in (("shape", MetricShape), ("statistic", MetricStatistic)):
            value = choice(name, getattr(self, name), tuple(member.value for member in enum))
            object.__setattr__(self, name, enum(value))


@dataclass(frozen=True)
class OptimizerState:
    """Parameters, moments and step count; treated as an immutable value.

    The first moment ``m1`` is a d-vector; the second moment ``m2`` is a
    d-vector for a diagonal metric and a d x d matrix for a full one.
    ``precond`` is the operator the next step applies in place of building
    one, whatever config it is given, so a state belongs to the config that
    made it: a full-metric step keeps its operator only when its interval
    reuses it next, else None. ``spectrum`` is the raw ascending spectrum of
    the statistic behind the operator that step applied, built or carried;
    None for a diagonal metric.
    """

    params: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    step: int = 0
    precond: InverseMetricOperator | None = None
    spectrum: np.ndarray | None = None


def initial_state(params, cfg: CgdConfig) -> OptimizerState:
    """Fresh state at the vector ``params``: m1 = 0, m2 = I (ones if diagonal)."""
    params = np.asarray(params, dtype=np.float64)
    if params.ndim != 1:
        raise ValueError(f"params: must be a vector, got an array of shape {params.shape}")
    dim = scalar("dim", params.shape[0], int, low=1)
    m2 = np.eye(dim) if cfg.shape is MetricShape.FULL else np.ones(dim)
    return OptimizerState(params, np.zeros(dim), m2)


def step(state: OptimizerState, grad, cfg: CgdConfig) -> OptimizerState:
    """One optimizer update; pure function of (state, gradient, config).

    ``grad`` must be the loss gradient at ``state.params`` — evaluating it is
    the caller's job, which keeps the optimizer agnostic of the objective.
    Moments are refreshed with the current gradient before the parameter
    move, so the force is the up-to-date first moment. The operator is the
    one ``state`` carries, or a fresh build when it carries none.
    """
    m1, m2 = update_moments(state.m1, state.m2, grad, cfg)
    t = state.step + 1
    operator = state.precond
    if operator is None:
        operator = build_inverse_metric(m1, m2, cfg)
    carry = cfg.shape is MetricShape.FULL and t % cfg.metric_update_interval

    direction = operator.apply(m1)
    # positional: a frozen dataclass takes keywords measurably slower
    return OptimizerState(state.params - cfg.gamma * direction, m1, m2, t,
                          operator if carry else None, operator.eigenvalues)


_PRESET_METRICS: dict[str, tuple[MetricShape, MetricStatistic]] = {
    "sgd": (MetricShape.DIAGONAL, MetricStatistic.SECOND_MOMENT),
    "rmsprop": (MetricShape.DIAGONAL, MetricStatistic.SECOND_MOMENT),
    "adam": (MetricShape.DIAGONAL, MetricStatistic.SECOND_MOMENT),
    "adabelief": (MetricShape.DIAGONAL, MetricStatistic.COVARIANCE),
    "cgd_diagonal": (MetricShape.DIAGONAL, MetricStatistic.COVARIANCE),
    "cgd_full": (MetricShape.FULL, MetricStatistic.COVARIANCE),
}

PRESET_NAMES = tuple(_PRESET_METRICS)
_ALIASES = {"cgd_diag": "cgd_diagonal", "cgdfull": "cgd_full", "cgddiagonal": "cgd_diagonal"}

# (gamma, tau1, tau2, power) tuned per benchmark; SGD has no second-moment
# dependence so its tau2 is set to 0.
HYPERPARAMETERS: dict[str, dict[str, tuple[float, float, float, float]]] = {
    "rosenbrock": {
        "sgd": (0.0024, 0.0, 0.0, 0.0),
        "rmsprop": (0.0067, 0.0, 999.0, 0.5),
        "adam": (0.0822, 9.0, 999.0, 0.5),
        "adabelief": (0.034, 8.21, 11.78, 0.5),
        "cgd_diagonal": (0.028, 9.24, 13.6, 0.23),
        "cgd_full": (0.012, 10.9, 9.46, 0.39),
    },
    "multiply": {
        "sgd": (0.098, 0.0, 0.0, 0.0),
        "rmsprop": (0.058, 0.0, 999.0, 0.5),
        "adam": (0.099, 9.0, 999.0, 0.5),
        "adabelief": (0.01, 18.3, 9.21, 0.5),
        "cgd_diagonal": (0.069, 12.9, 12.3, 0.37),
        "cgd_full": (0.0512, 17.1, 15.3, 0.40),
    },
}


def normalize_preset_name(name: str) -> str:
    if isinstance(name, str):
        name = name.strip().lower().replace("-", "_").replace(" ", "_")
        name = _ALIASES.get(name, name)
    return choice("optimizer", name, PRESET_NAMES, noun="preset")


# what preset() lets a caller change; an override left as None keeps the tuned value
_OVERRIDES = ("gamma", "tau1", "tau2", "power", "eps", "statistic", "metric_update_interval")


def preset(name: str, *, context: str = "rosenbrock", **overrides) -> CgdConfig:
    """Build a named optimizer configuration.

    ``context`` selects the benchmark whose tuned hyperparameters back the
    defaults ("rosenbrock" or "multiply"). Each of gamma, tau1, tau2, power,
    eps, statistic and metric_update_interval may be overridden
    individually; one given as None keeps the tuned value. ``statistic``
    swaps the second-moment source (raw vs centered) without changing
    anything else; the preset's own is raw for sgd, rmsprop and adam and
    centered for the rest. The preset fixes the metric's shape, so ``shape``
    is refused like any other unknown key, with a ValueError naming it.
    """
    unknown = sorted(set(overrides) - set(_OVERRIDES))
    if unknown:
        raise ValueError(f"{', '.join(unknown)}: not a preset override; "
                         f"expected one of {_OVERRIDES}")
    key = normalize_preset_name(name)
    context = choice("context", context, tuple(HYPERPARAMETERS))
    gamma, tau1, tau2, power = HYPERPARAMETERS[context][key]
    tuned = CgdConfig(gamma, tau1, tau2, *_PRESET_METRICS[key], power)
    return replace(tuned, **{k: v for k, v in overrides.items() if v is not None})


__all__ = [
    "CgdConfig",
    "OptimizerState",
    "initial_state",
    "step",
    "preset",
    "normalize_preset_name",
    "PRESET_NAMES",
    "HYPERPARAMETERS",
]
