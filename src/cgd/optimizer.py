"""The covariant gradient descent step and its classical-method presets.

One update does two things, in order: fold the incoming gradient into the
moment state, then move the parameters against the first moment mapped
through the inverse metric,

    q  <-  q - gamma * (eps*I + clamp0(S))^(-power) @ m1,

where S is the tracked second-moment statistic selected by the metric spec.
Specific corners of the configuration space reproduce classical optimizers
exactly (see :func:`preset`): plain SGD at power 0, RMSProp/Adam on the
diagonal second moment at power 1/2, the variance-based diagonal form, and
the full-covariance generalization.

No bias correction is applied anywhere; instead the second moment starts at
the identity (ones in diagonal mode), so the very first steps are already
well scaled. Classical references used in tests follow the same convention.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .metric import InverseMetricOperator, MetricSpec, MetricStatistic, build_inverse_metric
from .moments import MetricShape, MomentState, Timescales, update_moments


@dataclass(frozen=True)
class CgdConfig:
    """Everything a step needs: learning rate, timescales, metric spec.

    ``metric_update_interval`` = N builds the full-metric operator at steps
    1, N + 1, 2N + 1, ... and applies each for N steps. Only the O(d^3)
    decomposition is amortized; the O(d^2) moment update and operator apply
    still run every step. The default of 1 builds one every step.
    """

    gamma: float
    timescales: Timescales
    metric: MetricSpec
    metric_update_interval: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise ValueError(f"gamma: must be finite and > 0, got {self.gamma}")
        interval = self.metric_update_interval
        if (isinstance(interval, bool) or not isinstance(interval, numbers.Integral)
                or interval < 1):
            raise ValueError(f"metric_update_interval: must be an integer >= 1, got {interval!r}")


@dataclass(frozen=True)
class OptimizerState:
    """Parameters plus moment statistics; treated as an immutable value.

    ``precond`` is the operator the next step applies in place of building
    one, whatever config it is given, so a state belongs to the config that
    made it: a full-metric step keeps its operator only when its interval
    reuses it next, else None. ``spectrum`` is the raw ascending spectrum of
    the statistic behind the operator that step applied, built or carried;
    None for a diagonal metric.
    """

    params: np.ndarray
    moments: MomentState
    precond: InverseMetricOperator | None = None
    spectrum: np.ndarray | None = None


def initial_state(params, cfg: CgdConfig) -> OptimizerState:
    """Fresh optimizer state for the given starting parameters."""
    params = np.asarray(params, dtype=np.float64)
    moments = MomentState.initial(params.shape[0], cfg.metric.shape)
    return OptimizerState(params=params, moments=moments)


def step(state: OptimizerState, grad, cfg: CgdConfig) -> OptimizerState:
    """One optimizer update; pure function of (state, gradient, config).

    ``grad`` must be the loss gradient at ``state.params`` — evaluating it is
    the caller's job, which keeps the optimizer agnostic of the objective.
    Moments are refreshed with the current gradient before the parameter
    move, so the force is the up-to-date first moment. The operator is the
    one ``state`` carries, or a fresh build when it carries none.
    """
    moments = update_moments(state.moments, grad, cfg.timescales)
    operator = state.precond
    if operator is None:
        operator = build_inverse_metric(moments, cfg.metric)
    carry = cfg.metric.shape is MetricShape.FULL and moments.step % cfg.metric_update_interval

    direction = operator.apply(moments.m1)
    # positional: a frozen dataclass takes keywords measurably slower
    return OptimizerState(state.params - cfg.gamma * direction, moments,
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
    key = name.strip().lower().replace("-", "_").replace(" ", "_")
    aliases = {"cgd_diag": "cgd_diagonal", "cgdfull": "cgd_full", "cgddiagonal": "cgd_diagonal"}
    key = aliases.get(key, key)
    if key not in _PRESET_METRICS:
        raise ValueError(f"optimizer: unknown preset {name!r}; expected one of {PRESET_NAMES}")
    return key


def preset(
    name: str,
    gamma: float | None = None,
    *,
    context: str = "rosenbrock",
    tau1: float | None = None,
    tau2: float | None = None,
    power: float | None = None,
    eps: float = MetricSpec.eps,
    statistic: MetricStatistic | str | None = None,
    metric_update_interval: int = 1,
) -> CgdConfig:
    """Build a named optimizer configuration.

    ``context`` selects the benchmark whose tuned hyperparameters back the
    defaults ("rosenbrock" or "multiply"); any of gamma/tau1/tau2/power may
    be overridden individually. ``statistic`` swaps the second-moment source
    (raw vs centered) without changing anything else; every preset accepts
    either, and left as None it is the preset's own (raw for sgd, rmsprop and
    adam, centered for the rest).
    """
    key = normalize_preset_name(name)
    if context not in HYPERPARAMETERS:
        raise ValueError(f"context: expected one of {tuple(HYPERPARAMETERS)}, got {context!r}")
    g0, t1, t2, a0 = HYPERPARAMETERS[context][key]
    shape, stat = _PRESET_METRICS[key]
    spec = MetricSpec(
        shape=shape,
        statistic=stat if statistic is None else statistic,
        power=a0 if power is None else power,
        eps=eps,
    )
    return CgdConfig(
        gamma=g0 if gamma is None else gamma,
        timescales=Timescales(t1 if tau1 is None else tau1, t2 if tau2 is None else tau2),
        metric=spec,
        metric_update_interval=metric_update_interval,
    )


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
