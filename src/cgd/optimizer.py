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
from dataclasses import dataclass

import numpy as np

from .metric import InverseMetricOperator, MetricSpec, MetricStatistic, build_inverse_metric
from .moments import MetricShape, MomentState, Timescales, update_moments


class UnknownPreset(KeyError):
    """Optimizer preset name not recognized."""


@dataclass(frozen=True)
class CgdConfig:
    """Everything a step needs: learning rate, timescales, metric spec.

    ``metric_update_interval`` > 1 reuses the full-metric eigendecomposition
    for that many steps, trading fidelity for a d^3 -> d^2 amortized cost;
    the default of 1 recomputes every step.
    """

    gamma: float
    timescales: Timescales
    metric: MetricSpec
    metric_update_interval: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma > 0.0):
            raise ValueError(f"gamma must be finite and > 0, got {self.gamma}")
        if self.metric_update_interval < 1:
            raise ValueError("metric_update_interval must be >= 1")


@dataclass(frozen=True)
class OptimizerState:
    """Parameters plus moment statistics; treated as an immutable value.

    ``precond`` carries the cached inverse-metric operator between steps when
    a refresh interval > 1 is configured; it is None otherwise. ``spectrum``
    is the raw ascending spectrum of the full-metric statistic when the step
    that produced this state built its operator, so a caller can read it
    without a second eigendecomposition; it is None after a step that reused
    a cached operator, and for a diagonal metric.
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
    move, so the force is the up-to-date first moment.
    """
    moments = update_moments(state.moments, grad, cfg.timescales)

    interval = cfg.metric_update_interval
    operator = state.precond
    if operator is None or (moments.step - 1) % interval == 0:
        operator = build_inverse_metric(moments, cfg.metric)
        spectrum = operator.eigenvalues
    else:
        spectrum = None
    cached = operator if interval > 1 and cfg.metric.shape is MetricShape.FULL else None

    direction = operator.apply(moments.m1)
    return OptimizerState(
        params=state.params - cfg.gamma * direction,
        moments=moments,
        precond=cached,
        spectrum=spectrum,
    )


# (gamma, tau1, tau2, power) tuned per benchmark; SGD has no second-moment
# dependence so its tau2 is set to 0.
PRESET_NAMES = ("sgd", "rmsprop", "adam", "adabelief", "cgd_diagonal", "cgd_full")

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

_PRESET_METRICS: dict[str, tuple[MetricShape, MetricStatistic]] = {
    "sgd": (MetricShape.DIAGONAL, MetricStatistic.SECOND_MOMENT),
    "rmsprop": (MetricShape.DIAGONAL, MetricStatistic.SECOND_MOMENT),
    "adam": (MetricShape.DIAGONAL, MetricStatistic.SECOND_MOMENT),
    "adabelief": (MetricShape.DIAGONAL, MetricStatistic.COVARIANCE),
    "cgd_diagonal": (MetricShape.DIAGONAL, MetricStatistic.COVARIANCE),
    "cgd_full": (MetricShape.FULL, MetricStatistic.COVARIANCE),
}


def normalize_preset_name(name: str) -> str:
    key = name.strip().lower().replace("-", "_").replace(" ", "_")
    aliases = {"cgd_diag": "cgd_diagonal", "cgdfull": "cgd_full", "cgddiagonal": "cgd_diagonal"}
    key = aliases.get(key, key)
    if key not in _PRESET_METRICS:
        raise UnknownPreset(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    return key


def preset(
    name: str,
    gamma: float | None = None,
    *,
    context: str = "rosenbrock",
    tau1: float | None = None,
    tau2: float | None = None,
    power: float | None = None,
    eps: float = 1e-8,
    statistic: MetricStatistic | str | None = None,
    metric_update_interval: int = 1,
) -> CgdConfig:
    """Build a named optimizer configuration.

    ``context`` selects the benchmark whose tuned hyperparameters back the
    defaults ("rosenbrock" or "multiply"); any of gamma/tau1/tau2/power may
    be overridden individually. ``statistic`` swaps the second-moment source
    (raw vs centered) without changing anything else — the classical presets
    pin it, but the two CGD presets accept either.
    """
    key = normalize_preset_name(name)
    if context not in HYPERPARAMETERS:
        raise UnknownPreset(f"unknown context {context!r}; expected one of "
                            f"{tuple(HYPERPARAMETERS)}")
    g0, t1, t2, a0 = HYPERPARAMETERS[context][key]
    shape, stat = _PRESET_METRICS[key]
    if statistic is not None:
        stat = MetricStatistic(statistic)
    spec = MetricSpec(
        shape=shape,
        statistic=stat,
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
    "UnknownPreset",
    "CgdConfig",
    "OptimizerState",
    "initial_state",
    "step",
    "preset",
    "normalize_preset_name",
    "PRESET_NAMES",
    "HYPERPARAMETERS",
]
