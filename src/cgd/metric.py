"""Inverse-metric construction from moment statistics.

The metric is ``(eps*I + clamp0(S))^power`` where S is either the raw
second moment or the covariance, restricted to its diagonal or kept as a
full matrix. The optimizer applies the inverse, i.e. the ``-power``
operator, to a force vector. ``power = 0`` yields the identity (plain
gradient descent); ``power = 0.5`` on the diagonal second moment is the
familiar root-mean-square normalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import linalg
from .moments import MetricShape, MomentState, covariance


class MetricStatistic(str, Enum):
    SECOND_MOMENT = "second_moment"
    COVARIANCE = "covariance"


class ModeMismatch(ValueError):
    """Moment state storage mode incompatible with the requested metric shape."""


@dataclass(frozen=True)
class MetricSpec:
    """Shape, statistic, power and regularizer defining the metric."""

    shape: MetricShape
    statistic: MetricStatistic
    power: float
    eps: float = 1e-8

    def __post_init__(self):
        object.__setattr__(self, "shape", MetricShape(self.shape))
        object.__setattr__(self, "statistic", MetricStatistic(self.statistic))
        if not np.isfinite(self.power):
            raise ValueError(f"power must be finite, got {self.power}")
        if not self.eps > 0.0:
            raise ValueError(f"eps must be > 0, got {self.eps}")


def statistic_values(state: MomentState, spec: MetricSpec) -> np.ndarray:
    """The statistic S feeding the metric, restricted to the requested shape.

    Returns a vector for a diagonal metric (taking diag(S) when the state is
    full-mode) and a symmetric matrix for a full metric. A full metric over a
    diagonal-mode state raises :class:`ModeMismatch`: the off-diagonal
    information was never tracked.
    """
    if spec.statistic is MetricStatistic.COVARIANCE:
        stat = covariance(state)
    else:
        stat = state.m2
    if spec.shape is MetricShape.FULL:
        if state.mode is not MetricShape.FULL:
            raise ModeMismatch("full metric requires a full-mode moment state")
        return stat
    if stat.ndim == 2:
        return np.diag(stat).copy()
    return stat


@dataclass(frozen=True)
class InverseMetricOperator:
    """Materialized inverse metric (eps*I + clamp0(S))^(-power).

    ``basis`` is None for a diagonal metric, otherwise the eigenvector matrix
    of S; ``weights`` holds the regularized spectrum raised to ``-power``.
    ``eigenvalues`` is the raw ascending spectrum of S that the build
    decomposed (before clamping), or None for a diagonal metric.
    ``computed_at`` records the moment-state step the statistic was read at,
    so a cached operator can be aged against a refresh interval.
    """

    weights: np.ndarray
    basis: np.ndarray | None
    computed_at: int
    eigenvalues: np.ndarray | None = None

    def apply(self, force: np.ndarray) -> np.ndarray:
        if self.basis is None:
            return force * self.weights
        return self.basis @ (self.weights * (self.basis.T @ force))


def build_inverse_metric(state: MomentState, spec: MetricSpec) -> InverseMetricOperator:
    """Compute the inverse-metric operator for the current statistics.

    Eigenvalues (full) or entries (diagonal) are clamped at zero before eps
    is added, keeping the operator symmetric positive definite even for an
    indefinite covariance.
    """
    stat = statistic_values(state, spec)
    if spec.shape is MetricShape.FULL:
        eigenvalues, eigenvectors = linalg.eigendecompose(stat)
        weights = (np.maximum(eigenvalues, 0.0) + spec.eps) ** (-spec.power)
        return InverseMetricOperator(weights, eigenvectors, state.step, eigenvalues)
    weights = (np.maximum(stat, 0.0) + spec.eps) ** (-spec.power)
    return InverseMetricOperator(weights, None, state.step)


__all__ = [
    "MetricStatistic",
    "MetricSpec",
    "ModeMismatch",
    "InverseMetricOperator",
    "statistic_values",
    "build_inverse_metric",
]
