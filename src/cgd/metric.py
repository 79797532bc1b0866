"""Inverse-metric construction from moment statistics.

The metric is ``(eps*I + clamp0(S))^power`` where S is either the raw
second moment or the covariance, tracked by the moment state as its
diagonal or as a full matrix. The optimizer applies the inverse, i.e. the
``-power`` operator, to a force vector. ``power = 0`` yields the identity
(plain gradient descent); ``power = 0.5`` on the diagonal second moment is
the familiar root-mean-square normalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import linalg
from .moments import MetricShape, MomentState, _member, covariance


class MetricStatistic(str, Enum):
    SECOND_MOMENT = "second_moment"
    COVARIANCE = "covariance"


@dataclass(frozen=True)
class MetricSpec:
    """Shape, statistic, power and regularizer defining the metric."""

    shape: MetricShape
    statistic: MetricStatistic
    power: float
    eps: float = 1e-8

    def __post_init__(self):
        object.__setattr__(self, "shape", _member(MetricShape, "shape", self.shape))
        statistic = _member(MetricStatistic, "statistic", self.statistic)
        object.__setattr__(self, "statistic", statistic)
        if not np.isfinite(self.power):
            raise ValueError(f"power: must be finite, got {self.power}")
        if not (np.isfinite(self.eps) and self.eps > 0.0):
            raise ValueError(f"eps: must be finite and > 0, got {self.eps}")


@dataclass(frozen=True)
class InverseMetricOperator:
    """Materialized inverse metric (eps*I + clamp0(S))^(-power).

    ``factorization`` is None for a diagonal metric, otherwise the
    eigendecomposition of S; ``weights`` holds the regularized spectrum
    raised to ``-power``.
    """

    weights: np.ndarray
    factorization: linalg.EigenDecomposition | None

    @property
    def eigenvalues(self) -> np.ndarray | None:
        """The raw ascending spectrum of S that the build decomposed (before
        clamping), or None for a diagonal metric."""
        return None if self.factorization is None else self.factorization.eigenvalues

    def apply(self, force: np.ndarray) -> np.ndarray:
        if self.factorization is None:
            return force * self.weights
        return self.factorization.apply(self.weights, force)


def build_inverse_metric(state: MomentState, spec: MetricSpec) -> InverseMetricOperator:
    """Compute the inverse-metric operator for the current statistics.

    Eigenvalues (full) or entries (diagonal) are clamped at zero before eps
    is added, keeping the operator symmetric positive definite even for an
    indefinite covariance. The state must be stored in the metric's shape,
    or a ``ValueError`` names the state's mode: a diagonal state never
    tracked the off-diagonal entries, and a full state is not cut down to
    its diagonal.
    """
    if state.mode is not spec.shape:
        raise ValueError(f"state: a {state.mode.value}-mode state cannot feed a "
                         f"{spec.shape.value} metric")
    centered = spec.statistic is MetricStatistic.COVARIANCE
    stat = covariance(state) if centered else state.m2
    factorization = None
    if spec.shape is MetricShape.FULL:
        # the covariance was built for this call alone; m2 belongs to the state
        factorization = linalg.eigendecompose(stat, overwrite_a=centered)
        stat = factorization.eigenvalues
    weights = np.maximum(stat, 0.0)
    weights += spec.eps
    weights **= -spec.power
    return InverseMetricOperator(weights, factorization)


__all__ = [
    "MetricStatistic",
    "MetricSpec",
    "InverseMetricOperator",
    "build_inverse_metric",
]
