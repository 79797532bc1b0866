"""Inverse-metric construction from moment statistics.

The metric is ``(eps*I + clamp0(S))^power`` where S is either the raw
second moment or the covariance (the statistic), tracked as its diagonal or
as a full matrix (the shape). The optimizer applies the inverse, i.e. the
``-power`` operator, to a force vector. ``power = 0`` yields the identity
(plain gradient descent); ``power = 0.5`` on the diagonal second moment is
the familiar root-mean-square normalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import linalg
from .moments import covariance


class MetricShape(str, Enum):
    """How the second moment is stored, and so the metric's shape: d-vector or d x d."""

    DIAGONAL = "diagonal"
    FULL = "full"


class MetricStatistic(str, Enum):
    SECOND_MOMENT = "second_moment"
    COVARIANCE = "covariance"


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


def build_inverse_metric(m1, m2, cfg) -> InverseMetricOperator:
    """Compute the inverse-metric operator for the current moments.

    ``cfg``, a :class:`cgd.optimizer.CgdConfig`, gives the metric's shape,
    statistic, power and eps. Eigenvalues (full) or entries (diagonal) are
    clamped at zero before eps is added, keeping the operator symmetric
    positive definite even for an indefinite covariance. ``m2`` must be a
    vector for a diagonal metric and a matrix for a full one, or a
    ``ValueError`` names it: a vector never tracked the off-diagonal
    entries, and a matrix is not cut down to its diagonal.
    """
    full = cfg.shape is MetricShape.FULL
    if m2.ndim != (2 if full else 1):
        raise ValueError(f"m2: a {m2.ndim}-d second moment cannot feed a "
                         f"{cfg.shape.value} metric")
    centered = cfg.statistic is MetricStatistic.COVARIANCE
    stat = covariance(m1, m2) if centered else m2
    factorization = None
    if full:
        # the covariance was built for this call alone; m2 belongs to the caller
        factorization = linalg.eigendecompose(stat, overwrite_a=centered)
        stat = factorization.eigenvalues
    weights = np.maximum(stat, 0.0)
    weights += cfg.eps
    weights **= -cfg.power
    return InverseMetricOperator(weights, factorization)


__all__ = [
    "MetricShape",
    "MetricStatistic",
    "InverseMetricOperator",
    "build_inverse_metric",
]
