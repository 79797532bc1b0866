"""Streaming exponential-moving-average estimates of gradient moments.

The running average follows the backward-difference recursion
``avg(t) = sample(t)/(1+tau) + avg(t-1)*tau/(1+tau)``, so ``tau`` is the
memory length in steps and ``tau = 0`` replaces the state with the sample.
The retention factor ``tau/(1+tau)`` plays the role of the usual momentum
coefficient beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class MetricShape(str, Enum):
    """How the second moment is stored, and so what shape of metric it feeds:
    a per-coordinate vector or a full d x d matrix."""

    DIAGONAL = "diagonal"
    FULL = "full"


def _member(enum: type[Enum], key: str, value) -> Enum:
    """``value`` as a member of a string enum; a ValueError naming ``key`` otherwise."""
    expected = tuple(member.value for member in enum)
    if value not in expected:
        raise ValueError(f"{key}: expected one of {expected}, got {value!r}")
    return enum(value)


# Rows of the d x d second moment folded per block in a full-mode update;
# 64 rows of a 552-wide matrix are about 280 KB, which stays in cache.
BLOCK_ROWS = 64


@dataclass(frozen=True)
class Timescales:
    """EMA memory lengths for the first and second moment, in steps."""

    tau1: float
    tau2: float

    def __post_init__(self):
        for name in ("tau1", "tau2"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0.0:
                raise ValueError(f"{name}: must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class MomentState:
    """Running first moment, second-moment statistic, and step counter.

    ``m2`` is a length-d vector in diagonal mode (per-coordinate mean of
    squared gradients) or a d x d symmetric matrix in full mode (mean of
    gradient outer products).
    """

    m1: np.ndarray
    m2: np.ndarray
    step: int = 0

    @classmethod
    def initial(cls, dim: int, shape: MetricShape | str = MetricShape.DIAGONAL) -> "MomentState":
        """Fresh state: zero first moment, identity second moment."""
        if dim < 1:
            raise ValueError(f"dim: must be >= 1, got {dim}")
        full = _member(MetricShape, "shape", shape) is MetricShape.FULL
        m2 = np.eye(dim) if full else np.ones(dim)
        return cls(m1=np.zeros(dim), m2=m2, step=0)

    @property
    def dim(self) -> int:
        return self.m1.shape[0]

    @property
    def mode(self) -> MetricShape:
        return MetricShape.FULL if self.m2.ndim == 2 else MetricShape.DIAGONAL


def ema_update(prev, sample, tau: float):
    """One backward-difference EMA step; elementwise for arrays.

    Exact fixed point: ``ema_update(x, x, tau) == x``. With ``tau == 0`` the
    sample is returned bit-for-bit, as a new value: ``prev`` is not read, so
    a -0.0 sample stays -0.0 and an infinite ``prev`` adds no NaN.
    """
    if not math.isfinite(tau) or tau < 0.0:
        raise ValueError(f"tau: must be finite and >= 0, got {tau}")
    if tau == 0.0:
        return sample / 1.0
    scale = 1.0 + tau
    return sample / scale + prev * (tau / scale)


def update_moments(state: MomentState, grad, ts: Timescales) -> MomentState:
    """Fold one gradient sample into the moment state.

    The second-moment sample is the squared gradient in diagonal mode and
    the outer product in full mode; both keep ``m2`` exactly symmetric.
    In full mode the new ``m2`` is built in the outer product's own array,
    block by block, with the same two roundings and the same addition per
    entry as :func:`ema_update`, so the result is bit-identical to it.
    """
    grad = np.asarray(grad, dtype=np.float64)
    m1, prev = state.m1, state.m2
    if grad.shape != m1.shape:
        raise ValueError(f"grad: shape {grad.shape} does not match state dimension {state.dim}")
    tau = ts.tau2
    if prev.ndim == 2:  # full mode, as `MomentState.mode` tells it
        m2 = np.multiply.outer(grad, grad)
        if tau:  # at tau == 0 the outer product is the new m2, as ema_update returns it
            m2 /= 1.0 + tau
            retain = tau / (1.0 + tau)
            for lo in range(0, m2.shape[0], BLOCK_ROWS):
                block = m2[lo : lo + BLOCK_ROWS]
                block += prev[lo : lo + BLOCK_ROWS] * retain
    else:
        m2 = ema_update(prev, grad * grad, tau)
    return MomentState(ema_update(m1, grad, ts.tau1), m2, state.step + 1)


def covariance(state: MomentState) -> np.ndarray:
    """Centered second moment: m2 - m1 (x) m1.

    May contain negative entries (or eigenvalues) when the two timescales
    differ; consumers clamp at zero before taking fractional powers.
    """
    m1, m2 = state.m1, state.m2
    sq = np.multiply.outer(m1, m1) if m2.ndim == 2 else m1 * m1
    return np.subtract(m2, sq, out=sq)


__all__ = [
    "MetricShape",
    "Timescales",
    "MomentState",
    "ema_update",
    "update_moments",
    "covariance",
]
