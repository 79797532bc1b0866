"""Streaming exponential-moving-average estimates of gradient moments.

The running average follows the backward-difference recursion
``avg(t) = sample(t)/(1+tau) + avg(t-1)*tau/(1+tau)``, so ``tau`` is the
memory length in steps and ``tau = 0`` replaces the state with the sample.
The retention factor ``tau/(1+tau)`` plays the role of the usual momentum
coefficient beta.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

# Rows of the d x d second moment folded per block in a full-mode update;
# 64 rows of a 552-wide matrix are about 280 KB, which stays in cache.
BLOCK_ROWS = 64


def ema_update(prev, sample, tau: float):
    """One backward-difference EMA step; elementwise for arrays.

    Exact fixed point: ``ema_update(x, x, tau) == x``. With ``tau == 0`` the
    sample is returned bit-for-bit, as a new value: ``prev`` is not read, so
    a -0.0 sample stays -0.0 and an infinite ``prev`` adds no NaN.
    """
    # a float (every call inside the package) skips the type check
    if type(tau) is not float and (isinstance(tau, bool) or not isinstance(tau, numbers.Real)):
        raise ValueError(f"tau: must be a real number, got {tau!r}")
    if not math.isfinite(tau) or tau < 0.0:
        raise ValueError(f"tau: must be finite and >= 0, got {tau}")
    if tau == 0.0:
        return sample / 1.0
    scale = 1.0 + tau
    return sample / scale + prev * (tau / scale)


def update_moments(m1, m2, grad, cfg) -> tuple[np.ndarray, np.ndarray]:
    """Fold one gradient sample into the moments; returns the new ``(m1, m2)``.

    ``cfg`` is a :class:`cgd.optimizer.CgdConfig`; its ``tau1`` and ``tau2``
    are the memory lengths of the first and second moment. The second-moment
    sample is the squared gradient in diagonal mode and the outer product in
    full mode (``m2.ndim == 2``); both keep ``m2`` exactly symmetric. In full
    mode the new ``m2`` is built in the outer product's own array, block by
    block, with the same two roundings and the same addition per entry as
    :func:`ema_update`, so the result is bit-identical to it. The inputs are
    not modified.
    """
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != m1.shape:
        raise ValueError(f"grad: shape {grad.shape} does not match state dimension {m1.shape[0]}")
    tau = cfg.tau2
    if m2.ndim == 2:
        prev, m2 = m2, np.multiply.outer(grad, grad)
        if tau:  # at tau == 0 the outer product is the new m2, as ema_update returns it
            m2 /= 1.0 + tau
            retain = tau / (1.0 + tau)
            for lo in range(0, m2.shape[0], BLOCK_ROWS):
                block = m2[lo : lo + BLOCK_ROWS]
                block += prev[lo : lo + BLOCK_ROWS] * retain
    else:
        m2 = ema_update(m2, grad * grad, tau)
    return ema_update(m1, grad, cfg.tau1), m2


def covariance(m1, m2) -> np.ndarray:
    """Centered second moment: m2 - m1 (x) m1, in a new array.

    May contain negative entries (or eigenvalues) when the two timescales
    differ; consumers clamp at zero before taking fractional powers.
    """
    sq = np.multiply.outer(m1, m1) if m2.ndim == 2 else m1 * m1
    return np.subtract(m2, sq, out=sq)


__all__ = [
    "ema_update",
    "update_moments",
    "covariance",
]
