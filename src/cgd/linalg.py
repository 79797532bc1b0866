"""Dense symmetric linear algebra: eigendecomposition, fractional matrix
powers, and inverse-metric application.

Everything here operates on plain float64 numpy arrays. Symmetric matrices
are required to be exactly symmetric (entry-for-entry); the moment-tracking
layer preserves that by construction.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

# Sweep cap for the cyclic Jacobi solver; exceeding it signals pathological
# input rather than a tolerance problem.
DEFAULT_MAX_SWEEPS = 100

# Converged when the off-diagonal Frobenius norm falls below this fraction
# of ||A||_F.
JACOBI_TOL_FACTOR = 1e-12

# Above this dimension "auto" switches to LAPACK: a numpy-level Jacobi sweep
# costs ~2 s at d=552 versus ~19 ms for the whole LAPACK solve.
JACOBI_AUTO_LIMIT = 32


class NonConvergence(RuntimeError):
    """Jacobi sweeps exceeded the iteration cap."""


class NonFiniteMatrix(ValueError):
    """Input matrix has an infinite or NaN entry."""


class DomainError(ValueError):
    """Fractional power of a negative eigenvalue with clamping disabled."""


class EigenDecomposition(NamedTuple):
    """Spectral factorization A = V diag(w) V^T of a symmetric matrix.

    ``eigenvalues`` are ascending; ``eigenvectors`` holds the matching
    orthonormal columns.
    """

    eigenvalues: NDArray[np.float64]
    eigenvectors: NDArray[np.float64]


def _as_symmetric(a) -> NDArray[np.float64]:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteMatrix("matrix has non-finite entries")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix is not symmetric")
    return a


def _jacobi(a: NDArray[np.float64], max_sweeps: int) -> EigenDecomposition:
    """Cyclic Jacobi rotations; quadratically convergent for symmetric input."""
    d = a.shape[0]
    a = a.copy()
    v = np.eye(d)
    tol = JACOBI_TOL_FACTOR * np.linalg.norm(a)

    def off_norm() -> float:
        # summing only the off-diagonal entries avoids the cancellation floor
        # of ||A||_F^2 - ||diag||^2, which stalls around sqrt(eps)*||A||_F
        off = a.copy()
        np.fill_diagonal(off, 0.0)
        return float(np.linalg.norm(off))

    for _ in range(max_sweeps):
        if off_norm() <= tol:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                app, aqq = a[p, p], a[q, q]
                h = aqq - app
                # smaller-magnitude root of t^2 + 2t*theta - 1 = 0 keeps the
                # rotation angle <= pi/4; the first branch avoids overflow in
                # theta^2 when apq is tiny relative to the diagonal gap
                if abs(h) + 100.0 * abs(apq) == abs(h):
                    t = apq / h
                else:
                    theta = 0.5 * h / apq
                    if theta >= 0.0:
                        t = 1.0 / (theta + np.sqrt(theta * theta + 1.0))
                    else:
                        t = -1.0 / (-theta + np.sqrt(theta * theta + 1.0))
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c

                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                new_p = c * col_p - s * col_q
                new_q = s * col_p + c * col_q
                a[:, p] = new_p
                a[p, :] = new_p
                a[:, q] = new_q
                a[q, :] = new_q
                # the rotation annihilates the (p, q) entry by construction;
                # writing the 2x2 block directly keeps symmetry exact
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = 0.0
                a[q, p] = 0.0

                vec_p = v[:, p].copy()
                vec_q = v[:, q].copy()
                v[:, p] = c * vec_p - s * vec_q
                v[:, q] = s * vec_p + c * vec_q
    else:
        if off_norm() > tol:
            raise NonConvergence(
                f"Jacobi did not converge in {max_sweeps} sweeps "
                f"(off-diagonal norm {off_norm():.3e}, tolerance {tol:.3e})"
            )

    order = np.argsort(np.diag(a), kind="stable")
    return EigenDecomposition(np.diag(a)[order].copy(), v[:, order])


def eigendecompose(
    a,
    *,
    method: str = "auto",
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> EigenDecomposition:
    """Eigendecompose a symmetric matrix; eigenvalues ascending.

    ``method`` is "jacobi", "lapack", or "auto" (Jacobi up to dimension
    ``JACOBI_AUTO_LIMIT``, LAPACK beyond). Both backends satisfy the same
    reconstruction and orthonormality contracts; Jacobi additionally raises
    :class:`NonConvergence` when the sweep cap is exhausted.
    """
    a = _as_symmetric(a)
    if method == "auto":
        method = "jacobi" if a.shape[0] <= JACOBI_AUTO_LIMIT else "lapack"
    if method == "jacobi":
        return _jacobi(a, max_sweeps)
    if method == "lapack":
        eigenvalues, eigenvectors = np.linalg.eigh(a)
        return EigenDecomposition(eigenvalues, eigenvectors)
    raise ValueError(f"unknown eigendecomposition method {method!r}")


def sym_matrix_power(a, power: float, floor: float = 0.0) -> NDArray[np.float64]:
    """Compute A^power through the spectrum: V diag(max(w, floor)^power) V^T.

    ``floor > 0`` clamps every eigenvalue from below before the power is
    taken. ``floor == 0`` disables clamping; a fractional power of a matrix
    with negative eigenvalues then raises :class:`DomainError` rather than
    silently producing complex values.
    """
    if floor < 0.0:
        raise ValueError("floor must be >= 0")
    w, v = eigendecompose(a)
    if floor > 0.0:
        w = np.maximum(w, floor)
    elif power != np.floor(power) and np.any(w < 0.0):
        raise DomainError(
            "fractional power of a matrix with negative eigenvalues "
            "(smallest {:.3e}); pass a positive floor to clamp".format(w.min())
        )
    powered = w**power
    b = (v * powered) @ v.T
    # enforce exact symmetry; the matmul rounds the two triangles separately
    return (b + b.T) / 2.0


def apply_inverse_metric(c, power: float, eps: float, force) -> NDArray[np.float64]:
    """Apply (eps*I + clamp0(C))^(-power) to a force vector.

    Eigenvalues of C are clamped at zero before ``eps`` is added, so the
    operator stays symmetric positive definite even when C is indefinite
    (covariances built from two different averaging timescales can be).
    """
    if eps <= 0.0:
        raise ValueError("eps must be > 0")
    force = np.asarray(force, dtype=np.float64)
    w, v = eigendecompose(c)
    weights = (np.maximum(w, 0.0) + eps) ** (-power)
    return v @ (weights * (v.T @ force))


def apply_inverse_metric_diag(values, power: float, eps: float, force) -> NDArray[np.float64]:
    """Diagonal fast path of :func:`apply_inverse_metric`.

    Elementwise (eps + max(v, 0))^(-power) * force; agrees with the full path
    on diagonal matrices and skips the eigendecomposition entirely.
    """
    if eps <= 0.0:
        raise ValueError("eps must be > 0")
    values = np.asarray(values, dtype=np.float64)
    force = np.asarray(force, dtype=np.float64)
    return force * (np.maximum(values, 0.0) + eps) ** (-power)
