"""Dense symmetric eigendecomposition, the one linear-algebra operation the
inverse metric needs.

Everything here operates on plain float64 numpy arrays. Symmetric matrices
are required to be exactly symmetric (entry-for-entry); the moment-tracking
layer preserves that by construction.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray


class NonFiniteMatrix(ValueError):
    """Input matrix has an infinite or NaN entry."""


class EigenDecomposition(NamedTuple):
    """Spectral factorization A = V diag(w) V^T of a symmetric matrix.

    ``eigenvalues`` are ascending; ``eigenvectors`` holds the matching
    orthonormal columns.
    """

    eigenvalues: NDArray[np.float64]
    eigenvectors: NDArray[np.float64]


def eigendecompose(a) -> EigenDecomposition:
    """Eigendecompose a square, finite, exactly symmetric matrix with LAPACK
    ``eigh``; eigenvalues ascending.

    Raises :class:`NonFiniteMatrix` on an infinite or NaN entry and
    ``ValueError`` on a non-square or asymmetric input.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteMatrix("matrix has non-finite entries")
    if not np.array_equal(a, a.T):
        raise ValueError("matrix is not symmetric")
    eigenvalues, eigenvectors = np.linalg.eigh(a)
    return EigenDecomposition(eigenvalues, eigenvectors)


__all__ = ["NonFiniteMatrix", "EigenDecomposition", "eigendecompose"]
