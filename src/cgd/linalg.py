"""Dense symmetric eigendecomposition, the one linear-algebra operation the
inverse metric needs.

Everything here operates on plain float64 numpy arrays. Symmetric matrices
are required to be exactly symmetric (entry-for-entry); the moment-tracking
layer preserves that by construction.

The inverse metric needs the spectrum w of A and the product V f(w) V^T x
for one vector x, never the eigenvector matrix V itself. LAPACK's ``dsyevd``
(what ``np.linalg.eigh`` runs) reduces A = Q T Q^T to tridiagonal form
(``dsytrd``), finds T = Z diag(w) Z^T (``dstedc``), then forms V = Q Z
(``dormtr``), which is about half its time at d = 552. From
:data:`TRIDIAGONAL_MIN_DIM` on, :func:`eigendecompose` runs the first two
stages itself, through the ILP64 OpenBLAS that numpy bundles, in the one
workspace ``dsyevd`` allocates for both; V is never formed, and
:meth:`EigenDecomposition.apply` applies Q's reflectors to the one vector.
The eigenvalues are bitwise those of ``np.linalg.eigh``; products with V
round differently. Every LAPACK call goes through ``_Lapack._call``, the one
place that marshals its arguments and checks ``info``. Below that dimension,
or where numpy bundles no scipy-openblas (conda/MKL and Accelerate builds),
``np.linalg.eigh`` runs and Q is the identity.

``dsytrd`` overwrites its input with the reflectors, so the tridiagonal path
copies A first. A caller that built A for this one call and never reads it
again passes ``overwrite_a=True`` (as in ``scipy.linalg.eigh``) to skip the
copy: a writeable, C- or F-contiguous float64 A then becomes the returned
decomposition's ``reflectors``. From that call on the decomposition owns the
buffer: the caller must neither read A (it holds the reflectors, not A) nor
write it (that would change every later ``apply``). Any other input is still
copied, and ``np.linalg.eigh`` below the size rule never overwrites.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

# Smallest dimension decomposed through the tridiagonal stages. Below it
# np.linalg.eigh plus a dense apply is faster: the two reflector sweeps and
# the per-call ctypes overhead cost more than forming V saves.
TRIDIAGONAL_MIN_DIM = 64

# dsyevd rescales A when its largest entry falls outside [RMIN, RMAX]
# (dlamch 'S' and 'P': the smallest normal double and the machine epsilon).
_SMLNUM = np.finfo(np.float64).tiny / np.finfo(np.float64).eps
_RMIN = math.sqrt(_SMLNUM)
_RMAX = math.sqrt(1.0 / _SMLNUM)


class EigenDecomposition(NamedTuple):
    """Spectral factorization A = Q Z diag(w) Z^T Q^T of a symmetric matrix.

    ``eigenvalues`` (w) are ascending. ``z`` holds the orthonormal
    eigenvectors of the tridiagonal matrix T = Q^T A Q, as columns.
    ``reflectors`` and ``tau`` are ``dsytrd``'s packed Householder
    reflectors, whose product is Q; both are None when Q is the identity,
    and ``z`` is then A's own eigenvector matrix.
    """

    eigenvalues: NDArray[np.float64]
    z: NDArray[np.float64]
    reflectors: NDArray[np.float64] | None = None
    tau: NDArray[np.float64] | None = None

    def apply(self, weights: NDArray[np.float64], x) -> NDArray[np.float64]:
        """V diag(weights) V^T x, with V = Q Z the eigenvectors of A."""
        z = self.z
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (z.shape[0],):
            raise ValueError(f"x: expected a vector of length {z.shape[0]}, got shape {x.shape}")
        if self.reflectors is None:
            return z @ (weights * (z.T @ x))
        lapack = _binding()
        y = x.copy()
        lapack.reflect(self.reflectors, self.tau, y, b"T")
        y = z @ (weights * (z.T @ y))
        lapack.reflect(self.reflectors, self.tau, y, b"N")
        return y


def eigendecompose(a, *, overwrite_a: bool = False) -> EigenDecomposition:
    """Eigendecompose a square, finite, exactly symmetric matrix; eigenvalues
    ascending and bitwise equal to ``np.linalg.eigh``'s.

    With ``overwrite_a`` the tridiagonal path may reduce ``a`` in its own
    buffer, which the result then owns (see the module docstring).

    Raises ``np.linalg.LinAlgError`` on an infinite or NaN entry (as numpy
    does) or if the eigensolver does not converge, and a plain ``ValueError``
    on a non-square or asymmetric input.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"a: expected a square matrix, got shape {a.shape}")
    # count_nonzero is the cheapest full reduction of a boolean array
    if np.count_nonzero(np.isfinite(a)) != a.size:
        raise np.linalg.LinAlgError("matrix has non-finite entries")
    if np.count_nonzero(a != a.T):
        raise ValueError("a: matrix is not symmetric")
    lapack = _binding() if a.shape[0] >= TRIDIAGONAL_MIN_DIM else None
    if lapack is None:
        eigenvalues, eigenvectors = np.linalg.eigh(a)
        return EigenDecomposition(eigenvalues, eigenvectors)
    return lapack.decompose(a, overwrite_a)


class _Lapack:
    """``dsytrd``, ``dstedc`` and ``dormtr`` of an ILP64 LAPACK, called with
    the lower triangle, the one workspace and the scaling ``dsyevd`` uses."""

    def __init__(self, lib: ctypes.CDLL):
        # routine: (character arguments, other arguments, info included)
        shapes = {"dsytrd": (1, 9), "dstedc": (1, 10), "dormtr": (3, 10)}
        for name, (chars, others) in shapes.items():
            fn = getattr(lib, f"scipy_{name}_64_")
            fn.argtypes = [ctypes.c_void_p] * (chars + others) + [ctypes.c_size_t] * chars
            fn.restype = None
            setattr(self, name, fn)

    def _call(self, name: str, *args) -> None:
        """Call routine ``name``: bytes are character arguments (their hidden
        lengths follow), arrays go by data pointer and ints as ILP64 integers
        by reference, then ``info``: ``LinAlgError`` above 0, ``ValueError`` below."""
        info = ctypes.c_int64(0)
        refs = [a if isinstance(a, bytes) else a.ctypes.data if isinstance(a, np.ndarray)
                else ctypes.byref(ctypes.c_int64(a)) for a in args]
        lengths = [len(a) for a in args if isinstance(a, bytes)]
        getattr(self, name)(*refs, ctypes.byref(info), *lengths)
        if info.value > 0:
            raise np.linalg.LinAlgError(f"{name}: eigenvalues did not converge")
        if info.value < 0:
            raise ValueError(f"{name}: illegal value in argument {-info.value}")

    def decompose(self, a: NDArray[np.float64], overwrite_a: bool) -> EigenDecomposition:
        n = a.shape[0]
        # a is exactly symmetric, so its C layout is its column-major layout:
        # a C-contiguous a's transpose is a Fortran view of the same numbers
        reflectors = a if a.flags.f_contiguous else a.T
        if not (overwrite_a and reflectors.flags.f_contiguous and reflectors.flags.writeable):
            reflectors = np.array(reflectors, order="F")
        largest = max(float(a.max()), -float(a.min()))
        scale = None
        if 0.0 < largest < _RMIN:
            scale = _RMIN / largest
        elif largest > _RMAX:
            scale = _RMAX / largest
        if scale is not None:
            reflectors *= scale

        # dsyevd's workspace serves both stages; it covers dsytrd's n times
        # its block size (32, and n >= 64 here), so dsytrd blocks as in eigh
        d, e, tau = np.empty(n), np.empty(n - 1), np.empty(n - 1)
        work = np.empty(1 + 4 * n + n * n)
        self._call("dsytrd", b"L", n, reflectors, n, d, e, tau, work, work.size)
        z = np.empty((n, n), order="F")
        iwork = np.empty(3 + 5 * n, dtype=np.int64)
        self._call("dstedc", b"I", n, d, e, z, n, work, work.size, iwork, iwork.size)
        if scale is not None:
            d *= 1.0 / scale
        return EigenDecomposition(d, z, reflectors, tau)

    def reflect(self, reflectors, tau, x, trans: bytes) -> None:
        """Overwrite the vector ``x`` with Q x (``trans`` b"N") or Q^T x (b"T"),
        unblocked (a workspace of one entry)."""
        n = reflectors.shape[0]
        self._call("dormtr", b"L", b"L", trans, n, 1, reflectors, n, tau, x, n, np.empty(1), 1)


@functools.cache
def _binding() -> _Lapack | None:
    """The LAPACK of the scipy-openblas (ILP64) that numpy bundles, bound on
    first use; None where the library or its symbols are not there."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        name = min(n for n in os.listdir(libs) if n.startswith("libscipy_openblas64_"))
        return _Lapack(ctypes.CDLL(os.path.join(libs, name)))
    except (OSError, ValueError, AttributeError):
        return None


__all__ = ["EigenDecomposition", "TRIDIAGONAL_MIN_DIM", "eigendecompose"]
