"""Dense linear algebra kernels for square systems.

LU factorization with partial (row) pivoting plus the triangular solves and
the Euclidean norm the nonlinear iteration needs, on plain float64 numpy
arrays.  Systems with ``n >= LAPACK_MIN_N`` are factored and solved by LAPACK
``dgetrf``/``dgetrs``; smaller ones, which include all five built-in problems,
by a Python elimination loop, so they never load a second BLAS.  Both paths
produce the same packed factors and keep the same checks: non-finite input,
the singularity threshold and an unmodified input matrix.
"""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EPS",
    "LAPACK_MIN_N",
    "DimensionMismatch",
    "NonFiniteInput",
    "SingularMatrix",
    "LUFactors",
    "as_matrix",
    "as_vector",
    "lu_factor",
    "lu_solve",
    "norm2",
]

EPS = float(np.finfo(np.float64).eps)

# Smallest n factored by LAPACK.  Below it the elimination loop is fast enough
# and loading LAPACK's own BLAS would add about 3 MB to every process.
LAPACK_MIN_N = 32


class DimensionMismatch(ValueError):
    """Operands do not have compatible shapes."""


class NonFiniteInput(ValueError):
    """A matrix contains NaN or Inf where finite entries are required."""


class SingularMatrix(ArithmeticError):
    """Elimination hit a pivot below the singularity threshold."""


def as_vector(values) -> np.ndarray:
    """Coerce ``values`` to a fresh 1-D float64 array."""
    v = np.array(values, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise DimensionMismatch(f"expected a nonempty 1-D vector, got shape {v.shape}")
    return v


def as_matrix(values, order="K") -> np.ndarray:
    """Coerce ``values`` to a fresh square 2-D float64 array laid out in ``order``."""
    a = np.array(values, dtype=np.float64, order=order)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise DimensionMismatch(f"expected a nonempty square matrix, got shape {a.shape}")
    return a


def norm2(v) -> float:
    """Euclidean norm sqrt(sum(v_i**2)); NaN entries propagate to the result."""
    v = np.asarray(v, dtype=np.float64)
    return float(np.sqrt(np.dot(v, v)))


@functools.cache
def _lapack():
    """scipy's f2py extension ``_flapack``, which wraps LAPACK.

    The extension is loaded straight from its file, in about 5 ms and 2.5 MB.
    Importing the ``scipy.linalg`` package instead takes 0.2-0.4 s and 27 MB.
    """
    scipy = importlib.util.find_spec("scipy")
    roots = [] if scipy is None else scipy.submodule_search_locations
    spec = importlib.machinery.PathFinder.find_spec(
        "_flapack", [os.path.join(root, "linalg") for root in roots]
    )
    if spec is None:
        raise ImportError(f"scipy's LAPACK extension is required for n >= {LAPACK_MIN_N}")
    flapack = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(flapack)
    return flapack


@dataclass(frozen=True)
class LUFactors:
    """Packed LU factors of a row-permuted matrix: ``P A = L U``.

    ``lu`` holds ``L`` below the diagonal (its unit diagonal is implied) and
    ``U`` on and above it, as LAPACK ``getrf`` stores them.  ``piv`` lists the
    row interchanges in order, 0-based: row ``k`` was swapped with row
    ``piv[k]``.  Both arrays are read-only.
    """

    lu: np.ndarray
    piv: np.ndarray
    n: int

    @property
    def lower(self) -> np.ndarray:
        """Unit lower triangular ``L``, with ``|L[i, j]| <= 1`` (partial pivoting)."""
        return np.tril(self.lu, -1) + np.eye(self.n)

    @property
    def upper(self) -> np.ndarray:
        """Upper triangular ``U``; every diagonal entry is above the singularity threshold."""
        return np.triu(self.lu)

    @property
    def perm(self) -> np.ndarray:
        """Row ``i`` of ``P A`` is row ``perm[i]`` of ``A``."""
        perm = np.arange(self.n)
        for k, p in enumerate(self.piv):
            perm[[k, p]] = perm[[p, k]]
        return perm


def _singular(pivot: float, threshold: float, column: int) -> SingularMatrix:
    return SingularMatrix(
        f"pivot {pivot:.3e} below threshold {threshold:.3e} at column {column}"
    )


def lu_factor(matrix) -> LUFactors:
    """Factor a square matrix as ``P A = L U`` with partial pivoting.

    Each elimination step picks the largest-magnitude entry of the current
    column as pivot.  A pivot smaller than ``n * eps * norm_inf(A)`` means the
    matrix is singular to working precision and raises :class:`SingularMatrix`
    naming the first such column, instead of letting Inf/NaN leak into later
    computations.  The caller's matrix is never modified.
    """
    # Copying straight into LAPACK's Fortran order spares getrf a second copy,
    # and dlange spares the threshold an n x n temporary.  At n = 301 on a
    # 2-vCPU Xeon VM the two buffers cost about 0.6 ms, 40% of the call.
    large = np.ndim(matrix) == 2 and len(matrix) >= LAPACK_MIN_N
    a = as_matrix(matrix, order="F" if large else "K")
    if not np.isfinite(a).all():
        raise NonFiniteInput("matrix contains NaN or Inf entries")
    n = a.shape[0]
    if large:
        lapack = _lapack()
        threshold = n * EPS * lapack.dlange("I", a)
        a, piv, _ = lapack.dgetrf(a, overwrite_a=True)
        pivots = np.abs(a.diagonal())
        # a zero pivot does not stop getrf, so the columns after it may hold NaN
        bad = np.flatnonzero(~(pivots >= threshold) | (pivots == 0.0))
        if bad.size:
            k = int(bad[0])
            raise _singular(pivots[k], threshold, k)
    else:
        threshold = n * EPS * float(np.abs(a).sum(axis=1).max())
        piv = np.empty(n, dtype=np.int32)
        for k in range(n):
            p = k + int(np.argmax(np.abs(a[k:, k])))
            pivot = abs(a[p, k])
            if pivot < threshold or pivot == 0.0:
                raise _singular(pivot, threshold, k)
            piv[k] = p
            if p != k:
                a[[k, p]] = a[[p, k]]
            a[k + 1 :, k] /= a[k, k]
            a[k + 1 :, k + 1 :] -= np.outer(a[k + 1 :, k], a[k, k + 1 :])
    a.setflags(write=False)
    piv.setflags(write=False)
    return LUFactors(lu=a, piv=piv, n=n)


def lu_solve(factors: LUFactors, b) -> np.ndarray:
    """Solve ``A x = b`` using precomputed factors of ``A``.

    Applies the row interchanges to ``b``, then forward and back substitution.
    Reusing one factorization across many right-hand sides is the cheap part
    of the iteration: each call costs O(n^2) against O(n^3) for the
    factorization itself.
    """
    x = as_vector(b)
    n = factors.n
    if x.shape[0] != n:
        raise DimensionMismatch(f"right-hand side has length {x.shape[0]}, expected {n}")
    lu, piv = factors.lu, factors.piv
    if n >= LAPACK_MIN_N:
        # The wrapper shifts piv to 1-based and back in place with the GIL
        # released, so threads sharing these factors must not share piv.  x is
        # this call's own copy, so getrs may overwrite it.
        x, _ = _lapack().dgetrs(lu, piv.copy(), x, overwrite_b=True)
        return x
    # interchange k only moves entries at k and after, so x[i] is final at step i
    for i in range(n):
        p = piv[i]
        if p != i:
            x[i], x[p] = x[p], x[i]
        x[i] -= lu[i, :i] @ x[:i]
    for i in range(n - 1, -1, -1):
        x[i] = (x[i] - lu[i, i + 1 :] @ x[i + 1 :]) / lu[i, i]
    return x
