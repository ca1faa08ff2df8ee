"""Dense linear algebra kernels for square systems.

LU factorization with partial (row) pivoting plus the triangular solves and
the Euclidean norm the nonlinear iteration needs, on plain float64 numpy
arrays.  Two size bands each use the kernel that is fastest for them:

* ``n <= 3`` (problems a, b, c and e): straight-line kernels on Python
  floats, one for each n.  At this size the cost is per-call overhead, not
  arithmetic, so a kernel reads the matrix once with ``tolist()`` and works
  on named locals, with no loop, index or list update; that more than
  halves a 2x2 or 3x3 factorization and solve against a generic loop on the
  same floats.  A LAPACK call costs more still, and LAPACK scales by the
  reciprocal of the pivot, which rounds differently and changes the outcome
  of some runs started far from a root.  The kernels make the generic
  loop's float operations in its order, so they give its bits; the tests
  keep that loop as their oracle.  They round as the numpy-vectorised loop
  before it did, with one exception: that loop's two-term dot product at
  n = 3 went to BLAS, which may fuse it into one FMA, so an n = 3 solution
  can differ from it in the last bit.
* ``n >= LAPACK_MIN_N`` (problem d, n = 31, and its scaled versions):
  ``dgetrf``, ``dgetrs`` and ``dlange`` from scipy's LAPACK.  Loading it
  maps a second BLAS, about 3 MB, which runs at n <= 3 never pay for.

Both bands produce the same packed factors, read ``piv`` the same way and
keep the same checks: shapes, non-finite input, the singularity threshold and
an unmodified input.
Each band scans for NaN and Inf entries only when ``norm_inf(A)`` is not
finite; finite entries whose row sum overflows give an infinite threshold,
which no pivot meets.  ``solve`` checks its start point once, at its
boundary, then makes one finiteness test per chord step.
"""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass
from numbers import Integral
from typing import NamedTuple

import numpy as np

__all__ = [
    "EPS",
    "LAPACK_MIN_N",
    "DimensionMismatch",
    "NonFiniteInput",
    "SingularMatrix",
    "LUFactors",
    "lu_factor",
    "lu_solve",
    "norm2",
]

EPS = float(np.finfo(np.float64).eps)

# Smallest n factored by LAPACK; straight-line kernels take smaller n, where
# a LAPACK call costs more than the whole kernel.
LAPACK_MIN_N = 4


class DimensionMismatch(ValueError):
    """Operands do not have compatible shapes."""


class NonFiniteInput(ValueError):
    """A matrix contains NaN or Inf where finite entries are required."""


class SingularMatrix(ArithmeticError):
    """Elimination hit a pivot below the singularity threshold."""


def _real(value, name: str) -> np.ndarray:
    """``np.asarray(value)``, refusing a complex dtype, whose imaginary part
    a float64 cast would drop with only a warning."""
    out = np.asarray(value)
    if out.dtype.kind == "c":
        raise TypeError(f"{name} has complex dtype {out.dtype}, expected real values")
    return out


def norm2(v) -> float:
    """Euclidean norm sqrt(sum(v_i**2)); NaN entries propagate to the result.

    A 2-D or higher ``v`` raises :class:`DimensionMismatch`, and a complex one
    ``TypeError``.
    """
    v = np.asarray(_real(v, "v"), dtype=np.float64)
    if v.ndim > 1:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {v.shape}")
    return _norm2(v)


def _norm2(v: np.ndarray) -> float:
    """:func:`norm2` of a float64 vector, with no checks."""
    # ndarray.dot is np.dot without its __array_function__ dispatch
    return math.sqrt(v.dot(v))


@functools.cache
def _lapack():
    """scipy's f2py extension ``_flapack``, the module itself.

    The first factorization with ``n >= LAPACK_MIN_N`` loads it straight
    from its file, in about 5 ms and 2.5 MB; importing the ``scipy.linalg``
    package instead takes 0.2-0.4 s and 27 MB.
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


class _Factors(NamedTuple):
    """Factors as :func:`_solve` reads them, unchecked: the small kernels'
    Python lists below ``LAPACK_MIN_N``, ``getrf``'s arrays from it up."""

    lu: list | np.ndarray
    piv: list | np.ndarray
    n: int


@dataclass(frozen=True)
class LUFactors:
    """Packed LU factors of a row-permuted matrix: ``P A = L U``.

    ``lu`` holds ``L`` below the diagonal (its unit diagonal is implied) and
    ``U`` on and above it, as LAPACK ``getrf`` stores them.  ``piv`` lists the
    row interchanges in order, 0-based: row ``k`` was swapped with row
    ``piv[k]``; it is int32 at every ``n``.

    :func:`lu_factor` returns read-only arrays.  Nothing else about the
    factors is trusted: ``lower``, ``upper``, ``perm`` and :func:`lu_solve`
    each check them on every read, in one way and with the same messages, so
    factors built by hand, replaced, copied, pickled or written to are all
    safe to read and solve with.  :func:`lu_solve` lists what is refused.
    """

    lu: np.ndarray
    piv: np.ndarray
    n: int

    @property
    def lower(self) -> np.ndarray:
        """Unit lower triangular ``L``, with ``|L[i, j]| <= 1`` (partial pivoting)."""
        lu, _, _, n = _checked_factors(self)
        return np.tril(lu, -1) + np.eye(n)

    @property
    def upper(self) -> np.ndarray:
        """Upper triangular ``U``; every diagonal entry is above the singularity threshold."""
        return np.triu(_checked_factors(self)[0])

    @property
    def perm(self) -> np.ndarray:
        """Row ``i`` of ``P A`` is row ``perm[i]`` of ``A``."""
        _, _, pivots, n = _checked_factors(self)
        perm = np.arange(n)
        for k, p in enumerate(pivots):
            perm[[k, p]] = perm[[p, k]]
        return perm


def _checked_factors(factors: LUFactors) -> tuple[np.ndarray, np.ndarray, list, int]:
    """``lu``, a private copy of ``piv``, ``piv.tolist()`` and ``n`` of
    ``factors``, once ``n`` is a positive integer, ``lu`` a real n x n array
    and ``piv`` n integers in 0..n-1: the one check of every reader."""
    # (2,) == (2.0,), so a float n would pass every shape check below
    if not isinstance(n := factors.n, Integral) or n < 1:
        rule = "positive" if isinstance(n, Integral) else "an integer"
        raise ValueError(f"factors.n must be {rule}, got {n!r}")
    # the pivots checked are a copy, which no other thread can write to and
    # which getrs may shift in place
    lu, piv = _real(factors.lu, "factors.lu"), np.array(factors.piv)
    if lu.shape != (n, n) or piv.shape != (n,):
        raise DimensionMismatch(
            f"factors of size {n} need lu of shape {(n, n)} and piv of shape "
            f"{(n,)}, got {lu.shape} and {piv.shape}"
        )
    pivots = piv.tolist()
    if piv.dtype.kind not in "iu" or not 0 <= min(pivots) <= max(pivots) < n:
        raise ValueError(
            f"piv must hold integers in 0..{n - 1}, got {piv.dtype} entries "
            f"from {piv.min()} to {piv.max()}"
        )
    # a bool or numpy n as the int that np.eye and the kernel tables take
    return lu, piv, pivots, int(n)


def _singular(pivot: float, threshold: float, column: int) -> SingularMatrix:
    return SingularMatrix(
        f"pivot {pivot:.3e} below threshold {threshold:.3e} at column {column}"
    )


def _check_finite(a: np.ndarray) -> None:
    """Raise :class:`NonFiniteInput` if ``a`` has a NaN or Inf entry; called
    only once a row sum is not finite, which finite entries can also cause."""
    if not np.isfinite(a).all():
        raise NonFiniteInput("matrix contains NaN or Inf entries")


def lu_factor(matrix) -> LUFactors:
    """Factor a square matrix as ``P A = L U`` with partial pivoting.

    Each elimination step picks the largest-magnitude entry of the current
    column as pivot.  A pivot smaller than ``n * eps * norm_inf(A)`` means the
    matrix is singular to working precision and raises :class:`SingularMatrix`
    naming the first such column, instead of letting Inf/NaN leak into later
    computations.  A complex matrix raises ``TypeError``.  The caller's
    matrix is never modified.
    """
    lu, piv, n = _factor_owned(np.array(_real(matrix, "matrix"), dtype=np.float64, order="F"))
    # no copies at n >= LAPACK_MIN_N, where these are getrf's own arrays
    lu, piv = np.asarray(lu), np.asarray(piv, dtype=np.int32)
    lu.setflags(write=False)
    piv.setflags(write=False)
    return LUFactors(lu, piv, n)


def _factor_owned(a: np.ndarray) -> _Factors:
    """:func:`lu_factor` for a float64 array the caller gives up, in kernel form.

    At ``n >= LAPACK_MIN_N`` ``a`` must be writeable and Fortran-ordered, as
    :func:`lu_factor`'s copy and the solver's outer step make sure: ``getrf``
    factors it where it lies, even when it proves singular, and ``lu`` is that
    array, made read-only.  A non-finite ``a`` is rejected before anything is
    written.
    """
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise DimensionMismatch(f"expected a nonempty square matrix, got shape {a.shape}")
    n = a.shape[0]
    if n >= LAPACK_MIN_N:
        lapack = _lapack()
        # NaN or Inf, without a warning, when an entry is or a row sum overflows
        norm = lapack.dlange("I", a)
        if not math.isfinite(norm):
            _check_finite(a)
        threshold = n * EPS * norm
        a, piv, _ = lapack.dgetrf(a, overwrite_a=True)
        pivots = np.abs(a.diagonal())
        # getrf goes on past a zero pivot, and entries that overflow in the
        # elimination can leave NaN on the diagonal, which the minimum
        # propagates; only a failing minimum pays for the scan
        smallest = pivots.min()
        if not smallest >= threshold or smallest == 0.0:
            k = int(np.flatnonzero(~(pivots >= threshold) | (pivots == 0.0))[0])
            raise _singular(pivots[k], threshold, k)
        a.setflags(write=False)
        return _Factors(a, piv, n)
    return _FACTOR_KERNELS[n](a)


def _factor_square(a: np.ndarray) -> _Factors:
    """:func:`_factor_owned` of a float64 array already checked to be square.

    Below ``LAPACK_MIN_N`` the kernel reads ``a`` with no conversion or shape
    test; an empty ``a`` and larger ones take every check of
    :func:`_factor_owned`.
    """
    return _FACTOR_KERNELS.get(len(a), _factor_owned)(a)


def lu_solve(factors: LUFactors, b) -> np.ndarray:
    """Solve ``A x = b`` using precomputed factors of ``A``.

    Swaps row ``k`` of ``b`` with row ``piv[k]`` for k = 0..n-1 in turn, then
    makes the forward and back substitutions, as LAPACK's ``getrs`` does, at
    every n.  Reusing one factorization across many right-hand sides is the
    cheap part of the iteration: each call costs O(n^2) against O(n^3) for the
    factorization itself.  The factors are checked before a kernel reads
    them, as ``LUFactors.lower``, ``upper`` and ``perm`` check them: an
    ``lu`` that is not n x n or a ``piv`` of other than n entries raises
    :class:`DimensionMismatch`; a non-integer or non-positive ``n``, a pivot
    outside ``0..n-1`` or a non-integer ``piv`` dtype raises ``ValueError``; a
    complex ``lu`` raises ``TypeError``.  Here alone, a zero on the diagonal
    of ``U`` raises :class:`SingularMatrix` naming the first, and a complex
    ``b`` raises ``TypeError``.
    """
    # not a copy: only getrs writes to b, and it gets its own
    x = np.asarray(_real(b, "right-hand side"), dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise DimensionMismatch(f"expected a nonempty 1-D vector, got shape {x.shape}")
    lu, piv, pivots, n = _checked_factors(factors)
    if x.shape[0] != n:
        raise DimensionMismatch(f"right-hand side has length {x.shape[0]}, expected {n}")
    # else ZeroDivisionError below LAPACK_MIN_N and Inf or NaN from getrs
    diagonal = lu.diagonal().tolist()
    if 0.0 in diagonal:
        raise SingularMatrix(f"zero on the diagonal of U at column {diagonal.index(0.0)}")
    kernel = (lu, piv) if n >= LAPACK_MIN_N else (lu.tolist(), pivots)
    return _solve(_Factors(*kernel, n), x)


def _solve(factors: _Factors, x: np.ndarray) -> np.ndarray:
    """:func:`lu_solve` on :func:`_factor_owned`'s factors and a float64 vector
    of length n, with no checks."""
    lu, piv, n = factors
    if n >= LAPACK_MIN_N:
        # dgetrs shifts its pivots to 1-based and back in place with the GIL
        # released, so piv is the caller's own: getrf's in the chord loop, a
        # private copy in lu_solve.  f2py copies b, as overwrite_b is off.
        return _lapack().dgetrs(lu, piv, x)[0]
    return _SOLVE_KERNELS[n](lu, piv, x.tolist())


# The kernels below n = LAPACK_MIN_N: elimination with partial pivoting and
# the substitutions, written out for each n.  Each makes the float operations
# of the generic loop on Python floats that they replaced, in its order, so
# they give the same bits, pivots and exceptions:
# * row sums add left to right, as numpy's reduction adds up short rows, and
#   the first largest is the norm, as max() picks it (written out, as a
#   call to max() costs as much as the rest of the norm); 0.0 + |v| is |v|,
#   so the loop's 0.0 seed of a row sum is left out;
# * the pivot is the first entry of largest magnitude, as np.argmax picks it,
#   and a pivot below n * eps * norm_inf(A), or zero, raises for its column;
# * every dot product of the substitutions starts from the loop's 0.0, which
#   turns a leading -0.0 into 0.0; an empty one is left out, as x - 0.0 is x.
# A solve makes all the row interchanges in order, on the list _solve made
# for it, before it substitutes, as getrs does; so both bands read piv alike.


def _factor1(a: np.ndarray) -> _Factors:
    ((a00,),) = a.tolist()
    pivot = abs(a00)
    if not math.isfinite(pivot):
        _check_finite(a)
    threshold = EPS * pivot
    if pivot < threshold or pivot == 0.0:
        raise _singular(pivot, threshold, 0)
    return _Factors([[a00]], [0], 1)


def _factor2(a: np.ndarray) -> _Factors:
    (a00, a01), (a10, a11) = a.tolist()
    t0, t1 = abs(a00) + abs(a01), abs(a10) + abs(a11)
    # a sum is finite unless an entry is NaN or Inf or the entries overflow it
    if not math.isfinite(t0 + t1):
        _check_finite(a)
    threshold = 2 * EPS * (t1 if t1 > t0 else t0)
    p0, pivot = 0, abs(a00)
    if abs(a10) > pivot:
        p0, pivot = 1, abs(a10)
        a00, a01, a10, a11 = a10, a11, a00, a01
    if pivot < threshold or pivot == 0.0:
        raise _singular(pivot, threshold, 0)
    l10 = a10 / a00
    a11 -= l10 * a01
    pivot = abs(a11)
    if pivot < threshold or pivot == 0.0:
        raise _singular(pivot, threshold, 1)
    return _Factors([[a00, a01], [l10, a11]], [p0, 1], 2)


def _factor3(a: np.ndarray) -> _Factors:
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a.tolist()
    t0 = abs(a00) + abs(a01) + abs(a02)
    t1 = abs(a10) + abs(a11) + abs(a12)
    t2 = abs(a20) + abs(a21) + abs(a22)
    if not math.isfinite(t0 + t1 + t2):
        _check_finite(a)
    norm = t1 if t1 > t0 else t0
    threshold = 3 * EPS * (t2 if t2 > norm else norm)
    p0, pivot = 0, abs(a00)
    if abs(a10) > pivot:
        p0, pivot = 1, abs(a10)
    if abs(a20) > pivot:
        p0, pivot = 2, abs(a20)
    if pivot < threshold or pivot == 0.0:
        raise _singular(pivot, threshold, 0)
    if p0 == 1:
        a00, a01, a02, a10, a11, a12 = a10, a11, a12, a00, a01, a02
    elif p0 == 2:
        a00, a01, a02, a20, a21, a22 = a20, a21, a22, a00, a01, a02
    l10 = a10 / a00
    a11 -= l10 * a01
    a12 -= l10 * a02
    l20 = a20 / a00
    a21 -= l20 * a01
    a22 -= l20 * a02
    p1, pivot = 1, abs(a11)
    if abs(a21) > pivot:
        p1, pivot = 2, abs(a21)
        l10, a11, a12, l20, a21, a22 = l20, a21, a22, l10, a11, a12
    if pivot < threshold or pivot == 0.0:
        raise _singular(pivot, threshold, 1)
    l21 = a21 / a11
    a22 -= l21 * a12
    pivot = abs(a22)
    if pivot < threshold or pivot == 0.0:
        raise _singular(pivot, threshold, 2)
    lu = [[a00, a01, a02], [l10, a11, a12], [l20, l21, a22]]
    return _Factors(lu, [p0, p1, 2], 3)


def _solve1(lu: list, piv: list, b: list) -> np.ndarray:
    ((u00,),) = lu
    (x0,) = b
    return np.array([x0 / u00])


def _solve2(lu: list, piv: list, b: list) -> np.ndarray:
    (u00, u01), (l10, u11) = lu
    p0, p1 = piv
    b[0], b[p0] = b[p0], b[0]
    b[1], b[p1] = b[p1], b[1]
    x0, x1 = b
    x1 -= 0.0 + l10 * x0
    x1 /= u11
    return np.array([(x0 - (0.0 + u01 * x1)) / u00, x1])


def _solve3(lu: list, piv: list, b: list) -> np.ndarray:
    (u00, u01, u02), (l10, u11, u12), (l20, l21, u22) = lu
    p0, p1, p2 = piv
    b[0], b[p0] = b[p0], b[0]
    b[1], b[p1] = b[p1], b[1]
    b[2], b[p2] = b[p2], b[2]
    x0, x1, x2 = b
    x1 -= 0.0 + l10 * x0
    x2 -= (0.0 + l20 * x0) + l21 * x1
    x2 /= u22
    x1 = (x1 - (0.0 + u12 * x2)) / u11
    return np.array([(x0 - ((0.0 + u01 * x1) + u02 * x2)) / u00, x1, x2])


_FACTOR_KERNELS = {1: _factor1, 2: _factor2, 3: _factor3}
_SOLVE_KERNELS = {1: _solve1, 2: _solve2, 3: _solve3}
