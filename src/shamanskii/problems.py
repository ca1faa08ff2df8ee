"""Benchmark systems: five small square problems with analytic Jacobians.

Each problem bundles the residual map F, its Jacobian (J[i, j] = dF_i/dx_j)
and a default starting point.  Registry keys are the short names "a".."e".
A central-difference Jacobian is provided as an independent check on the
hand-coded derivatives.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import DimensionMismatch, _real

# numpy's native float64 dtype is one shared instance, so _checked's per-step
# test is an identity test, and its conversion is spared converting the type.
_F64 = np.dtype(np.float64)

__all__ = [
    "DomainViolation",
    "UnknownProblem",
    "Problem",
    "JacobianCheck",
    "evaluate_f",
    "evaluate_jacobian",
    "fd_jacobian",
    "check_jacobian",
    "registry_get",
    "registry_names",
]


class DomainViolation(ValueError):
    """Input lies outside a problem's natural domain."""

    def __init__(self, problem_name: str, index: int, description: str):
        self.problem_name = problem_name
        self.index = index
        self.description = description
        super().__init__(f"problem {problem_name!r}: x[{index}] {description}")

    def __reduce__(self):
        # args holds only the message; copies and pickles need all three
        return type(self), (self.problem_name, self.index, self.description)


class UnknownProblem(LookupError):
    """Requested name is not in the problem registry."""


@dataclass(frozen=True)
class Problem:
    """A square nonlinear system F(x) = 0 with analytic Jacobian.

    ``residual`` and ``jacobian`` are pure functions of a length-``dim``
    vector; evaluation never caches.  The solver passes them a float64 array
    of shape ``(dim,)``, which they must not write to: it is an iterate the
    run keeps.  Instances are immutable and safe to share.

    At ``dim >= 4`` the solver factors the array ``jacobian(x)`` returns in
    place, and leaves it read-only, when nothing else can see it: a writeable
    Fortran-ordered float64 array that owns its memory and to which the
    problem keeps no reference.  It copies any other array first and leaves
    it unchanged, so a stored, reused, view or read-only Jacobian is safe; a
    new Fortran-ordered array on each call saves the copy.  A list or another
    dtype is first converted to a float64 array, which the solver then tests.
    Below ``dim = 4`` (``LAPACK_MIN_N``) the factorization only reads the
    array, so the solver neither tests nor copies it, and any array is left as
    it was.
    """

    name: str
    dim: int
    residual: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]
    start: np.ndarray
    description: str = ""


def evaluate_f(problem: Problem, x) -> np.ndarray:
    """Evaluate the residual map at ``x``, checking the shapes of ``x`` and of F(x)."""
    return _f_at(problem, _checked(problem, "x", x, (problem.dim,)))


def evaluate_jacobian(problem: Problem, x) -> np.ndarray:
    """Evaluate the analytic Jacobian at ``x``, checking the shapes of ``x`` and of J(x)."""
    return _jacobian_at(problem, _checked(problem, "x", x, (problem.dim,)))


# F and J at an x already checked, as the solver's iterates are: only the returns are checked.
def _f_at(problem: Problem, x: np.ndarray) -> np.ndarray:
    return _checked(problem, "residual(x)", problem.residual(x), (problem.dim,))


def _jacobian_at(problem: Problem, x: np.ndarray) -> np.ndarray:
    return _checked(problem, "jacobian(x)", problem.jacobian(x), (problem.dim, problem.dim))


def fd_jacobian(problem: Problem, x, h: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian, column by column.

    Exact for affine maps up to rounding, O(h**2) accurate otherwise.  Raises
    :class:`DomainViolation` if a perturbed point leaves the problem's domain,
    so ``x`` should sit inside the domain with margin larger than ``h``.
    """
    v = _checked(problem, "x", x, (problem.dim,))
    columns = [(evaluate_f(problem, v + s) - evaluate_f(problem, v - s)) / (2.0 * h)
               for s in h * np.eye(problem.dim)]
    return np.column_stack(columns)


def _checked(problem: Problem, name: str, value, shape: tuple) -> np.ndarray:
    # Not a copy: residual and jacobian are pure, so they do not write to x.
    out = np.asarray(value)
    if out.dtype is not _F64:
        out = np.asarray(_real(out, f"problem {problem.name!r}: {name}"), dtype=_F64)
    if out.shape != shape:
        raise DimensionMismatch(
            f"problem {problem.name!r}: {name} has shape {out.shape}, expected {shape}"
        )
    return out


# --- the benchmark systems --------------------------------------------------

# The callables of a, b, c and e make the formulas' numpy-scalar operations in
# the formulas' order, each computed once: each entry of x is read once, a
# repeated term is bound with := where it first appears, and a Jacobian is one
# flat list reshaped.  Python floats, or x * x for x ** 2, would change bits.


def _residual_a(x):
    x0, x1 = x[0], x[1]
    return np.array([x0 ** 2 - 4.0 * x1 + (x1_sq := x1 ** 2), 2.0 * x0 - x1_sq - 2.0])


def _jacobian_a(x):
    x0, x1 = x[0], x[1]
    return np.array([2.0 * x0, -4.0 + 2.0 * x1, 2.0, -2.0 * x1]).reshape(2, 2)


def _residual_b(x):
    x0, x1 = x[0], x[1]
    return np.array([(x0_sq := x0 ** 2) + (x1_sq := x1 ** 2) - 1.0, x0_sq - x1_sq + 0.5])


def _jacobian_b(x):
    x0, x1 = x[0], x[1]
    return np.array([(dx0 := 2.0 * x0), 2.0 * x1, dx0, -2.0 * x1]).reshape(2, 2)


def _check_domain_c(x):
    # x[1] feeds a reciprocal and x[2] the base of a real power x3**x1; returns
    # x[0], x[1] and x[2], read once each
    x1 = x[1]
    if x1 == 0.0:
        raise DomainViolation("c", 1, "must be nonzero (reciprocal term)")
    x2 = x[2]
    if x2 <= 0.0:
        raise DomainViolation("c", 2, "must be positive (base of a real power)")
    return x[0], x1, x2


def _residual_c(x):
    x0, x1, x2 = _check_domain_c(x)
    return np.array([np.cos(x1) - np.cos(x0), x2 ** x0 - 1.0 / x1, np.exp(x0) - x2 ** 2])


def _jacobian_c(x):
    x0, x1, x2 = _check_domain_c(x)
    return np.array([np.sin(x0), -np.sin(x1), 0.0,
                     x2 ** x0 * np.log(x2), 1.0 / x1 ** 2, x0 * x2 ** (x0 - 1.0),
                     np.exp(x0), 0.0, -2.0 * x2]).reshape(3, 3)


def _residual_d(x):
    # F_i = x_i * x_{i+1} - 1 with the last index wrapping around to x_0; the
    # same bytes as x * np.roll(x, -1) - 1.0, without np.roll's temporaries
    f = np.empty_like(x)
    np.multiply(x[:-1], x[1:], out=f[:-1])
    f[-1] = x[-1] * x[0]
    f -= 1.0
    return f


def _jacobian_d(x):
    # dF_i/dx_i = x_{i+1} and dF_i/dx_{i+1} = x_i, indices wrapping around.
    # Entry (i, j) of the Fortran-ordered buffer is entry i + j * n of its flat
    # view, so the diagonal is every (n + 1)-th entry from 0, the superdiagonal
    # every (n + 1)-th from n, and the corner (n - 1, 0) is entry n - 1.
    n = x.shape[0]
    jac = np.zeros((n, n), order="F")  # the layout LAPACK factors in (see Problem)
    flat = jac.reshape(-1, order="F")  # a view, so jac keeps owning its memory
    diagonal = flat[:: n + 1]
    diagonal[:-1] = x[1:]
    diagonal[-1] = x[0]
    flat[n :: n + 1] = x[:-1]
    flat[n - 1] = x[-1]
    return jac


def _residual_e(x):
    x0, x1 = x[0], x[1]
    return np.array([x0 ** 2 + (x1_sq := x1 ** 2) - 2.0, np.exp(x0 - 1.0) + x1_sq - 2.0])


def _jacobian_e(x):
    x0, x1 = x[0], x[1]
    return np.array([2.0 * x0, (dx1 := 2.0 * x1), np.exp(x0 - 1.0), dx1]).reshape(2, 2)


def _make_problem(name, dim, residual, jacobian, start, description):
    vec = np.array(start, dtype=np.float64)
    vec.setflags(write=False)
    return Problem(name, dim, residual, jacobian, vec, description)


_REGISTRY = {
    p.name: p
    for p in (
        _make_problem(
            "a", 2, _residual_a, _jacobian_a, [1.0, 0.1],
            "[x1^2 - 4*x2 + x2^2, 2*x1 - x2^2 - 2]",
        ),
        _make_problem(
            "b", 2, _residual_b, _jacobian_b, [1.0, 1.0],
            "[x1^2 + x2^2 - 1, x1^2 - x2^2 + 0.5]",
        ),
        _make_problem(
            "c", 3, _residual_c, _jacobian_c, [1.0, 1.0, 2.0],
            "[cos(x2) - cos(x1), x3^x1 - 1/x2, exp(x1) - x3^2]",
        ),
        _make_problem(
            "d", 31, _residual_d, _jacobian_d, [-2.0] * 31,
            "[x_i*x_{i+1} - 1 for i=1..30, x31*x1 - 1]",
        ),
        _make_problem(
            "e", 2, _residual_e, _jacobian_e, [2.0, 0.5],
            "[x1^2 + x2^2 - 2, exp(x1 - 1) + x2^2 - 2]",
        ),
    )
}


def registry_names() -> list[str]:
    """Names of the built-in problems, sorted."""
    return sorted(_REGISTRY)


def registry_get(name: str) -> Problem:
    """Look up a built-in problem by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(registry_names())
        raise UnknownProblem(f"unknown problem {name!r} (known: {known})") from None


# --- analytic-vs-finite-difference validation --------------------------------


@dataclass(frozen=True)
class JacobianCheck:
    """Worst analytic-vs-central-difference deviation over a set of points.

    ``max_rel_error`` is max|J_analytic - J_fd| scaled by 1 + norm_inf of the
    analytic Jacobian, or NaN if any deviation is NaN; ``worst_entry``
    locates the offender, the first NaN entry in that case.  With no point
    checked, ``max_rel_error`` is NaN too, and ``worst_entry`` is ``(0, 0)``.
    """

    problem_name: str
    max_rel_error: float
    worst_entry: tuple[int, int]
    points_checked: int
    points_skipped: int


def check_jacobian(problem: Problem, points: int = 10, h: float = 1e-6) -> JacobianCheck:
    """Compare analytic and finite-difference Jacobians near the start point.

    Checks the start point itself plus ``points`` uniformly perturbed copies,
    each coordinate shifted within +-0.1, drawn from
    ``np.random.default_rng(20240817)``, so every call checks the same points.
    Perturbed points that fall outside the domain are skipped and counted,
    not treated as failures.
    """
    rng = np.random.default_rng(20240817)
    candidates = [problem.start]
    for _ in range(points):
        candidates.append(problem.start + rng.uniform(-0.1, 0.1, problem.dim))
    rels, entries = [], []
    for x in candidates:
        try:
            analytic = evaluate_jacobian(problem, x)
            approx = fd_jacobian(problem, x, h)
        except DomainViolation:
            continue
        diff = np.abs(analytic - approx)
        scale = 1.0 + float(np.abs(analytic).sum(axis=1).max())
        rels.append(float(diff.max()) / scale)
        entries.append(np.unravel_index(int(np.argmax(diff)), diff.shape))
    skipped = len(candidates) - len(rels)
    if not rels:
        return JacobianCheck(problem.name, math.nan, (0, 0), 0, skipped)
    # np.argmax picks the first NaN, else the first largest error
    k = int(np.argmax(rels))
    i, j = entries[k]
    return JacobianCheck(problem.name, rels[k], (int(i), int(j)), len(rels), skipped)
