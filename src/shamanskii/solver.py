"""Frozen-Jacobian Newton iteration (Shamanskii's m-method).

Each outer iteration factors the Jacobian once and then applies ``m`` chord
updates that reuse the frozen factors, so the O(n^3) factorization cost is
paid once per outer step while the local convergence order climbs to
``m + 1``.  With ``m = 1`` this is plain Newton; as ``m`` grows the inner
sweep turns into the classic chord method.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace
from enum import Enum
from numbers import Integral, Real

import numpy as np

from . import linalg
# solve and outer_step check x once; from then on the chord loop's evaluations
# check only what the callables return, and norm2 takes those returns unchecked.
from .linalg import EPS, LAPACK_MIN_N, NonFiniteInput, SingularMatrix, _norm2 as norm2
from .problems import DomainViolation, Problem, _checked
from .problems import _f_at as evaluate_f, _jacobian_at as evaluate_jacobian

__all__ = [
    "TOL_DEFAULT",
    "SolveStatus",
    "SolverConfig",
    "SolveTrace",
    "NonFiniteIterate",
    "solve",
    "outer_step",
    "newton_solve",
]

# At n >= LAPACK_MIN_N, _outer_step alone decides whether getrf may overwrite a
# Jacobian (see Problem): it copies one that does not own its memory, is not
# Fortran-ordered and writeable, or is seen by more than its own local.  Not
# flags.farray: it reads True for a read-only array, which getrf then writes
# to.  Not a local bound to jac.flags: it adds a reference, so all would be
# copied.  No aligned test: numpy aligns what an array owns, and f2py copies a
# misaligned array.  Copying every Jacobian doubles the n x n buffers each step
# frees; at n = 301 glibc then returns those pages to the OS, to be faulted in
# again.  Below LAPACK_MIN_N the kernels only read the Jacobian, so it is
# neither tested nor copied, and _jacobian_at has checked its dtype and shape.
# The factors stay in the kernels' own form, so the chord loop's solves check
# nothing.
lu_factor = linalg._factor_square
lu_solve = linalg._solve


def _sole_local_refs() -> int:
    # sys.getrefcount of an array one local alone refers to: it counts its own
    # argument, and an interpreter that borrows stack references counts fewer.
    # A free-threaded build counts in ways not checked here, so every Jacobian
    # there is copied: no count is <= 0.
    if hasattr(sys, "_is_gil_enabled") and not sys._is_gil_enabled():
        return 0
    jac = np.empty(0)
    return sys.getrefcount(jac)


_SOLE_LOCAL_REFS = _sole_local_refs()

# Residual tolerance an order of magnitude above machine epsilon: about the
# smallest target a float64 residual can reliably reach.
TOL_DEFAULT = 10.0 * EPS


class SolveStatus(Enum):
    CONVERGED = "Converged"
    MAX_ITERATIONS = "MaxIterations"
    SINGULAR_JACOBIAN = "SingularJacobian"
    NON_FINITE_ITERATE = "NonFiniteIterate"
    DOMAIN_VIOLATION = "DomainViolation"


class NonFiniteIterate(ArithmeticError):
    """An update or residual evaluation produced NaN or Inf."""


def _is_positive(value, kind=Integral) -> bool:
    # bool is an Integral too, but SolverConfig(m=True) is a caller's mistake
    return isinstance(value, kind) and not isinstance(value, bool) and value > 0


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters.

    ``m`` is the number of chord updates per factorization.  A run has
    converged once a residual norm is at most ``tol``, so a norm equal to
    ``tol`` has converged.  ``max_outer`` caps the outer iterations, that is
    the factorizations; a run that reaches it unconverged ends as
    MaxIterations.  ``max_total`` caps the total update count and defaults to
    ``m * max_outer``; a sweep is only started when all ``m`` of its updates
    fit the budget, so completed runs always satisfy ``it_tot == m * it_inv``
    unless ``inner_early_exit`` is set.  ``inner_early_exit`` checks the
    residual after every inner update and stops the sweep as soon as the
    tolerance is met; by default convergence is tested only at the outer
    level.  ``record_inner`` fills :attr:`SolveTrace.inner_iterates` with the
    iterate after each chord update, in order; otherwise it stays ``None``.
    """

    m: int = 1
    tol: float = TOL_DEFAULT
    max_outer: int = 100
    inner_early_exit: bool = False
    max_total: int | None = None
    record_inner: bool = False

    def __post_init__(self):
        if not _is_positive(self.m):
            raise ValueError("m must be a positive integer")
        if not (_is_positive(self.tol, Real) and self.tol < math.inf):
            raise ValueError("tol must be a finite positive number")
        for flag in ("inner_early_exit", "record_inner"):
            if not isinstance(getattr(self, flag), (bool, np.bool_)):
                raise ValueError(f"{flag} must be a bool")
        if not _is_positive(self.max_outer):
            raise ValueError("max_outer must be a positive integer")
        if self.max_total is not None and not _is_positive(self.max_total):
            raise ValueError("max_total must be a positive integer when given")

    @property
    def total_cap(self) -> int:
        return self.m * self.max_outer if self.max_total is None else self.max_total


@dataclass
class SolveTrace:
    """Recorded history of one run.

    ``outer_iterates`` holds x(0)..x(it_inv), one entry per completed outer
    step plus the start point; ``residual_norms`` aligns with it.  ``it_inv``
    counts Jacobian factorizations, ``it_tot`` chord updates.  Failures land
    in ``status`` with the partial history preserved.  ``cause`` is the
    exception behind a failure, without its traceback, and sets the status:
    SingularMatrix -> SingularJacobian, DomainViolation -> DomainViolation,
    NonFiniteInput (a non-finite J) or NonFiniteIterate (which value went
    non-finite, and where) -> NonFiniteIterate.  MaxIterations has no cause.
    """

    outer_iterates: list[np.ndarray]
    residual_norms: list[float]
    it_inv: int
    it_tot: int
    status: SolveStatus
    inner_iterates: list[np.ndarray] | None = field(default=None, repr=False)
    cause: Exception | None = field(default=None, repr=False)

    @property
    def x(self) -> np.ndarray:
        """Final iterate."""
        return self.outer_iterates[-1]

    @property
    def final_residual(self) -> float:
        return self.residual_norms[-1]

    @property
    def converged(self) -> bool:
        return self.status is SolveStatus.CONVERGED


def _residual(problem, x, step):
    """``(F(x), cause)`` at chord step ``step``, where step 0 is the start point.

    A domain exit gives ``(None, exc)``; a non-finite ``x`` or F(x) gives a
    :class:`NonFiniteIterate` naming which one and where.
    """
    try:
        rhs = evaluate_f(problem, x)
    except DomainViolation as exc:
        return None, exc.with_traceback(None)
    # A NaN or Inf entry makes the dot product NaN or Inf (Inf * 0 is NaN), so
    # a finite one settles it; overflow alone sends it to the entrywise test.
    if math.isfinite(x.dot(rhs)) or (np.isfinite(x).all() and np.isfinite(rhs).all()):
        return rhs, None
    if np.isfinite(x).all():
        what = f"residual at chord step {step}" if step else "residual at the start point"
    else:
        what = f"update at chord step {step}" if step else "start point"
    return rhs, NonFiniteIterate(f"non-finite {what}")


def _outer_step(problem, x, rhs, cfg: SolverConfig, inner_record=None):
    """Factor J(x), then run up to ``cfg.m`` updates ``x <- x - solve(J, F(x))``.

    ``rhs`` must equal F(x) on entry.  Returns ``(x, rhs, steps, cause)`` and
    never raises on a numerical failure.  ``steps`` is None when the
    factorization failed, else the number of updates made; ``x``/``rhs`` hold
    the last state whose residual evaluation returned.  ``cause`` is the
    exception behind a failure, if any, stripped of its traceback so that no
    frame outlives the call.
    """
    try:
        jac = evaluate_jacobian(problem, x)
        if problem.dim >= LAPACK_MIN_N and not (
            jac.flags.owndata and jac.flags.f_contiguous and jac.flags.writeable
            and sys.getrefcount(jac) <= _SOLE_LOCAL_REFS
        ):
            # getrf may not overwrite it where it lies
            jac = np.array(jac, order="F")
        factors = lu_factor(jac)
    except (SingularMatrix, DomainViolation, NonFiniteInput) as exc:
        return x, rhs, None, exc.with_traceback(None)
    for steps in range(1, cfg.m + 1):
        x_next = x - lu_solve(factors, rhs)
        rhs_next, cause = _residual(problem, x_next, steps)
        if rhs_next is None:
            return x, rhs, steps - 1, cause
        x, rhs = x_next, rhs_next
        if inner_record is not None:
            inner_record.append(x)
        if cause is not None or (cfg.inner_early_exit and norm2(rhs) <= cfg.tol):
            break
    return x, rhs, steps, cause


# A cause's status; isinstance lets a problem's own DomainViolation subclass map.
_STATUS_OF_CAUSE = (
    (SingularMatrix, SolveStatus.SINGULAR_JACOBIAN),
    (DomainViolation, SolveStatus.DOMAIN_VIOLATION),
    ((NonFiniteInput, NonFiniteIterate), SolveStatus.NON_FINITE_ITERATE),
)


# A run records non-finite values in its status and cause; numpy's warnings
# about them would only reach the caller's stderr.  One shared instance is
# safe as a decorator since numpy 2.0: each call sets and resets its own
# context-local state, so threads do not restore each other's settings.
_NO_FP_WARNINGS = np.errstate(over="ignore", invalid="ignore", divide="ignore")


@_NO_FP_WARNINGS
def solve(problem: Problem, config: SolverConfig | None = None) -> SolveTrace:
    """Drive the frozen-Jacobian iteration from the problem's start point.

    Loop until the residual norm is at most ``config.tol``, so a norm equal to
    ``tol`` has converged: factor the Jacobian at the current outer iterate,
    run ``config.m`` chord updates reusing the factors (each followed by a
    residual evaluation), then record the new outer iterate and its residual
    norm.  A numerical failure or an iteration cap ends the loop with the
    status :class:`SolveTrace` describes; the partial trace is always returned,
    never thrown away.  A start point of the wrong length, or a residual or
    Jacobian that returns the wrong shape, is a programmer error and raises
    :class:`DimensionMismatch` naming the problem, ``x`` or the callable, and
    both shapes.  The start point's shape is checked once, before the first
    evaluation; every residual and Jacobian return is checked on every call.

    The Jacobians ``problem.jacobian`` returns may be factored in place; see
    :class:`~shamanskii.problems.Problem` for when.
    """
    cfg = config if config is not None else SolverConfig()
    x = np.array(_checked(problem, "x", problem.start, (problem.dim,)))
    outer = [x]
    inner: list[np.ndarray] | None = [] if cfg.record_inner else None
    it_inv = it_tot = 0

    rhs, cause = _residual(problem, x, 0)
    res = float("nan") if rhs is None else norm2(rhs)
    norms = [res]

    while (cause is None and res > cfg.tol and it_inv < cfg.max_outer
           and it_tot + cfg.m <= cfg.total_cap):
        x, rhs, steps, cause = _outer_step(problem, x, rhs, cfg, inner)
        if steps is None:
            break
        it_inv += 1
        it_tot += steps
        res = norm2(rhs)
        outer.append(x)
        norms.append(res)

    if cause is not None:
        status = next(status for kind, status in _STATUS_OF_CAUSE if isinstance(cause, kind))
    else:
        status = SolveStatus.MAX_ITERATIONS if res > cfg.tol else SolveStatus.CONVERGED
    return SolveTrace(outer, norms, it_inv, it_tot, status, inner, cause)


@_NO_FP_WARNINGS
def outer_step(problem: Problem, x, m: int) -> tuple[np.ndarray, float, int]:
    """One factorization followed by an ``m``-step chord sweep from ``x``.

    Returns ``(new_x, residual_norm, inner_steps)``.  This is exactly one
    outer iteration of :func:`solve`, exposed so the sweep can be exercised
    in isolation; failures surface as exceptions here instead of trace
    statuses.  ``x`` gets the checks of a start point in :func:`solve`: a
    wrong shape raises :class:`DimensionMismatch`, a domain exit at ``x``
    raises the :class:`DomainViolation`, and a non-finite ``x`` or F(x)
    raises the :class:`NonFiniteIterate` that :func:`solve` would record,
    unless J(x) fails to factor: that failure, which :func:`solve` never
    meets from such a start, is raised first.  From such a start no update
    is made and no further residual evaluated.  A non-finite value inside
    the sweep raises :class:`NonFiniteIterate` saying after how many chord
    updates.
    """
    cfg = SolverConfig(m=m)
    x = _checked(problem, "x", x, (problem.dim,))
    rhs, cause = _residual(problem, x, 0)
    if cause is not None:
        if rhs is not None:
            # J(x) alone: no update from a start solve rejects; a fresh copy,
            # as this path skips _outer_step's ownership test
            lu_factor(np.array(evaluate_jacobian(problem, x), order="F"))
        raise cause
    x_new, rhs_new, steps, cause = _outer_step(problem, x, rhs, cfg)
    if isinstance(cause, NonFiniteIterate):
        raise NonFiniteIterate(f"non-finite iterate after {steps} chord update(s)")
    if cause is not None:
        raise cause
    return x_new, norm2(rhs_new), steps


def newton_solve(problem: Problem, config: SolverConfig | None = None) -> SolveTrace:
    """:func:`solve` with the update count pinned to one per factorization."""
    cfg = config if config is not None else SolverConfig()
    return solve(problem, replace(cfg, m=1))
