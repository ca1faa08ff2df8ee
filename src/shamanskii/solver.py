"""Frozen-Jacobian Newton iteration (Shamanskii's m-method).

Each outer iteration factors the Jacobian once and then applies ``m`` chord
updates that reuse the frozen factors, so the O(n^3) factorization cost is
paid once per outer step while the local convergence order climbs to
``m + 1``.  With ``m = 1`` this is plain Newton; as ``m`` grows the inner
sweep turns into the classic chord method.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from enum import Enum
from numbers import Integral

import numpy as np

from .linalg import (
    EPS,
    NonFiniteInput,
    SingularMatrix,
    lu_factor,
    lu_solve,
    norm2,
)
from .problems import DomainViolation, Problem, evaluate_f, evaluate_jacobian

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


def _is_positive_int(value) -> bool:
    # bool is an Integral too, but SolverConfig(m=True) is a caller's mistake
    return isinstance(value, Integral) and not isinstance(value, bool) and value >= 1


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters.

    ``m`` is the number of chord updates per factorization.  ``max_total``
    caps the total update count and defaults to ``m * max_outer``; a sweep is
    only started when all ``m`` of its updates fit the budget, so completed
    runs always satisfy ``it_tot == m * it_inv`` unless ``inner_early_exit``
    is set.  ``inner_early_exit`` checks the residual after every inner update
    and stops the sweep as soon as the tolerance is met; by default
    convergence is tested only at the outer level.
    """

    m: int = 1
    tol: float = TOL_DEFAULT
    max_outer: int = 100
    inner_early_exit: bool = False
    max_total: int | None = None
    record_inner: bool = False

    def __post_init__(self):
        if not _is_positive_int(self.m):
            raise ValueError("m must be a positive integer")
        if isinstance(self.tol, bool) or not 0.0 < self.tol < math.inf:
            raise ValueError("tol must be a finite positive number")
        if not _is_positive_int(self.max_outer):
            raise ValueError("max_outer must be a positive integer")
        if self.max_total is not None and not _is_positive_int(self.max_total):
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
    in ``status`` with the partial history preserved; ``cause`` holds the
    exception behind a singular Jacobian, a domain exit, a non-finite
    Jacobian, or a :class:`NonFiniteIterate` saying which value went
    non-finite and where, without its traceback.
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


def _finite(x: np.ndarray, rhs: np.ndarray) -> bool:
    # A NaN or Inf entry makes the dot product NaN or Inf (Inf * 0 is NaN), so
    # a finite one settles it; overflow alone sends it to the entrywise test.
    return math.isfinite(np.dot(x, rhs)) or bool(np.isfinite(x).all() and np.isfinite(rhs).all())


def _outer_step(problem, x, rhs, cfg: SolverConfig, inner_record=None):
    """Factor J(x), then run up to ``cfg.m`` updates ``x <- x - solve(J, F(x))``.

    ``rhs`` must equal F(x) on entry.  Returns ``(x, rhs, steps, status,
    cause)`` and never raises on a numerical failure.  ``steps`` is None when
    the factorization failed, else the number of updates made; ``x``/``rhs``
    hold the last state whose residual evaluation returned.  ``status`` is
    None unless the step failed; ``cause`` is the exception behind it, if any,
    stripped of its traceback so that no frame outlives the call.
    """
    try:
        factors = lu_factor(evaluate_jacobian(problem, x))
    except SingularMatrix as exc:
        return x, rhs, None, SolveStatus.SINGULAR_JACOBIAN, exc.with_traceback(None)
    except DomainViolation as exc:
        return x, rhs, None, SolveStatus.DOMAIN_VIOLATION, exc.with_traceback(None)
    except NonFiniteInput as exc:
        return x, rhs, None, SolveStatus.NON_FINITE_ITERATE, exc.with_traceback(None)
    steps = 0
    for _ in range(cfg.m):
        x_next = x - lu_solve(factors, rhs)
        try:
            rhs_next = evaluate_f(problem, x_next)
        except DomainViolation as exc:
            return x, rhs, steps, SolveStatus.DOMAIN_VIOLATION, exc.with_traceback(None)
        steps += 1
        x, rhs = x_next, rhs_next
        if inner_record is not None:
            inner_record.append(x)
        if not _finite(x, rhs):
            what = "residual" if np.isfinite(x).all() else "update"
            cause = NonFiniteIterate(f"non-finite {what} at chord step {steps}")
            return x, rhs, steps, SolveStatus.NON_FINITE_ITERATE, cause
        if cfg.inner_early_exit and norm2(rhs) <= cfg.tol:
            break
    return x, rhs, steps, None, None


# A run records non-finite values in its status and cause; numpy's warnings
# about them would only reach the caller's stderr.  One shared instance is
# safe as a decorator since numpy 2.0: each call sets and resets its own
# context-local state, so threads do not restore each other's settings.
_NO_FP_WARNINGS = np.errstate(over="ignore", invalid="ignore", divide="ignore")


@_NO_FP_WARNINGS
def solve(problem: Problem, config: SolverConfig | None = None) -> SolveTrace:
    """Drive the frozen-Jacobian iteration from the problem's start point.

    Loop until the residual norm drops to ``config.tol``: factor the Jacobian
    at the current outer iterate, run ``config.m`` chord updates reusing the
    factors (each followed by a residual evaluation), then record the new
    outer iterate and its residual norm.  Every numerical failure (singular
    Jacobian, domain exit, non-finite values, iteration caps) terminates the
    loop with the corresponding :class:`SolveStatus`; the partial trace is
    always returned, never thrown away.  A start point of the wrong length, or
    a residual or Jacobian that returns the wrong shape, is a programmer error
    and raises :class:`DimensionMismatch` naming the problem, ``x`` or the
    callable, and both shapes.
    """
    cfg = config if config is not None else SolverConfig()
    x = np.array(problem.start, dtype=np.float64)
    outer = [x]
    inner: list[np.ndarray] | None = [] if cfg.record_inner else None
    it_inv = it_tot = 0

    status = cause = None
    try:
        rhs = evaluate_f(problem, x)
    except DomainViolation as exc:
        res, status, cause = float("nan"), SolveStatus.DOMAIN_VIOLATION, exc.with_traceback(None)
    else:
        res = norm2(rhs)
        if not _finite(x, rhs):
            what = "residual at the start point" if np.isfinite(x).all() else "start point"
            status, cause = SolveStatus.NON_FINITE_ITERATE, NonFiniteIterate(f"non-finite {what}")
    norms = [res]

    while status is None and res > cfg.tol:
        if it_inv >= cfg.max_outer or it_tot + cfg.m > cfg.total_cap:
            status = SolveStatus.MAX_ITERATIONS
            break
        x, rhs, steps, status, cause = _outer_step(problem, x, rhs, cfg, inner)
        if steps is None:
            break
        it_inv += 1
        it_tot += steps
        res = norm2(rhs)
        outer.append(x)
        norms.append(res)

    return SolveTrace(
        outer, norms, it_inv, it_tot, status or SolveStatus.CONVERGED, inner, cause
    )


@_NO_FP_WARNINGS
def outer_step(problem: Problem, x, m: int) -> tuple[np.ndarray, float, int]:
    """One factorization followed by an ``m``-step chord sweep from ``x``.

    Returns ``(new_x, residual_norm, inner_steps)``.  This is exactly one
    outer iteration of :func:`solve`, exposed so the sweep can be exercised
    in isolation; failures surface as exceptions here instead of trace
    statuses.
    """
    cfg = SolverConfig(m=m)
    x_new, rhs_new, steps, _, cause = _outer_step(problem, x, evaluate_f(problem, x), cfg)
    if isinstance(cause, NonFiniteIterate):
        raise NonFiniteIterate(f"non-finite iterate after {steps} chord update(s)")
    if cause is not None:
        raise cause
    return x_new, norm2(rhs_new), steps


def newton_solve(problem: Problem, config: SolverConfig | None = None) -> SolveTrace:
    """:func:`solve` with the update count pinned to one per factorization."""
    cfg = config if config is not None else SolverConfig()
    return solve(problem, dataclasses.replace(cfg, m=1))
