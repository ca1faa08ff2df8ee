"""The iterate is checked once, where it enters the package.

``solve`` and ``outer_step`` check the shape of the point they are given
before any evaluation.  From then on the chord loop hands its own iterates,
float64 arrays of shape ``(dim,)``, straight to the problem's callables and
checks only what those return.  These tests pin both halves of that contract.
"""
import dataclasses
import math

import numpy as np
import pytest

import shamanskii.solver as solver_mod
from shamanskii.linalg import DimensionMismatch
from shamanskii.problems import (
    Problem,
    evaluate_f,
    evaluate_jacobian,
    fd_jacobian,
    registry_get,
)
from shamanskii.solver import SolverConfig, outer_step, solve

WRONG_START = r"^problem 'plane': x has shape \(3,\), expected \(2,\)$"


def recording(problem, start=None):
    """A copy of ``problem`` whose callables append every ``x`` they get to a
    list, returned alongside it."""
    seen = []

    def residual(x):
        seen.append(x)
        return problem.residual(x)

    def jacobian(x):
        seen.append(x)
        return problem.jacobian(x)

    start = problem.start if start is None else start
    return dataclasses.replace(problem, residual=residual, jacobian=jacobian, start=start), seen


def plane():
    # F(x) = x - 1, so J = I
    return Problem("plane", 2, lambda x: x - 1.0, lambda x: np.eye(2), np.array([0.5, 0.5]))


class TestStartCheckedFirst:
    def test_solve_checks_the_start_before_any_evaluation(self):
        p, seen = recording(plane(), start=np.zeros(3))
        with pytest.raises(DimensionMismatch, match=WRONG_START):
            solve(p)
        assert seen == []

    def test_outer_step_checks_its_x_before_any_evaluation(self):
        p, seen = recording(plane())
        with pytest.raises(DimensionMismatch, match=WRONG_START):
            outer_step(p, np.zeros(3), 1)
        with pytest.raises(DimensionMismatch, match=WRONG_START):
            outer_step(p, [0.0, 0.0, 0.0], 1)
        assert seen == []

    @pytest.mark.parametrize("evaluate", [evaluate_f, evaluate_jacobian, fd_jacobian])
    def test_public_evaluators_still_check_x(self, evaluate):
        p, seen = recording(plane())
        with pytest.raises(DimensionMismatch, match=WRONG_START):
            evaluate(p, np.zeros(3))
        assert seen == []


def _read_only(values):
    a = np.array(values, dtype=np.float64)
    a.setflags(write=False)
    return a


START_FORMS = {
    "list": lambda values: [float(v) for v in values],
    "int": lambda values: np.array(values).astype(np.int64),
    "float32": lambda values: np.array(values, dtype=np.float32),
    "read-only": _read_only,
}


def _assert_float64_vectors(seen, dim):
    assert seen, "nothing was recorded"
    for x in seen:
        assert type(x) is np.ndarray
        assert x.dtype == np.float64
        assert x.shape == (dim,)


class TestCallablesGetFloat64Vectors:
    """Every ``x`` a callable receives, and every residual the chord loop takes
    the norm of, is a float64 ndarray of shape ``(dim,)``, whatever form the
    start point came in: the invariant that lets the loop skip re-checking
    them."""

    @pytest.mark.parametrize("early_exit", [False, True])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("form", sorted(START_FORMS))
    @pytest.mark.parametrize("name", ["a", "b", "c", "e"])
    def test_solve(self, name, form, m, early_exit, monkeypatch):
        base = registry_get(name)
        start = START_FORMS[form](base.start)
        p, seen = recording(base, start=start)
        normed = []
        norm2 = solver_mod.norm2
        monkeypatch.setattr(solver_mod, "norm2", lambda v: normed.append(v) or norm2(v))
        before = np.array(start, dtype=np.float64)
        cfg = SolverConfig(m=m, inner_early_exit=early_exit, record_inner=True)
        trace = solve(p, cfg)
        _assert_float64_vectors(seen, base.dim)
        # no norm is taken when F leaves its domain at the start point
        if not math.isnan(trace.residual_norms[0]):
            _assert_float64_vectors(normed, base.dim)
        # the run's start point is its own copy, never the problem's
        x0 = trace.outer_iterates[0]
        assert x0 is not p.start
        assert not np.shares_memory(x0, np.asarray(p.start))
        x0[...] = 99.0
        assert np.array_equal(np.asarray(p.start, dtype=np.float64), before)

    @pytest.mark.parametrize("form", sorted(START_FORMS))
    def test_outer_step(self, form):
        base = registry_get("b")
        p, seen = recording(base)
        outer_step(p, START_FORMS[form](base.start), 3)
        _assert_float64_vectors(seen, base.dim)
