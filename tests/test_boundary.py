"""The iterate is checked once, where it enters the package.

``solve`` and ``outer_step`` check the shape of the point they are given
before any evaluation.  From then on the chord loop hands its own iterates,
float64 arrays of shape ``(dim,)``, straight to the problem's callables and
checks only what those return.  These tests pin both halves of that contract.
"""
import dataclasses
import math
import warnings

import numpy as np
import pytest

import shamanskii.solver as solver_mod
from shamanskii.linalg import DimensionMismatch, LUFactors, lu_factor, lu_solve, norm2
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


def complex_plane():
    # F(x) = [x0 - 1 + 0.5j, x1 - 2], J = I: a float64 cast would drop the
    # 0.5j and report a root at [1, 2], where |F| = 0.5
    return Problem("cx", 2, lambda x: np.array([x[0] - 1.0 + 0.5j, x[1] - 2.0]),
                   lambda x: np.eye(2), np.zeros(2))


COMPLEX_INPUTS = {
    "solve_residual": (lambda: solve(complex_plane()), r"problem 'cx': residual\(x\)"),
    "solve_jacobian": (
        lambda: solve(dataclasses.replace(plane(), jacobian=lambda x: np.eye(2) + 0j)),
        r"problem 'plane': jacobian\(x\)",
    ),
    "solve_start": (
        lambda: solve(dataclasses.replace(plane(), start=np.array([0.5 + 1j, 0.5]))),
        r"problem 'plane': x",
    ),
    "outer_step_x": (lambda: outer_step(plane(), np.array([0.5, 0.5j]), 1), r"problem 'plane': x"),
    "evaluate_f": (lambda: evaluate_f(complex_plane(), np.zeros(2)),
                   r"problem 'cx': residual\(x\)"),
    "evaluate_jacobian_x": (lambda: evaluate_jacobian(plane(), np.zeros(2, np.complex64)),
                            r"problem 'plane': x"),
    "fd_jacobian_x": (lambda: fd_jacobian(plane(), [1j, 0.0]), r"problem 'plane': x"),
    "lu_factor_n2": (lambda: lu_factor(np.eye(2) * (1 + 1j)), "matrix"),
    "lu_factor_n5": (lambda: lu_factor(np.eye(5) * (1 + 1j)), "matrix"),
    "lu_solve_b": (lambda: lu_solve(lu_factor(np.eye(2)), [1.0 + 1j, 2.0]), "right-hand side"),
    "lu_solve_lu_n2": (
        lambda: lu_solve(LUFactors(np.eye(2) * (1 + 1j), np.arange(2, dtype=np.int32), 2),
                         np.ones(2)),
        r"factors\.lu",
    ),
    "lu_solve_lu_n5": (
        lambda: lu_solve(LUFactors(np.eye(5) * (1 + 1j), np.arange(5, dtype=np.int32), 5),
                         np.ones(5)),
        r"factors\.lu",
    ),
    "norm2": (lambda: norm2(np.array([3.0 + 4j, 0.0])), "v"),
}


class TestComplexValuesRejected:
    """A complex value raises TypeError where it enters the package, before
    any cast, instead of losing its imaginary part to a float64 cast."""

    @pytest.mark.parametrize("case", sorted(COMPLEX_INPUTS))
    def test_raises_type_error(self, case):
        call, name = COMPLEX_INPUTS[case]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TypeError, match=rf"^{name} has complex dtype complex(64|128), "
                                                r"expected real values$"):
                call()

    @pytest.mark.parametrize(
        "value",
        [
            [True, False],
            [1, -2],
            np.array([3, 4], dtype=np.int8),
            np.array([0.5, 2], dtype=object),
            np.array([0.1, 0.2], dtype=np.float32),
            np.array([0.1, 0.2], dtype=">f8"),
        ],
        ids=["bool", "int", "int8", "object", "float32", "big_endian"],
    )
    def test_real_returns_keep_their_float64_cast(self, value):
        p = dataclasses.replace(plane(), residual=lambda x: value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = evaluate_f(p, np.zeros(2))
        assert out.dtype == np.float64
        assert out.tobytes() == np.asarray(value, dtype=np.float64).tobytes()
