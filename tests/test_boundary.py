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

import shamanskii.problems as problems_mod
import shamanskii.solver as solver_mod
from shamanskii.linalg import DimensionMismatch, LUFactors, lu_factor, lu_solve, norm2
from shamanskii.problems import (
    DomainViolation,
    Problem,
    evaluate_f,
    evaluate_jacobian,
    fd_jacobian,
    registry_get,
)
from shamanskii.solver import SolverConfig, SolveStatus, outer_step, solve

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


# the refusals numpy makes while reading a value as float64: each raises the
# type numpy raised, with the argument's name, then numpy's own message
_RAGGED, _STRINGS, _STRINGS_2X2 = [[1.0], [2.0, 3.0]], np.array(["a", "b"]), [["a", "b"]] * 2
UNREADABLE_INPUTS = {
    "solve_residual_ragged": (
        lambda: solve(dataclasses.replace(plane(), residual=lambda x: _RAGGED)),
        _RAGGED, ValueError, "problem 'plane': residual(x)",
    ),
    "solve_residual_strings": (
        lambda: solve(dataclasses.replace(plane(), residual=lambda x: _STRINGS)),
        _STRINGS, ValueError, "problem 'plane': residual(x)",
    ),
    "solve_start_strings": (
        lambda: solve(dataclasses.replace(plane(), start=_STRINGS)),
        _STRINGS, ValueError, "problem 'plane': x",
    ),
    "solve_jacobian_strings": (
        lambda: solve(dataclasses.replace(plane(), jacobian=lambda x: _STRINGS_2X2)),
        _STRINGS_2X2, ValueError, "problem 'plane': jacobian(x)",
    ),
    "norm2_ragged": (lambda: norm2(_RAGGED), _RAGGED, ValueError, "v"),
    "lu_factor_strings": (lambda: lu_factor(_STRINGS_2X2), _STRINGS_2X2, ValueError, "matrix"),
    "lu_solve_b_strings": (
        lambda: lu_solve(lu_factor(np.eye(2)), _STRINGS), _STRINGS, ValueError, "right-hand side",
    ),
    "lu_solve_lu_strings": (
        lambda: lu_solve(LUFactors(np.array(_STRINGS_2X2), np.arange(2, dtype=np.int32), 2),
                         np.ones(2)),
        _STRINGS_2X2, ValueError, "factors.lu",
    ),
    "norm2_dict": (lambda: norm2([{}]), [{}], TypeError, "v"),
    "norm2_big_int": (lambda: norm2([10**400]), [10**400], OverflowError, "v"),
    "lu_factor_big_int": (
        lambda: lu_factor([[10**400, 1], [1, 1]]), [[10**400, 1], [1, 1]], OverflowError, "matrix",
    ),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_INPUTS))
def test_a_value_numpy_cannot_read_as_float64_is_refused_by_name(case):
    call, value, kind, name = UNREADABLE_INPUTS[case]
    with pytest.raises(kind) as numpy_error:
        np.asarray(np.asarray(value), dtype=np.float64)
    with pytest.raises(kind) as error:
        call()
    assert type(error.value) is kind
    assert str(error.value) == f"{name} cannot be read as float64: {numpy_error.value}"


class Withheld:
    """A value whose conversion raises the problem's DomainViolation."""

    def __array__(self, dtype=None, copy=None):
        raise DomainViolation("plane", 0, "is withheld")


class Unfloatable:
    """An entry whose float() raises a ValueError subclass with its own constructor."""

    def __float__(self):
        raise DomainViolation("plane", 1, "has no float")


def test_a_subclass_raised_by_the_value_itself_keeps_its_type():
    # the solver records the problem's DomainViolation as a status, as when
    # the residual itself raises it
    trace = solve(dataclasses.replace(plane(), residual=lambda x: Withheld()))
    assert trace.status is SolveStatus.DOMAIN_VIOLATION
    assert (trace.cause.problem_name, trace.cause.index) == ("plane", 0)
    assert str(trace.cause) == ("problem 'plane': residual(x) cannot be read as float64: "
                                "problem 'plane': x[0] is withheld")
    for call, name in ((lambda: norm2([Unfloatable()]), "v"),
                       (lambda: lu_factor([[Unfloatable()]]), "matrix")):
        with pytest.raises(DomainViolation,
                           match=rf"^{name} cannot be read as float64: problem 'plane': x\[1\]"):
            call()


class Tagged(np.ndarray):
    """An ndarray subclass, which _checked hands on as a base-class array."""


RETURN_FORMS = {
    "list": lambda a: a.tolist(),
    "int64": lambda a: a.astype(np.int64),
    "float32": lambda a: a.astype(np.float32),
    "big_endian": lambda a: a.astype(">f8"),
    "subclass": lambda a: a.view(Tagged),
}


@pytest.mark.parametrize("at", ["f", "jacobian"])
class TestCheckedReturns:
    """What _f_at and _jacobian_at hand the solver for each kind of return."""

    VALUES = {"f": np.array([1.0, -2.0]), "jacobian": np.array([[2.0, 1.0], [-1.0, 3.0]])}

    def evaluate(self, at, returned):
        p = dataclasses.replace(plane(), residual=lambda x: returned, jacobian=lambda x: returned)
        evaluate = problems_mod._f_at if at == "f" else problems_mod._jacobian_at
        return evaluate(p, np.zeros(2))

    def test_a_float64_ndarray_comes_back_as_the_same_object(self, at):
        returned = self.VALUES[at].copy()
        assert self.evaluate(at, returned) is returned

    @pytest.mark.parametrize("form", sorted(RETURN_FORMS))
    def test_any_other_form_comes_back_as_a_float64_ndarray(self, at, form):
        returned = RETURN_FORMS[form](self.VALUES[at])
        out = self.evaluate(at, returned)
        assert type(out) is np.ndarray and out.dtype is np.dtype(np.float64)
        assert out.tobytes() == self.VALUES[at].tobytes()
