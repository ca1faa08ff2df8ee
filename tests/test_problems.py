import copy
import dataclasses
import itertools
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import shamanskii.cli as cli_mod
from shamanskii.linalg import DimensionMismatch
from shamanskii.problems import (
    DomainViolation,
    Problem,
    UnknownProblem,
    _cyclic_index,
    check_jacobian,
    evaluate_f,
    evaluate_jacobian,
    fd_jacobian,
    registry_get,
    registry_names,
)
from shamanskii.solver import SolverConfig, SolveStatus, newton_solve, solve

# Roots of (a) and (c) have no closed form here; these were pinned from a
# converged run and act as regression fixtures.
ROOT_A = np.array([1.0430857584067033, 0.29354985405107353])
ROOT_C = np.array([0.7530891649796748, 0.7530891649796748, 1.4572405053860489])


def linear_problem(a):
    a = np.asarray(a, dtype=float)
    return Problem(
        name="lin",
        dim=a.shape[0],
        residual=lambda x: a @ x,
        jacobian=lambda x: a.copy(),
        start=np.zeros(a.shape[0]),
    )


def nan_at_calls(problem, bad_calls):
    """``problem`` whose Jacobian has a NaN at entry (1, 0) on the given 1-based calls."""
    calls = itertools.count(1)

    def jacobian(x):
        jac = np.array(problem.jacobian(x))
        if next(calls) in bad_calls:
            jac[1, 0] = np.nan
        return jac

    return dataclasses.replace(problem, jacobian=jacobian)


def counted(problem):
    """``problem`` whose residual and Jacobian calls land in the returned list."""
    calls = []

    def residual(x):
        calls.append("residual")
        return problem.residual(x)

    def jacobian(x):
        calls.append("jacobian")
        return problem.jacobian(x)

    return dataclasses.replace(problem, residual=residual, jacobian=jacobian), calls


BAD_STEPS = [np.nan, 0.0, -1e-6, np.inf, True, "1e-6"]


class TestRegistry:
    def test_names(self):
        assert registry_names() == ["a", "b", "c", "d", "e"]

    @pytest.mark.parametrize(
        "name,dim,start",
        [
            ("a", 2, [1.0, 0.1]),
            ("b", 2, [1.0, 1.0]),
            ("c", 3, [1.0, 1.0, 2.0]),
            ("d", 31, [-2.0] * 31),
            ("e", 2, [2.0, 0.5]),
        ],
    )
    def test_dimensions_and_starts(self, name, dim, start):
        p = registry_get(name)
        assert p.dim == dim
        assert np.array_equal(p.start, start)

    def test_unknown_name(self):
        with pytest.raises(UnknownProblem):
            registry_get("z")

    def test_start_is_read_only(self):
        with pytest.raises(ValueError):
            registry_get("b").start[0] = 7.0


class TestResiduals:
    def test_b_at_start(self):
        assert np.array_equal(evaluate_f(registry_get("b"), [1.0, 1.0]), [1.0, 0.5])

    def test_e_at_root(self):
        assert np.array_equal(evaluate_f(registry_get("e"), [1.0, 1.0]), [0.0, 0.0])

    def test_d_at_negative_ones(self):
        x = -np.ones(31)
        assert np.array_equal(evaluate_f(registry_get("d"), x), np.zeros(31))

    @pytest.mark.parametrize("n", [2, 3, 31, 301])
    def test_d_has_the_bytes_of_the_rolled_product(self, n):
        residual = registry_get("d").residual
        rng = np.random.default_rng(n)
        for scale in (1.0, 1e-160, 1e150):
            x = scale * rng.uniform(-10.0, 10.0, n)
            assert residual(x).tobytes() == (x * np.roll(x, -1) - 1.0).tobytes()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            evaluate_f(registry_get("b"), [1.0, 2.0, 3.0])

    def test_deterministic(self):
        p = registry_get("c")
        x = [1.1, 0.9, 2.2]
        assert np.array_equal(evaluate_f(p, x), evaluate_f(p, x))
        assert np.array_equal(evaluate_jacobian(p, x), evaluate_jacobian(p, x))


# -0.0, subnormals, the smallest normal, Inf and NaN among any floats
D_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, np.inf, -np.inf, np.nan]),
    st.floats(),
)


def scattered_jacobian_d(x):
    """d's Jacobian by fancy-index scatters into a zero matrix; at n = 1,
    F = x0 * x0 - 1, so its one entry is x0 + x0."""
    n = x.shape[0]
    if n == 1:
        with np.errstate(over="ignore"):
            return np.array([[x[0] + x[0]]])
    rows = np.arange(n)
    cols = (rows + 1) % n
    jac = np.zeros((n, n), order="F")
    jac[rows, rows] = x[cols]
    jac[rows, cols] = x
    return jac


class TestJacobians:
    def test_b_at_start(self):
        expected = [[2.0, 2.0], [2.0, -2.0]]
        assert np.array_equal(evaluate_jacobian(registry_get("b"), [1.0, 1.0]), expected)

    def test_a_at_origin(self):
        expected = [[0.0, -4.0], [2.0, 0.0]]
        assert np.array_equal(evaluate_jacobian(registry_get("a"), [0.0, 0.0]), expected)

    def test_e_at_root(self):
        expected = [[2.0, 2.0], [1.0, 2.0]]
        assert np.array_equal(evaluate_jacobian(registry_get("e"), [1.0, 1.0]), expected)

    def test_d_cyclic_pattern(self):
        p = registry_get("d")
        x = np.arange(1.0, 32.0)
        jac = evaluate_jacobian(p, x)
        for i in range(30):
            assert jac[i, i] == x[i + 1]
            assert jac[i, i + 1] == x[i]
        assert jac[30, 30] == x[0]
        assert jac[30, 0] == x[30]
        assert np.count_nonzero(jac) == 62

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([1, 2, 3, 4, 5, 31, 301]).flatmap(
            lambda n: arrays(np.float64, n, elements=D_ENTRIES)
        )
    )
    def test_d_has_the_bytes_of_the_scattered_formula(self, x):
        jac = registry_get("d").jacobian(x)
        assert jac.tobytes() == scattered_jacobian_d(x).tobytes()
        # the solver factors such an array in place (see Problem)
        assert jac.flags.f_contiguous and jac.flags.owndata and jac.flags.writeable


# The callables of a, b, c and e as first written, indexing x at every use and
# computing a repeated term at each appearance: the oracle for the bytes and
# the exceptions of the ones in problems.py.
def reference_residual_a(x):
    return np.array([x[0] ** 2 - 4.0 * x[1] + x[1] ** 2, 2.0 * x[0] - x[1] ** 2 - 2.0])


def reference_jacobian_a(x):
    return np.array([[2.0 * x[0], -4.0 + 2.0 * x[1]], [2.0, -2.0 * x[1]]])


def reference_residual_b(x):
    return np.array([x[0] ** 2 + x[1] ** 2 - 1.0, x[0] ** 2 - x[1] ** 2 + 0.5])


def reference_jacobian_b(x):
    return np.array([[2.0 * x[0], 2.0 * x[1]], [2.0 * x[0], -2.0 * x[1]]])


def reference_check_domain_c(x):
    if x[1] == 0.0:
        raise DomainViolation("c", 1, "must be nonzero (reciprocal term)")
    if x[2] <= 0.0:
        raise DomainViolation("c", 2, "must be positive (base of a real power)")


def reference_residual_c(x):
    reference_check_domain_c(x)
    return np.array(
        [
            np.cos(x[1]) - np.cos(x[0]),
            x[2] ** x[0] - 1.0 / x[1],
            np.exp(x[0]) - x[2] ** 2,
        ]
    )


def reference_jacobian_c(x):
    reference_check_domain_c(x)
    return np.array(
        [
            [np.sin(x[0]), -np.sin(x[1]), 0.0],
            [x[2] ** x[0] * np.log(x[2]), 1.0 / x[1] ** 2, x[0] * x[2] ** (x[0] - 1.0)],
            [np.exp(x[0]), 0.0, -2.0 * x[2]],
        ]
    )


def reference_residual_e(x):
    return np.array([x[0] ** 2 + x[1] ** 2 - 2.0, np.exp(x[0] - 1.0) + x[1] ** 2 - 2.0])


def reference_jacobian_e(x):
    return np.array([[2.0 * x[0], 2.0 * x[1]], [np.exp(x[0] - 1.0), 2.0 * x[1]]])


REFERENCE_CALLABLES = {
    "a": (reference_residual_a, reference_jacobian_a),
    "b": (reference_residual_b, reference_jacobian_b),
    "c": (reference_residual_c, reference_jacobian_c),
    "e": (reference_residual_e, reference_jacobian_e),
}

# numpy's scalar x ** 2 and x * x differ in the last bit here
SQUARE_NOT_PRODUCT = -458.7228991098864

# moderate values as well as d's specials and any float up to the largest
SMALL_ENTRIES = st.one_of(st.floats(-1e3, 1e3), D_ENTRIES)


def evaluation(function, x):
    """What ``function(x)`` gives: the array's dtype, shape, layout and bytes,
    or the type and fields of what it raised."""
    try:
        out = function(x)
    except DomainViolation as exc:
        return DomainViolation, exc.problem_name, exc.index, exc.description
    except FloatingPointError as exc:
        return FloatingPointError, exc.args
    return out.dtype, out.shape, out.flags.c_contiguous, out.tobytes()


class TestSmallSystemsKeepTheirBytes:
    @settings(max_examples=400, deadline=None)
    @given(
        st.sampled_from("abce").flatmap(
            lambda name: st.tuples(
                st.just(name), arrays(np.float64, registry_get(name).dim, elements=SMALL_ENTRIES)
            )
        )
    )
    @example(("a", np.array([1.0, SQUARE_NOT_PRODUCT])))
    @example(("b", np.array([SQUARE_NOT_PRODUCT, 1.0])))
    @example(("b", np.array([1.0, SQUARE_NOT_PRODUCT])))
    @example(("c", np.array([1.0, SQUARE_NOT_PRODUCT, -SQUARE_NOT_PRODUCT])))
    @example(("e", np.array([SQUARE_NOT_PRODUCT, 1.0])))
    @example(("e", np.array([1.0, SQUARE_NOT_PRODUCT])))
    # a first overflow in 4.0 * x1 or 2.0 * x1, and in x0 ** 2 ahead of an
    # underflow in x1 ** 2
    @example(("a", np.array([1.0, 1e308])))
    @example(("e", np.array([1.0, 1e308])))
    @example(("e", np.array([1e300, 1e-300])))
    @example(("c", np.array([1.0, 0.0, -1.0])))
    @example(("c", np.array([1.0, -0.0, 2.0])))
    @example(("c", np.array([1.0, 1.0, 0.0])))
    @example(("c", np.array([1.0, 1.0, -0.0])))
    @example(("c", np.array([np.nan, np.nan, np.nan])))
    def test_same_output_and_exceptions_as_the_reference(self, case):
        name, x = case
        problem = registry_get(name)
        reference = REFERENCE_CALLABLES[name]
        # "raise" as well: each operation is made in the reference's order, so
        # the first one to overflow, underflow or go invalid is the same
        for policy in ("ignore", "raise"):
            with np.errstate(all=policy):
                for ours, theirs in zip((problem.residual, problem.jacobian), reference):
                    assert evaluation(ours, x) == evaluation(theirs, x), (policy, ours.__name__)


def rolled_residual_d(x):
    """d's residual as documented: the oracle for its bytes and exceptions."""
    return x * np.roll(x, -1) - 1.0


def cyclic_problem(n, start=-2.0):
    """Problem d at size ``n``, started at ``start`` in every coordinate."""
    return dataclasses.replace(registry_get("d"), dim=n, start=np.full(n, start))


CYCLIC_SIZES = [1, 2, 3, 4, 5, 31, 301]


class TestCyclicSystemAtAnySize:
    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(CYCLIC_SIZES).flatmap(lambda n: arrays(np.float64, n, elements=D_ENTRIES))
    )
    # the wrap-around product alone overflows: the same multiply must raise
    @example(np.array([1e200, 1e-200, 1e200]))
    def test_residual_matches_the_rolled_product(self, x):
        residual = registry_get("d").residual
        for policy in ("ignore", "raise"):
            with np.errstate(all=policy):
                assert evaluation(residual, x) == evaluation(rolled_residual_d, x), policy

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_jacobian_matches_central_differences(self, n):
        result = check_jacobian(cyclic_problem(n))
        assert result.max_rel_error < cli_mod.JACOBIAN_RTOL
        assert (result.points_checked, result.points_skipped) == (11, 0)

    def test_single_equation_converges(self):
        # F = x0 * x0 - 1 from 3: Newton's steps need J = 2 * x0
        trace = solve(cyclic_problem(1, start=3.0), SolverConfig(m=1))
        assert trace.status is SolveStatus.CONVERGED
        assert abs(trace.x[0] - 1.0) <= 1e-15

    def test_cached_index_is_read_only(self):
        for array in _cyclic_index(5):
            with pytest.raises(ValueError):
                array[0] = 0

    def test_cache_stays_bounded(self):
        d = registry_get("d")
        for n in range(1, 201):
            x = np.full(n, -1.0)
            d.residual(x)
            d.jacobian(x)
        info = _cyclic_index.cache_info()
        assert info.maxsize is not None
        assert info.currsize <= info.maxsize

    def test_threads_give_the_serial_bytes(self):
        d = registry_get("d")
        points = [np.random.default_rng(n).uniform(-3.0, 3.0, n) for n in CYCLIC_SIZES]
        expected = [(d.residual(x).tobytes(), d.jacobian(x).tobytes()) for x in points]
        _cyclic_index.cache_clear()  # the threads race to fill it
        barrier = threading.Barrier(4, timeout=60)
        mismatches = []

        def work(offset):
            barrier.wait()
            for k in range(50 * len(points)):
                i = (offset + k) % len(points)
                got = (d.residual(points[i]).tobytes(), d.jacobian(points[i]).tobytes())
                if got != expected[i]:
                    mismatches.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not mismatches


class TestDomain:
    def test_c_zero_second_coordinate(self):
        with pytest.raises(DomainViolation) as exc:
            evaluate_f(registry_get("c"), [1.0, 0.0, 2.0])
        assert exc.value.index == 1
        assert exc.value.problem_name == "c"

    @pytest.mark.parametrize("x3", [0.0, -1.0])
    def test_c_nonpositive_power_base(self, x3):
        with pytest.raises(DomainViolation) as exc:
            evaluate_jacobian(registry_get("c"), [1.0, 1.0, x3])
        assert exc.value.index == 2

    @pytest.mark.parametrize(
        "copier", [copy.copy, copy.deepcopy, lambda e: pickle.loads(pickle.dumps(e))]
    )
    def test_copies_keep_every_field(self, copier):
        exc = DomainViolation("c", 1, "must be nonzero (reciprocal term)")
        dup = copier(exc)
        assert type(dup) is DomainViolation
        assert (dup.problem_name, dup.index, dup.description) == ("c", 1, exc.description)
        assert str(dup) == str(exc)


class TestFdJacobian:
    def test_exact_on_linear_map(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        approx = fd_jacobian(linear_problem(a), [0.3, -0.7], h=1e-5)
        assert np.abs(approx - a).max() < 1e-9

    def test_matches_analytic_b(self):
        p = registry_get("b")
        diff = fd_jacobian(p, [1.0, 1.0], h=1e-6) - evaluate_jacobian(p, [1.0, 1.0])
        assert np.abs(diff).max() < 1e-7

    def test_matches_analytic_c(self):
        p = registry_get("c")
        x = [1.0, 1.0, 2.0]
        diff = fd_jacobian(p, x, h=1e-6) - evaluate_jacobian(p, x)
        assert np.abs(diff).max() < 1e-6

    def test_perturbation_can_exit_domain(self):
        with pytest.raises(DomainViolation):
            fd_jacobian(registry_get("c"), [1.0, 1.0, 1e-8], h=1e-6)

    def test_residual_may_return_a_list(self):
        p = registry_get("c")
        listed = dataclasses.replace(p, residual=lambda x: p.residual(x).tolist())
        assert fd_jacobian(listed, p.start).tobytes() == fd_jacobian(p, p.start).tobytes()
        assert check_jacobian(listed) == check_jacobian(p)

    def test_wrong_residual_shape_raises(self):
        p = dataclasses.replace(registry_get("b"), residual=lambda x: np.zeros(3))
        with pytest.raises(DimensionMismatch, match=r"residual\(x\) has shape \(3,\)"):
            fd_jacobian(p, p.start)

    @pytest.mark.parametrize("h", BAD_STEPS)
    def test_bad_step_raises_before_any_evaluation(self, h):
        p, calls = counted(registry_get("b"))
        with pytest.raises(ValueError, match=r"^h must be a finite positive number, got "):
            fd_jacobian(p, p.start, h)
        assert calls == []

    def test_all_problems_near_start(self):
        rng = np.random.default_rng(12345)
        for name in registry_names():
            p = registry_get(name)
            for _ in range(50):
                x = p.start + rng.uniform(-0.1, 0.1, p.dim)
                analytic = evaluate_jacobian(p, x)
                approx = fd_jacobian(p, x, h=1e-6)
                bound = 1e-5 * (1.0 + np.abs(analytic).sum(axis=1).max())
                assert np.abs(analytic - approx).sum(axis=1).max() <= bound, name


class TestRoots:
    @pytest.mark.parametrize(
        "name,root",
        [
            ("b", [0.5, np.sqrt(0.75)]),
            ("d", [-1.0] * 31),
            ("e", [1.0, 1.0]),
        ],
    )
    def test_analytic_roots(self, name, root):
        residual = evaluate_f(registry_get(name), root)
        assert np.abs(residual).max() <= 1e-12

    @pytest.mark.parametrize("name,fixture", [("a", ROOT_A), ("c", ROOT_C)])
    def test_solver_oracle_roots(self, name, fixture):
        trace = newton_solve(registry_get(name))
        assert trace.converged
        assert np.abs(trace.x - fixture).max() < 1e-10
        assert np.abs(evaluate_f(registry_get(name), fixture)).max() <= 1e-12


class TestCheckJacobian:
    def test_registry_problems_pass(self):
        for name in registry_names():
            result = check_jacobian(registry_get(name))
            assert result.max_rel_error < 1e-5, name
            assert result.points_checked == 11
            assert result.points_skipped == 0

    def test_injected_sign_fault_is_caught(self):
        clean = registry_get("b")
        corrupted = dataclasses.replace(
            clean,
            jacobian=lambda x: np.array([[2.0 * x[0], -2.0 * x[1]], [2.0 * x[0], -2.0 * x[1]]]),
        )
        result = check_jacobian(corrupted)
        assert result.max_rel_error > 1e-5
        assert result.worst_entry == (0, 1)

    @pytest.mark.parametrize(
        "bad_calls", [range(1, 12), [1], [11]], ids=["every_point", "first", "last"]
    )
    def test_nan_entry_is_caught(self, bad_calls):
        # the analytic Jacobian is evaluated once per point: the start, then 10 more
        result = check_jacobian(nan_at_calls(registry_get("b"), bad_calls))
        assert np.isnan(result.max_rel_error)
        assert result.worst_entry == (1, 0)
        assert result.points_checked == 11

    def test_nan_entry_fails_the_cli(self, capsys, monkeypatch):
        corrupted = nan_at_calls(registry_get("b"), range(1, 12))
        monkeypatch.setattr(cli_mod, "registry_names", lambda: ["b"])
        monkeypatch.setattr(cli_mod, "registry_get", lambda name: corrupted)
        assert cli_mod.main(["check-jacobians"]) == 2
        assert capsys.readouterr().out == (
            "problem b: FAIL, max relative error nan at entry (1, 0)\n"
        )

    @pytest.mark.parametrize("points", [-3, -1, True, 2.0, "10"])
    def test_bad_points_raise_before_any_evaluation(self, points):
        p, calls = counted(registry_get("b"))
        with pytest.raises(ValueError, match=r"^points must be a non-negative integer, got "):
            check_jacobian(p, points=points)
        assert calls == []

    @pytest.mark.parametrize("h", BAD_STEPS)
    def test_bad_step_raises_before_any_evaluation(self, h):
        p, calls = counted(registry_get("b"))
        with pytest.raises(ValueError, match=r"^h must be a finite positive number, got "):
            check_jacobian(p, h=h)
        assert calls == []

    @pytest.mark.parametrize("points", [0, np.int64(2)])
    def test_points_may_be_any_non_negative_integer(self, points):
        result = check_jacobian(registry_get("b"), points=points)
        assert result.points_checked == points + 1
        assert result.max_rel_error < 1e-5

    @staticmethod
    def outside_everywhere():
        # x3 = -1 +- 0.1 puts every point outside c's domain
        return dataclasses.replace(registry_get("c"), start=np.array([1.0, 1.0, -1.0]))

    def test_no_point_checked_is_nan(self):
        result = check_jacobian(self.outside_everywhere())
        assert (result.points_checked, result.points_skipped) == (0, 11)
        assert np.isnan(result.max_rel_error)

    def test_no_point_checked_fails_the_cli(self, capsys, monkeypatch):
        outside = self.outside_everywhere()
        monkeypatch.setattr(cli_mod, "registry_names", lambda: ["c"])
        monkeypatch.setattr(cli_mod, "registry_get", lambda name: outside)
        assert cli_mod.main(["check-jacobians"]) == 2
        assert capsys.readouterr().out == (
            "problem c: FAIL, no point checked (11 point(s) skipped: outside domain)\n"
        )

    def test_points_outside_the_domain_are_skipped(self, capsys, monkeypatch):
        # x3 = 0.05 +- 0.1 leaves the base of c's real power x3**x1 nonpositive
        near_edge = dataclasses.replace(registry_get("c"), start=np.array([1.0, 1.0, 0.05]))
        result = check_jacobian(near_edge)
        assert (result.points_checked, result.points_skipped) == (9, 2)
        assert result.max_rel_error < 1e-5
        monkeypatch.setattr(cli_mod, "registry_names", lambda: ["c"])
        monkeypatch.setattr(cli_mod, "registry_get", lambda name: near_edge)
        assert cli_mod.main(["check-jacobians"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("problem c: ok, max relative error ")
        assert out.endswith(" over 9 points (2 point(s) skipped: outside domain)\n")
