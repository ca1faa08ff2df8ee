import copy
import dataclasses
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import shamanskii.cli as cli_mod
from shamanskii.linalg import DimensionMismatch
from shamanskii.problems import (
    DomainViolation,
    Problem,
    UnknownProblem,
    check_jacobian,
    evaluate_f,
    evaluate_jacobian,
    fd_jacobian,
    registry_get,
    registry_names,
)
from shamanskii.solver import newton_solve

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
    """d's Jacobian by the fancy-index scatters that problem d used before it
    wrote through strided slices of its buffer's flat view."""
    n = x.shape[0]
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
