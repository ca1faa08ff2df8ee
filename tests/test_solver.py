import copy
import dataclasses
import itertools
import math
import os
import pickle
import platform
import subprocess
import sys
import textwrap
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shamanskii
import shamanskii.solver as solver_mod
from shamanskii.linalg import DimensionMismatch, NonFiniteInput, SingularMatrix
from shamanskii.problems import (
    DomainViolation,
    Problem,
    evaluate_f,
    evaluate_jacobian,
    registry_get,
    registry_names,
)
from shamanskii.solver import (
    TOL_DEFAULT,
    NonFiniteIterate,
    SolverConfig,
    SolveStatus,
    newton_solve,
    outer_step,
    solve,
)

ALL_M = (1, 2, 3, 4)


def one_dim_problem(name, residual, jacobian, start):
    return Problem(
        name=name,
        dim=1,
        residual=lambda x: np.array([residual(x[0])]),
        jacobian=lambda x: np.array([[jacobian(x[0])]]),
        start=np.array([float(start)]),
    )


def affine_problem(start=0.0):
    # F(x) = x - 1: one Newton step lands on the root exactly
    return one_dim_problem("affine", lambda v: v - 1.0, lambda v: 1.0, start)


def multiple_root_problem(start=1.0):
    # F(x) = x^2: linear convergence toward 0, handy for exercising the caps
    return one_dim_problem("square", lambda v: v * v, lambda v: 2.0 * v, start)


def halving_problem(start):
    # F(x) = x with J = 2: each update halves x exactly, so |F| lands on tol
    return one_dim_problem("halving", lambda v: v, lambda v: 2.0, start)


def fault_at_call(fn, k, fault):
    """``fn`` whose k-th call (counting from 0) returns ``fault(x)`` instead."""
    calls = itertools.count()
    return lambda x: fault(x) if next(calls) == k else fn(x)


def cyclic_problem(n):
    """Problem d's cyclic system x_i * x_{i+1} - 1 at size ``n``, from x = -2."""
    return dataclasses.replace(registry_get("d"), dim=n, start=np.full(n, -2.0))


class OutsideBox(DomainViolation):
    """A problem's own kind of domain exit."""


def leave_domain(x):
    raise DomainViolation("faulty", 0, "is outside the injected domain")


# Jacobian faults and the status solve must end with.  Each is injected into
# the J(x) evaluation of one outer step, so the factorization never happens.
JACOBIAN_FAULTS = {
    "domain": (leave_domain, SolveStatus.DOMAIN_VIOLATION, DomainViolation),
    "nan": (lambda x: np.array([[np.nan]]), SolveStatus.NON_FINITE_ITERATE, NonFiniteInput),
    "singular": (lambda x: np.array([[0.0]]), SolveStatus.SINGULAR_JACOBIAN, SingularMatrix),
}


class TestSolve:
    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_affine_exact_in_one_outer_step(self, m):
        trace = solve(affine_problem(), SolverConfig(m=m))
        assert trace.status is SolveStatus.CONVERGED
        assert trace.it_inv == 1
        assert trace.it_tot == m
        assert np.array_equal(trace.x, [1.0])

    @pytest.mark.parametrize(
        "name,m,expected_it_inv",
        [
            ("a", 1, 5),
            ("a", 4, 2),
            ("b", 1, 6),
            ("b", 2, 4),
            ("c", 3, 3),
            ("d", 2, 4),
            ("e", 1, 7),
            ("e", 4, 6),
        ],
    )
    def test_reference_iteration_counts(self, name, m, expected_it_inv):
        trace = solve(registry_get(name), SolverConfig(m=m))
        assert trace.status is SolveStatus.CONVERGED
        assert abs(trace.it_inv - expected_it_inv) <= 1
        assert trace.it_tot == m * trace.it_inv

    @pytest.mark.parametrize("name", registry_names())
    @pytest.mark.parametrize("m", ALL_M)
    def test_trace_shape_and_counters(self, name, m):
        trace = solve(registry_get(name), SolverConfig(m=m))
        assert trace.status is SolveStatus.CONVERGED
        assert len(trace.outer_iterates) == trace.it_inv + 1
        assert len(trace.residual_norms) == trace.it_inv + 1
        assert trace.it_tot == m * trace.it_inv
        assert all(r >= 0.0 for r in trace.residual_norms)
        assert trace.final_residual <= TOL_DEFAULT

    @pytest.mark.parametrize("name", registry_names())
    @pytest.mark.parametrize("m", ALL_M)
    def test_monotone_endgame(self, name, m):
        norms = solve(registry_get(name), SolverConfig(m=m)).residual_norms
        tail = norms[-3:]
        assert tail[0] > tail[1] > tail[2]

    def test_fixed_point_start_returns_immediately(self):
        at_root = dataclasses.replace(registry_get("e"), start=np.array([1.0, 1.0]))
        trace = solve(at_root)
        assert trace.status is SolveStatus.CONVERGED
        assert trace.it_inv == 0
        assert trace.it_tot == 0
        assert len(trace.outer_iterates) == 1

    def test_chord_limit_converges_inside_one_sweep(self):
        # huge m turns the sweep into the plain chord method; from this start
        # it reaches the tolerance before the sweep ends
        trace = solve(registry_get("b"), SolverConfig(m=200))
        assert trace.status is SolveStatus.CONVERGED
        assert trace.it_inv == 1
        assert trace.it_tot == 200

    def test_inner_early_exit_stops_sweep(self):
        trace = solve(registry_get("b"), SolverConfig(m=10, inner_early_exit=True))
        assert trace.status is SolveStatus.CONVERGED
        assert trace.final_residual <= TOL_DEFAULT
        assert trace.it_tot < 10 * trace.it_inv

    def test_record_inner_iterates(self):
        trace = solve(registry_get("b"), SolverConfig(m=3, record_inner=True))
        assert trace.inner_iterates is not None
        assert len(trace.inner_iterates) == trace.it_tot
        for k in range(1, trace.it_inv + 1):
            assert np.array_equal(trace.inner_iterates[3 * k - 1], trace.outer_iterates[k])

    def test_inner_not_recorded_by_default(self):
        assert solve(registry_get("b")).inner_iterates is None


class TestFailureStatuses:
    def test_singular_jacobian_at_start(self):
        # F(x) = x^2 + 1 has J(0) = [[0]] and no root to hide behind
        p = one_dim_problem("flat", lambda v: v * v + 1.0, lambda v: 2.0 * v, 0.0)
        trace = solve(p)
        assert trace.status is SolveStatus.SINGULAR_JACOBIAN
        assert trace.it_inv == 0
        assert len(trace.outer_iterates) == 1 == len(trace.residual_norms)

    def test_domain_violation_at_start(self):
        bad_start = dataclasses.replace(registry_get("c"), start=np.array([1.0, 0.0, 2.0]))
        trace = solve(bad_start)
        assert trace.status is SolveStatus.DOMAIN_VIOLATION
        assert trace.it_inv == 0
        assert np.isnan(trace.final_residual)

    def test_domain_violation_mid_run(self):
        # sqrt domain: the first Newton step from 25 lands at -5
        def guarded(v):
            if v < 0.0:
                raise DomainViolation("sqrt", 0, "must be nonnegative")
            return np.sqrt(v) - 2.0

        p = one_dim_problem("sqrt", guarded, lambda v: 0.5 / np.sqrt(v), 25.0)
        trace = solve(p)
        assert trace.status is SolveStatus.DOMAIN_VIOLATION
        assert trace.it_inv == 1
        assert trace.it_tot == 0
        assert len(trace.outer_iterates) == trace.it_inv + 1
        assert np.array_equal(trace.x, [25.0])

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_at_start(self):
        huge = dataclasses.replace(registry_get("e"), start=np.array([1e308, 1e308]))
        trace = solve(huge)
        assert trace.status is SolveStatus.NON_FINITE_ITERATE
        assert trace.it_inv == 0

    def test_non_finite_mid_run(self):
        # first update jumps from 0 to 10, where the residual turns into NaN
        p = one_dim_problem(
            "nan-wall", lambda v: np.nan if v > 2.0 else v - 10.0, lambda v: 1.0, 0.0
        )
        trace = solve(p)
        assert trace.status is SolveStatus.NON_FINITE_ITERATE
        assert trace.it_inv == 1
        assert trace.it_tot == 1
        assert np.isnan(trace.final_residual)
        assert len(trace.outer_iterates) == trace.it_inv + 1

    def test_max_outer_cap(self):
        trace = solve(multiple_root_problem(), SolverConfig(max_outer=3))
        assert trace.status is SolveStatus.MAX_ITERATIONS
        assert trace.it_inv == 3
        assert trace.it_tot == 3

    def test_max_outer_caps_below_max_total(self):
        cfg = SolverConfig(m=1, max_outer=2, max_total=10)
        trace = solve(halving_problem(1.0), cfg)
        assert trace.status is SolveStatus.MAX_ITERATIONS
        assert trace.it_inv == 2

    @pytest.mark.parametrize("cap,expected_tot", [(4, 4), (5, 4)])
    def test_max_total_cap_keeps_sweeps_whole(self, cap, expected_tot):
        trace = solve(multiple_root_problem(), SolverConfig(m=2, max_total=cap))
        assert trace.status is SolveStatus.MAX_ITERATIONS
        assert trace.it_tot == expected_tot
        assert trace.it_tot == 2 * trace.it_inv


class TestToleranceBoundary:
    """A residual equal to ``tol`` counts as converged, at every test site."""

    def test_start_on_tolerance_converges_at_once(self):
        trace = solve(halving_problem(TOL_DEFAULT))
        assert trace.status is SolveStatus.CONVERGED
        assert trace.it_inv == 0

    def test_update_onto_tolerance_converges(self):
        trace = solve(halving_problem(2 * TOL_DEFAULT))
        assert trace.status is SolveStatus.CONVERGED
        assert trace.it_inv == 1
        assert trace.final_residual == TOL_DEFAULT

    def test_inner_early_exit_on_tolerance(self):
        cfg = SolverConfig(m=3, inner_early_exit=True)
        trace = solve(halving_problem(2 * TOL_DEFAULT), cfg)
        assert trace.status is SolveStatus.CONVERGED
        assert trace.it_tot == 1


class TestFloatingPointWarnings:
    """Overflow far from a root ends up in the trace, not on stderr."""

    FAR = dataclasses.replace(registry_get("c"), start=np.array([800.0, 1.0, 2.0]))

    def test_solve_emits_none(self):
        before = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = solve(self.FAR)
        assert trace.status is SolveStatus.NON_FINITE_ITERATE
        assert str(trace.cause) == "non-finite residual at the start point"
        assert np.geterr() == before

    def test_outer_step_emits_none(self):
        # exp(800) overflows in F and in J, so the factorization refuses J
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteInput):
                outer_step(self.FAR, self.FAR.start, 1)

    def test_threads_keep_their_own_settings(self):
        # solve's errstate is one shared instance; each thread sets its own
        # mode first, so a call that restored another thread's would show
        modes = ["warn", "raise", "print", "ignore", "log", "call"]
        results, failures = {}, []

        def work(mode):
            try:
                np.seterr(over=mode)
                before = np.geterr()
                statuses = {solve(self.FAR).status for _ in range(500)}
                results[mode] = (before, np.geterr(), statuses)
            except Exception as exc:  # reported below with the mode that hit it
                failures.append((mode, exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                threads = [threading.Thread(target=work, args=(mode,)) for mode in modes]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not failures
        assert sorted(results) == sorted(modes)
        for mode, (before, after, statuses) in results.items():
            assert before["over"] == mode
            assert after == before, mode
            assert statuses == {SolveStatus.NON_FINITE_ITERATE}


class TestFailureCause:
    def test_none_when_converged(self):
        assert solve(registry_get("b")).cause is None

    def test_domain_violation_at_start(self):
        bad_start = dataclasses.replace(registry_get("c"), start=np.array([1.0, 0.0, 2.0]))
        trace = solve(bad_start)
        assert isinstance(trace.cause, DomainViolation)
        assert trace.cause.index == 1
        assert trace.cause.__traceback__ is None

    @pytest.mark.parametrize("copier", [copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))])
    def test_domain_violation_trace_copies(self, copier):
        # a trace that can be pickled can come back from a process pool
        trace = solve(dataclasses.replace(registry_get("c"), start=np.array([1.0, 0.0, 2.0])))
        dup = copier(trace)
        assert dup.status is SolveStatus.DOMAIN_VIOLATION
        assert type(dup.cause) is DomainViolation
        assert (dup.cause.problem_name, dup.cause.index) == ("c", 1)
        assert str(dup.cause) == str(trace.cause)
        assert np.array_equal(dup.x, trace.x)

    @pytest.mark.parametrize(
        "callable_,k,it_tot",
        [("residual", 0, 0), ("residual", 2, 1), ("jacobian", 1, 3)],
        ids=["start_point", "mid_sweep", "jacobian"],
    )
    def test_domain_violation_subclass(self, callable_, k, it_tot):
        # the status follows the cause's type, so a problem's subclass maps too
        exc = OutsideBox("box", 0, "is outside the box")

        def leave(x):
            raise exc

        p = multiple_root_problem()
        fault = fault_at_call(getattr(p, callable_), k, leave)
        trace = solve(dataclasses.replace(p, **{callable_: fault}), SolverConfig(m=3))
        assert trace.status is SolveStatus.DOMAIN_VIOLATION
        assert trace.cause is exc
        assert trace.it_tot == it_tot

    @pytest.mark.parametrize("fault", sorted(JACOBIAN_FAULTS))
    def test_jacobian_fault(self, fault):
        p = multiple_root_problem()
        inject, status, error = JACOBIAN_FAULTS[fault]
        trace = solve(dataclasses.replace(p, jacobian=fault_at_call(p.jacobian, 2, inject)))
        assert trace.status is status
        assert isinstance(trace.cause, error)
        assert trace.cause.__traceback__ is None

    @pytest.mark.parametrize("k,m", [(1, 1), (4, 1), (3, 3), (5, 3)])
    def test_non_finite_residual(self, k, m):
        p = multiple_root_problem()
        faulty = dataclasses.replace(
            p, residual=fault_at_call(p.residual, k, lambda x: np.array([np.nan]))
        )
        trace = solve(faulty, SolverConfig(m=m))
        assert trace.status is SolveStatus.NON_FINITE_ITERATE
        assert isinstance(trace.cause, NonFiniteIterate)
        assert str(trace.cause) == f"non-finite residual at chord step {(k - 1) % m + 1}"
        assert trace.cause.__traceback__ is None

    def test_non_finite_update(self):
        # the pivot 1e-310 passes the threshold, but the step 1 / 1e-310 overflows
        p = one_dim_problem("flat", lambda v: v - 1.0, lambda v: 1e-310, 0.0)
        with np.errstate(over="ignore"):
            trace = solve(p)
        assert trace.status is SolveStatus.NON_FINITE_ITERATE
        assert str(trace.cause) == "non-finite update at chord step 1"

    @pytest.mark.parametrize(
        "start,residual,message",
        [
            (np.nan, lambda v: v, "non-finite start point"),
            (0.0, lambda v: np.nan, "non-finite residual at the start point"),
        ],
        ids=["start_point", "residual"],
    )
    def test_non_finite_start(self, start, residual, message):
        trace = solve(one_dim_problem("bad-start", residual, lambda v: 1.0, start))
        assert trace.status is SolveStatus.NON_FINITE_ITERATE
        assert isinstance(trace.cause, NonFiniteIterate)
        assert str(trace.cause) == message

    def test_outer_step_message_unchanged(self):
        p = multiple_root_problem()
        faulty = dataclasses.replace(
            p, residual=fault_at_call(p.residual, 2, lambda x: np.array([np.nan]))
        )
        message = r"^non-finite iterate after 2 chord update\(s\)$"
        with pytest.raises(NonFiniteIterate, match=message):
            outer_step(faulty, p.start, m=3)


class TestLargeSystems:
    """Problem d's cyclic system at sizes factored by LAPACK."""

    @pytest.mark.parametrize("m", [1, 4])
    def test_odd_size_converges(self, m):
        trace = solve(cyclic_problem(101), SolverConfig(m=m))
        assert trace.status is SolveStatus.CONVERGED
        assert np.abs(trace.x + 1.0).max() <= 1e-12

    def test_even_size_is_singular(self):
        # J = c (I + P) with P the cyclic shift is singular for even n
        trace = solve(cyclic_problem(100))
        assert trace.status is SolveStatus.SINGULAR_JACOBIAN
        assert trace.it_inv == 0
        assert isinstance(trace.cause, SingularMatrix)
        assert str(trace.cause).endswith("at column 99")

    def test_scipy_linalg_never_imported(self):
        script = textwrap.dedent(
            """
            import dataclasses
            import sys
            import numpy as np
            from shamanskii import linalg, registry_get, run_suite, solve

            def lapack_loaded():
                return linalg._lapack.cache_info().currsize > 0

            assert "scipy" not in sys.modules and not lapack_loaded()
            run_suite("abce", (1, 2, 3, 4))
            assert "scipy" not in sys.modules and not lapack_loaded()
            run_suite("d", (1, 2, 3, 4))
            assert lapack_loaded()
            d101 = dataclasses.replace(registry_get("d"), dim=101, start=np.full(101, -2.0))
            assert solve(d101).converged
            assert lapack_loaded()
            assert "scipy.linalg" not in sys.modules
            """
        )
        src = str(Path(shamanskii.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script],
            # the allocator's own defaults, which these variables would override
            env={
                **{k: v for k, v in os.environ.items()
                   if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"},
                "PYTHONPATH": src,
            },
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr


class TestFaultInjection:
    # F(x) = x^2 from 1 converges only linearly, so no run ends before the fault.

    @pytest.mark.parametrize("fault", sorted(JACOBIAN_FAULTS))
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("m", [1, 3])
    def test_jacobian_fault_at_outer_step_k(self, fault, k, m):
        p = multiple_root_problem()
        inject, status, _ = JACOBIAN_FAULTS[fault]
        faulty = dataclasses.replace(p, jacobian=fault_at_call(p.jacobian, k, inject))
        trace = solve(faulty, SolverConfig(m=m))
        assert trace.status is status
        assert trace.it_inv == k
        assert trace.it_tot == k * m
        assert len(trace.outer_iterates) == len(trace.residual_norms) == k + 1
        assert np.isfinite(trace.final_residual)

    @pytest.mark.parametrize("k,m", [(1, 1), (4, 1), (1, 3), (3, 3), (5, 3)])
    def test_residual_nan_at_call_k(self, k, m):
        # call 0 is the start point; calls (s-1)*m+1 .. s*m belong to sweep s
        p = multiple_root_problem()
        faulty = dataclasses.replace(
            p, residual=fault_at_call(p.residual, k, lambda x: np.array([np.nan]))
        )
        trace = solve(faulty, SolverConfig(m=m))
        assert trace.status is SolveStatus.NON_FINITE_ITERATE
        assert trace.it_inv == (k - 1) // m + 1
        assert trace.it_tot == k
        assert len(trace.outer_iterates) == len(trace.residual_norms) == trace.it_inv + 1
        assert np.isnan(trace.final_residual)

    @pytest.mark.parametrize("fault", sorted(JACOBIAN_FAULTS))
    def test_outer_step_raises_jacobian_fault(self, fault):
        p = multiple_root_problem()
        inject, _, error = JACOBIAN_FAULTS[fault]
        faulty = dataclasses.replace(p, jacobian=inject)
        with pytest.raises(error):
            outer_step(faulty, p.start, m=2)

    def test_outer_step_raises_non_finite_iterate(self):
        p = multiple_root_problem()
        faulty = dataclasses.replace(
            p, residual=fault_at_call(p.residual, 2, lambda x: np.array([np.nan]))
        )
        with pytest.raises(NonFiniteIterate):
            outer_step(faulty, p.start, m=3)


class TestOuterStep:
    def test_hand_derived_newton_step(self):
        # J = [[2, 2], [2, -2]], F = [1, 0.5]  =>  step = [0.375, 0.125]
        x_new, res, steps = outer_step(registry_get("b"), [1.0, 1.0], m=1)
        assert np.array_equal(x_new, [0.625, 0.875])
        assert steps == 1
        assert res > 0.0

    def test_second_step_is_zero_on_affine(self):
        one, _, _ = outer_step(affine_problem(), [0.0], m=1)
        two, _, steps = outer_step(affine_problem(), [0.0], m=2)
        assert steps == 2
        assert np.array_equal(one, two)
        assert np.array_equal(two, [1.0])

    @pytest.mark.parametrize("name,m", [("e", 1), ("b", 3)])
    def test_matches_first_outer_iterate_of_solve(self, name, m):
        p = registry_get(name)
        trace = solve(p, SolverConfig(m=m))
        x_new, res, steps = outer_step(p, p.start, m)
        assert np.array_equal(x_new, trace.outer_iterates[1])
        assert res == trace.residual_norms[1]
        assert steps == m

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            outer_step(registry_get("b"), [1.0, 1.0], m=0)


class TestNewtonSolve:
    @pytest.mark.parametrize("name", registry_names())
    def test_bitwise_equivalent_to_m1(self, name):
        p = registry_get(name)
        via_solve = solve(p, SolverConfig(m=1))
        via_newton = newton_solve(p)
        assert via_newton.status is via_solve.status
        assert via_newton.it_inv == via_solve.it_inv
        assert via_newton.it_tot == via_solve.it_tot
        assert via_newton.residual_norms == via_solve.residual_norms
        assert len(via_newton.outer_iterates) == len(via_solve.outer_iterates)
        for ours, theirs in zip(via_newton.outer_iterates, via_solve.outer_iterates):
            assert np.array_equal(ours, theirs)

    def test_overrides_m(self):
        trace = newton_solve(registry_get("b"), SolverConfig(m=4))
        assert trace.it_tot == trace.it_inv


class TestFrozenJacobianAccounting:
    @pytest.mark.parametrize("m", [1, 2, 4])
    def test_one_evaluation_and_factorization_per_outer(self, m, monkeypatch):
        calls = {"jacobian": 0, "factor": 0}
        p = registry_get("e")

        def counting_jacobian(x, _inner=p.jacobian):
            calls["jacobian"] += 1
            return _inner(x)

        counting = dataclasses.replace(p, jacobian=counting_jacobian)
        real_factor = solver_mod.lu_factor

        def counting_factor(a):
            calls["factor"] += 1
            return real_factor(a)

        monkeypatch.setattr(solver_mod, "lu_factor", counting_factor)
        trace = solve(counting, SolverConfig(m=m))
        assert trace.status is SolveStatus.CONVERGED
        assert calls["jacobian"] == trace.it_inv
        assert calls["factor"] == trace.it_inv


def address(array):
    return array.__array_interface__["data"][0]


def recording(problem, convert=lambda jac: jac):
    """``problem`` whose Jacobian passes through ``convert``, and the addresses
    of the arrays it returned; the list keeps no reference to them."""
    returned = []

    def jacobian(x):
        jac = convert(problem.jacobian(x))
        returned.append(address(jac))
        return jac

    return dataclasses.replace(problem, jacobian=jacobian), returned


def factored(monkeypatch):
    """The addresses of the ``lu`` arrays the solver's lu_factor returns from now on."""
    addresses = []
    real_factor = solver_mod.lu_factor

    def recording_factor(matrix):
        factors = real_factor(matrix)
        addresses.append(address(factors.lu))
        return factors

    monkeypatch.setattr(solver_mod, "lu_factor", recording_factor)
    return addresses


def read_only(jac):
    jac.setflags(write=False)
    return jac


def assert_same_run(trace, expected):
    assert trace.status is expected.status
    assert (trace.it_inv, trace.it_tot) == (expected.it_inv, expected.it_tot)
    assert trace.residual_norms == expected.residual_norms
    for ours, theirs in (
        *zip(trace.outer_iterates, expected.outer_iterates, strict=True),
        *zip(trace.inner_iterates or [], expected.inner_iterates or [], strict=True),
    ):
        assert ours.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("name", "abce")
@pytest.mark.parametrize("m", ALL_M)
def test_small_systems_never_build_lu_or_piv(name, m, monkeypatch):
    # the chord loop reads the factors' lists; lu and piv are built on first access
    made = []
    real_factor = solver_mod.lu_factor

    def recording_factor(a):
        made.append(real_factor(a))
        return made[-1]

    monkeypatch.setattr(solver_mod, "lu_factor", recording_factor)
    trace = solve(registry_get(name), SolverConfig(m=m))
    assert trace.converged and len(made) == trace.it_inv
    assert not any("lu" in vars(f) or "piv" in vars(f) for f in made)
    assert all(f.lu.shape == (f.n, f.n) for f in made)


@pytest.mark.parametrize("n", [31, 301])
class TestJacobianOwnership:
    """The solver factors a Jacobian in place only when nothing else can see it."""

    def test_factored_in_place(self, n, monkeypatch):
        problem, returned = recording(cyclic_problem(n))
        lus = factored(monkeypatch)
        trace = solve(problem, SolverConfig(m=2))
        assert trace.converged
        assert len(returned) == trace.it_inv
        assert lus == returned

    @pytest.mark.parametrize("convert", [read_only, np.ascontiguousarray])
    @pytest.mark.parametrize("cfg", [
        SolverConfig(m=1),
        SolverConfig(m=4, inner_early_exit=True, record_inner=True),
    ])
    def test_copied_jacobians_give_the_same_run(self, n, convert, cfg, monkeypatch):
        expected = solve(cyclic_problem(n), cfg)
        problem, returned = recording(cyclic_problem(n), convert)
        lus = factored(monkeypatch)
        assert_same_run(solve(problem, cfg), expected)
        assert all(lu != jac for lu, jac in zip(lus, returned, strict=True))

    def test_stored_jacobian_is_left_alone(self, n):
        d = cyclic_problem(n)
        stored = d.jacobian(d.start)
        pristine = stored.copy(order="F")
        cfg = SolverConfig(m=2, max_outer=8)
        trace = solve(dataclasses.replace(d, jacobian=lambda x: stored), cfg)
        expected = solve(dataclasses.replace(d, jacobian=lambda x: pristine.copy(order="F")), cfg)
        assert_same_run(trace, expected)
        assert stored.flags.writeable
        assert np.array_equal(stored, pristine)

    def test_transposed_view_leaves_its_base_alone(self, n):
        d = cyclic_problem(n)
        stored = np.ascontiguousarray(d.jacobian(d.start).T)
        pristine = stored.copy()
        cfg = SolverConfig(m=2, max_outer=8)
        trace = solve(dataclasses.replace(d, jacobian=lambda x: stored.T), cfg)
        expected = solve(dataclasses.replace(d, jacobian=lambda x: pristine.T.copy(order="F")), cfg)
        assert_same_run(trace, expected)
        assert stored.flags.writeable
        assert np.array_equal(stored, pristine)

    def test_reused_buffer_is_left_alone(self, n):
        d = cyclic_problem(n)
        buffer = np.zeros((n, n), order="F")
        points = []

        def jacobian(x):
            buffer[...] = d.jacobian(x)
            points.append(x.copy())
            return buffer

        trace = solve(dataclasses.replace(d, jacobian=jacobian), SolverConfig(m=2))
        assert_same_run(trace, solve(d, SolverConfig(m=2)))
        assert buffer.flags.writeable
        assert np.array_equal(buffer, d.jacobian(points[-1]))


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's allocator")
def test_outer_steps_do_not_fault_pages_back_in():
    # Freeing a copy of each 0.7 MB Jacobian along with the Jacobian itself
    # let glibc return the pages to the OS, to be faulted in again next step
    script = textwrap.dedent(
        """
        import dataclasses, resource
        import numpy as np
        from shamanskii import registry_get, solve, SolverConfig

        d = dataclasses.replace(registry_get("d"), dim=301, start=np.full(301, -2.0))
        solve(d, SolverConfig(m=1))
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        trace = solve(d, SolverConfig(m=1))
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert trace.converged
        print(faults, trace.it_inv)
        """
    )
    src = str(Path(shamanskii.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script],
        # glibc's default trim and mmap thresholds, which these would change
        env={
            **{k: v for k, v in os.environ.items()
               if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"},
            "PYTHONPATH": src,
        },
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    faults, steps = map(int, done.stdout.split())
    assert faults <= 16 * steps, f"{faults} minor faults over {steps} outer steps"


class TestSolverConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"m": 0},
            {"tol": 0.0},
            {"tol": -1e-3},
            {"max_outer": 0},
            {"max_total": 0},
            {"m": 2.5},
            {"m": True},
            {"max_outer": 2.5},
            {"max_outer": True},
            {"max_total": 2.5},
            {"max_total": True},
            {"tol": math.inf},
            {"tol": True},
            {"inner_early_exit": "no"},
            {"record_inner": 1},
            {"tol": "1e-3"},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_default_total_cap(self):
        assert SolverConfig(m=3, max_outer=10).total_cap == 30
        assert SolverConfig(m=3, max_outer=10, max_total=7).total_cap == 7

    def test_default_tolerance(self):
        assert TOL_DEFAULT == pytest.approx(2.220446049250313e-15)


class TestWrongShape:
    """A callable of the wrong shape is a programmer error: it raises, naming it."""

    @staticmethod
    def plane(residual=None, jacobian=None):
        # F(x) = x - (1, 2), a 2-D system that Newton solves in one step
        return Problem(
            name="plane",
            dim=2,
            residual=residual or (lambda x: x - np.array([1.0, 2.0])),
            jacobian=jacobian or (lambda x: np.eye(2)),
            start=np.zeros(2),
        )

    def test_residual(self):
        p = self.plane(residual=lambda x: np.zeros(3))
        message = r"^problem 'plane': residual\(x\) has shape \(3,\), expected \(2,\)$"
        with pytest.raises(DimensionMismatch, match=message):
            solve(p)
        with pytest.raises(DimensionMismatch, match=message):
            outer_step(p, p.start, 1)

    def test_jacobian(self):
        p = self.plane(jacobian=lambda x: np.eye(3))
        message = r"^problem 'plane': jacobian\(x\) has shape \(3, 3\), expected \(2, 2\)$"
        with pytest.raises(DimensionMismatch, match=message):
            solve(p)
        with pytest.raises(DimensionMismatch, match=message):
            evaluate_jacobian(p, p.start)

    def test_start_point(self):
        p = dataclasses.replace(self.plane(), start=np.zeros(3))
        with pytest.raises(DimensionMismatch, match=r"x has shape \(3,\), expected \(2,\)"):
            solve(p)

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("wrong", [np.array([]), np.zeros(2), np.zeros((1, 1))])
    def test_later_residual_raises(self, k, wrong):
        # an empty residual has norm 0, which must not pass for convergence
        p = multiple_root_problem()
        faulty = dataclasses.replace(p, residual=fault_at_call(p.residual, k, lambda x: wrong))
        with pytest.raises(DimensionMismatch, match=r"residual\(x\) has shape"):
            solve(faulty, SolverConfig(m=2))

    def test_later_jacobian_raises(self):
        p = multiple_root_problem()
        faulty = dataclasses.replace(
            p, jacobian=fault_at_call(p.jacobian, 2, lambda x: np.eye(2))
        )
        with pytest.raises(DimensionMismatch, match=r"jacobian\(x\) has shape \(2, 2\)"):
            solve(faulty)

    def test_lists_are_fine(self):
        expected = solve(registry_get("c"), SolverConfig(m=2))
        p = dataclasses.replace(
            registry_get("c"),
            residual=lambda x, f=registry_get("c").residual: f(x).tolist(),
            jacobian=lambda x, j=registry_get("c").jacobian: j(x).tolist(),
        )
        trace = solve(p, SolverConfig(m=2))
        assert trace.converged
        assert (trace.it_inv, trace.it_tot) == (expected.it_inv, expected.it_tot)
        assert trace.x.tobytes() == expected.x.tobytes()
        assert isinstance(evaluate_f(p, p.start), np.ndarray)


class TestChordStepFiniteness:
    def test_overflowing_sums_of_finite_entries_are_not_flagged(self):
        # J = 2I halves the distance to c each step, so the iterates stay
        # finite while the sums of x, of F(x) and of their products overflow
        c = np.full(2, 1.6e308)
        p = Problem("far", 2, lambda x: x - c, lambda x: 2.0 * np.eye(2), np.zeros(2))
        trace = solve(p, SolverConfig(max_outer=5, record_inner=True))
        assert trace.status is SolveStatus.MAX_ITERATIONS
        assert trace.cause is None
        assert all(np.isfinite(x).all() for x in trace.outer_iterates)
        with np.errstate(over="ignore"):
            assert not np.isfinite(trace.outer_iterates[2].sum())

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("index", [0, 1])
    def test_one_bad_entry_is_flagged(self, bad, index):
        def residual(x):
            f = x - 1.0
            if x[0] != 0.0:
                f[index] = bad
            return f

        p = Problem("bad", 2, residual, lambda x: np.eye(2), np.zeros(2))
        trace = solve(p)
        assert trace.status is SolveStatus.NON_FINITE_ITERATE
        assert str(trace.cause) == "non-finite residual at chord step 1"


# Roots of a, b, c and e.  Those of a and c have no closed form here and
# were pinned from converged runs.
ROOTS = {
    "a": [(1.0430857584067033, 0.29354985405107353)],
    "b": [(sx * 0.5, sy * np.sqrt(0.75)) for sx in (1, -1) for sy in (1, -1)],
    "c": [(0.7530891649796748, 0.7530891649796748, 1.4572405053860489)],
    "e": [(1.0, 1.0), (1.0, -1.0)],
}
ABORTED = (SolveStatus.SINGULAR_JACOBIAN, SolveStatus.NON_FINITE_ITERATE,
           SolveStatus.DOMAIN_VIOLATION)


@st.composite
def runs(draw):
    """(problem, config): a start within 10**k of a root, k in -8..1, m in 1..4."""
    name = draw(st.sampled_from(sorted(ROOTS)))
    root = np.array(draw(st.sampled_from(ROOTS[name])))
    offset = draw(st.lists(st.floats(-1.0, 1.0), min_size=root.size, max_size=root.size))
    start = root + 10.0 ** draw(st.integers(-8, 1)) * np.array(offset)
    config = SolverConfig(m=draw(st.integers(1, 4)), inner_early_exit=draw(st.booleans()),
                          max_outer=draw(st.sampled_from([3, 100])))
    return dataclasses.replace(registry_get(name), start=start), config


class TestSolveProperties:
    @settings(max_examples=300, deadline=None)
    @given(runs())
    def test_trace_invariants(self, run):
        problem, config = run
        trace = solve(problem, config)  # a numerical failure never raises
        assert isinstance(trace.status, SolveStatus)
        assert len(trace.outer_iterates) == len(trace.residual_norms) == trace.it_inv + 1
        if config.inner_early_exit or trace.status in ABORTED:
            assert trace.it_tot <= config.m * trace.it_inv
        else:
            assert trace.it_tot == config.m * trace.it_inv
        assert (trace.cause is not None) == (trace.status in ABORTED)
        if trace.converged:
            assert trace.final_residual <= config.tol
