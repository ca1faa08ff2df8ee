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
import types
import warnings
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shamanskii
import shamanskii.solver as solver_mod
from shamanskii.linalg import LAPACK_MIN_N, DimensionMismatch, NonFiniteInput, SingularMatrix
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
from test_linalg import loop_factor, loop_solve

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


@st.composite
def first_steps(draw):
    """A problem (a, b, c, e, or d at n = 5) from a start within +-1 of its
    own, and an m."""
    name = draw(st.sampled_from(["a", "b", "c", "d", "e"]))
    p = cyclic_problem(5) if name == "d" else registry_get(name)
    offsets = draw(st.lists(st.floats(-1.0, 1.0), min_size=p.dim, max_size=p.dim))
    return dataclasses.replace(p, start=p.start + np.array(offsets)), draw(st.integers(1, 4))


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

    def test_empty_system_raises(self):
        # the solver's lu_factor sends an n it has no kernel for to every check
        p = Problem(name="empty", dim=0, residual=lambda x: np.zeros(0),
                    jacobian=lambda x: np.zeros((0, 0)), start=np.zeros(0))
        message = r"^expected a nonempty square matrix, got shape \(0, 0\)$"
        with pytest.raises(DimensionMismatch, match=message):
            outer_step(p, p.start, 1)

    @settings(max_examples=200, deadline=None)
    @given(first_steps())
    # x1 = 0 leaves c's domain at the start point; x0 = 0 makes b's J singular
    @example((dataclasses.replace(registry_get("c"), start=np.array([1.0, 0.0, 2.0])), 2))
    @example((dataclasses.replace(registry_get("b"), start=np.array([0.0, 1.0])), 3))
    def test_is_the_first_outer_iteration_of_solve(self, case):
        p, m = case
        trace = solve(p, SolverConfig(m=m, max_outer=1))
        if trace.cause is None:
            # solve makes no step from a start point that has converged
            if trace.it_inv == 1:
                x_new, res, steps = outer_step(p, p.start, m)
                assert x_new.tobytes() == trace.outer_iterates[1].tobytes()
                assert np.float64(res).tobytes() == np.float64(trace.residual_norms[1]).tobytes()
                assert steps == trace.it_tot
            return
        if isinstance(trace.cause, NonFiniteIterate) and trace.it_inv == 1:
            message = f"non-finite iterate after {trace.it_tot} chord update(s)"
        else:
            message = str(trace.cause)
        with pytest.raises(type(trace.cause)) as raised:
            outer_step(p, p.start, m)
        assert type(raised.value) is type(trace.cause)
        assert str(raised.value) == message


def identity_problem(residual, start):
    """A 2-D problem with F = ``residual`` and J = I."""
    return Problem("start", 2, residual, lambda x: np.eye(2), np.array(start))


class TestOuterStepStartPoint:
    """A failure at its start point raises what solve records there."""

    @pytest.mark.parametrize(
        "p,message",
        [
            (identity_problem(lambda x: x, [np.nan, 0.0]), "non-finite start point"),
            (identity_problem(lambda x: np.array([np.inf, 0.0]), [1.0, 0.0]),
             "non-finite residual at the start point"),
            (identity_problem(leave_domain, [1.0, 0.0]),
             "problem 'faulty': x[0] is outside the injected domain"),
        ],
        ids=["nan_start", "non_finite_residual", "domain_exit"],
    )
    def test_raises_the_cause_solve_records(self, p, message):
        trace = solve(p)
        assert trace.it_inv == 0
        assert str(trace.cause) == message
        with pytest.raises(type(trace.cause)) as raised:
            outer_step(p, p.start, 2)
        assert type(raised.value) is type(trace.cause)
        assert str(raised.value) == message

    def test_makes_no_update_from_a_rejected_start(self):
        # F = [inf, 0] at the start alone; a residual that raises on a
        # non-finite input shows any update past the start's cause
        calls = []

        def residual(x):
            calls.append(x)
            if not np.isfinite(x).all():
                raise ValueError("residual called at a non-finite x")
            return np.array([np.inf, 0.0]) if x.tolist() == [1.0, 0.0] else x

        p = identity_problem(residual, [1.0, 0.0])
        with pytest.raises(NonFiniteIterate, match="^non-finite residual at the start point$"):
            outer_step(p, p.start, 3)
        assert len(calls) == 1

    @pytest.mark.parametrize("n", [LAPACK_MIN_N, 31])
    @pytest.mark.parametrize("kept", [False, True], ids=["fresh", "kept"])
    def test_jacobian_follows_the_ownership_rule(self, n, kept, monkeypatch):
        # F is infinite at the start, whose J(x) is still factored: getrf
        # overwrites a fresh Fortran-ordered J where it lies, and a copy of
        # one the problem keeps
        stored = np.array(np.arange(1.0, n * n + 1).reshape(n, n) + n * n * np.eye(n), order="F")
        pristine = stored.copy(order="F")
        # weak references, so that a fresh array stays one nothing else holds
        returned = []

        def jacobian(x):
            jac = stored if kept else pristine.copy(order="F")
            returned.append(weakref.ref(jac))
            return jac

        reached = []
        real_factor = solver_mod.lu_factor

        def recording_factor(matrix):
            reached.append(returned[-1]() is matrix)
            return real_factor(matrix)

        monkeypatch.setattr(solver_mod, "lu_factor", recording_factor)
        p = Problem("inf-start", n, lambda x: np.full(n, np.inf), jacobian, np.zeros(n))
        with pytest.raises(NonFiniteIterate, match="^non-finite residual at the start point$"):
            outer_step(p, p.start, 2)
        assert reached == [not kept]
        assert stored.flags.writeable
        assert np.array_equal(stored, pristine)


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
    # the chord loop reads the elimination loop's lists; no array is built from them
    made = []
    real_factor = solver_mod.lu_factor

    def recording_factor(a):
        made.append(real_factor(a))
        return made[-1]

    monkeypatch.setattr(solver_mod, "lu_factor", recording_factor)
    trace = solve(registry_get(name), SolverConfig(m=m))
    assert trace.converged and len(made) == trace.it_inv
    assert all(type(f.lu) is type(f.piv) is list for f in made)
    assert all(np.shape(f.lu) == (f.n, f.n) for f in made)


@pytest.mark.parametrize(
    "config",
    [SolverConfig(), SolverConfig(inner_early_exit=True, record_inner=True)],
    ids=["default", "early_exit_recorded"],
)
def test_small_kernels_run_as_the_generic_loop(config, monkeypatch):
    # a, b, c and e from random starts, near their start points and ten times
    # as far out, so that failures are compared as well as converged runs
    rng = np.random.default_rng(19)
    runs = []
    for name in "abce":
        problem = registry_get(name)
        for spread in (1.0, 10.0):
            for _ in range(15):
                offset = spread * rng.uniform(-1.0, 1.0, problem.start.size)
                start = dataclasses.replace(problem, start=problem.start + offset)
                runs += [(start, dataclasses.replace(config, m=m)) for m in ALL_M]
    kernels = [solve(problem, cfg) for problem, cfg in runs]
    monkeypatch.setattr(solver_mod, "lu_factor", lambda a: loop_factor(np.asarray(a)))
    monkeypatch.setattr(solver_mod, "lu_solve", lambda factors, x: loop_solve(*factors, x))
    loops = [solve(problem, cfg) for problem, cfg in runs]
    for ours, theirs in zip(kernels, loops, strict=True):
        assert ours.status is theirs.status
        assert (ours.it_inv, ours.it_tot) == (theirs.it_inv, theirs.it_tot)
        # bytes, so that NaN norms compare equal
        assert np.array(ours.residual_norms).tobytes() == np.array(theirs.residual_norms).tobytes()
        assert type(ours.cause) is type(theirs.cause) and str(ours.cause) == str(theirs.cause)
        for x, y in (
            *zip(ours.outer_iterates, theirs.outer_iterates, strict=True),
            *zip(ours.inner_iterates or [], theirs.inner_iterates or [], strict=True),
        ):
            assert x.tobytes() == y.tobytes()
        assert (ours.inner_iterates is None) is (theirs.inner_iterates is None)
    assert {trace.status for trace in kernels} == set(SolveStatus)


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

    @pytest.mark.parametrize("trusted", [True, False])
    def test_fresh_jacobian_in_place_only_when_the_count_is_trusted(
        self, n, trusted, monkeypatch
    ):
        if not trusted:
            # what _sole_local_refs() gives on a free-threaded build
            monkeypatch.setattr(solver_mod, "_SOLE_LOCAL_REFS", 0)
        d = cyclic_problem(n)
        expected = solve(d, SolverConfig(m=2))
        # weak references, so that nothing here adds to the count tested
        returned = []

        def jacobian(x):
            jac = d.jacobian(x)
            returned.append(weakref.ref(jac))
            return jac

        in_place = []
        real_factor = solver_mod.lu_factor

        def recording_factor(matrix):
            in_place.append(any(ref() is matrix for ref in returned))
            return real_factor(matrix)

        monkeypatch.setattr(solver_mod, "lu_factor", recording_factor)
        trace = solve(dataclasses.replace(d, jacobian=jacobian), SolverConfig(m=2))
        assert_same_run(trace, expected)
        assert in_place == [trusted] * trace.it_inv

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


# How a Jacobian callable hands the solver its array.  A kind is
# make(fill, n) -> (jacobian, kept): fill(x) is problem d's fresh
# Fortran-ordered float64 Jacobian, and kept() lists the arrays the problem
# still holds after a call.  The fresh kinds hold none.
FRESH_KINDS = {
    "float64_F": lambda jac: jac,
    "float32_F": lambda jac: jac.astype(np.float32),
    "int64_F": lambda jac: jac.astype(np.int64),
    "C_order": np.ascontiguousarray,
    "read_only": read_only,
    "list": lambda jac: jac.tolist(),
}
# the fresh kinds whose float64 array, as _jacobian_at returns it, getrf may
# overwrite: the array itself, or the new one converted from float32 or int64
IN_PLACE_KINDS = {"float64_F", "float32_F", "int64_F"}


class KeptSubclass(np.ndarray):
    """An ndarray subclass, whose instance a problem keeps and refills."""


KEPT_GLOBAL = None


def kept_attribute(fill, n):
    holder = types.SimpleNamespace(jac=None)

    def jacobian(x):
        holder.jac = fill(x)
        return holder.jac

    return jacobian, lambda: [holder.jac]


def kept_closure(fill, n):
    jac = None

    def jacobian(x):
        nonlocal jac
        jac = fill(x)
        return jac

    return jacobian, lambda: [jac]


def kept_list_item(fill, n):
    store = [None]

    def jacobian(x):
        store[0] = fill(x)
        return store[0]

    return jacobian, lambda: store


def kept_dict_value(fill, n):
    store = {}

    def jacobian(x):
        store["J"] = fill(x)
        return store["J"]

    return jacobian, lambda: list(store.values())


def kept_global(fill, n):
    def jacobian(x):
        global KEPT_GLOBAL
        KEPT_GLOBAL = fill(x)
        return KEPT_GLOBAL

    return jacobian, lambda: [KEPT_GLOBAL]


def kept_memoryview(fill, n):
    store = [None]

    def jacobian(x):
        store[0] = fill(x)
        return memoryview(store[0])

    return jacobian, lambda: store


def kept_transpose(fill, n):
    base = np.zeros((n, n))

    def jacobian(x):
        base[...] = fill(x).T
        return base.T

    return jacobian, lambda: [base]


def kept_block(fill, n):
    # an n x n Fortran-contiguous block of a wider buffer
    buffer = np.zeros((n, 3 * n), order="F")

    def jacobian(x):
        buffer[:, n : 2 * n] = fill(x)
        return buffer[:, n : 2 * n]

    return jacobian, lambda: [buffer]


def kept_refilled(fill, n):
    buffer = np.zeros((n, n), order="F")

    def jacobian(x):
        buffer[...] = fill(x)
        return buffer

    return jacobian, lambda: [buffer]


def kept_subclass(fill, n):
    instance = KeptSubclass((n, n), order="F")

    def jacobian(x):
        instance[...] = fill(x)
        return instance

    return jacobian, lambda: [instance]


def fresh_kind(convert):
    return lambda fill, n: ((lambda x: convert(fill(x))), lambda: [])


JACOBIAN_KINDS = {
    **{name: fresh_kind(convert) for name, convert in FRESH_KINDS.items()},
    "attribute": kept_attribute,
    "closure": kept_closure,
    "list_item": kept_list_item,
    "dict_value": kept_dict_value,
    "global": kept_global,
    "memoryview": kept_memoryview,
    "transpose": kept_transpose,
    "block": kept_block,
    "refilled": kept_refilled,
    "subclass": kept_subclass,
}


class TestJacobianKinds:
    """The bound on the reference count: however a problem returns its
    Jacobian, the run is the one a fresh Fortran-ordered copy gives, nothing
    the problem keeps changes, and getrf overwrites only a fresh float64
    Fortran-ordered array, and only where the count is trusted.

    _factors_at is the one place that decides this, and two numpy traps stand
    in the way of a shorter test there.  flags.farray reads True for a
    read-only Fortran-ordered array, and scipy's getrf with overwrite_a then
    writes into it.  Binding jac.flags to a local before sys.getrefcount adds
    a reference to jac (2 -> 3 on CPython 3.11), so every Jacobian would be
    copied.
    """

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.sampled_from([4, 5, 31]),
        m=st.integers(1, 4),
        early_exit=st.booleans(),
        record=st.booleans(),
        trusted=st.booleans(),
        kind=st.sampled_from(sorted(JACOBIAN_KINDS)),
    )
    # one example per mutant of the ownership test that each kind exposes
    @example(n=31, m=2, early_exit=False, record=False, trusted=True, kind="float64_F")
    @example(n=31, m=2, early_exit=False, record=False, trusted=True, kind="attribute")
    @example(n=31, m=2, early_exit=False, record=False, trusted=True, kind="transpose")
    @example(n=31, m=2, early_exit=False, record=False, trusted=True, kind="C_order")
    @example(n=31, m=2, early_exit=False, record=False, trusted=True, kind="read_only")
    @example(n=4, m=1, early_exit=False, record=False, trusted=True, kind="refilled")
    def test_run_and_kept_arrays(self, n, m, early_exit, record, trusted, kind):
        d = cyclic_problem(n)
        cfg = SolverConfig(m=m, inner_early_exit=early_exit, record_inner=record)
        # the same values, as a new Fortran-ordered float64 array on each call
        copied, _ = JACOBIAN_KINDS[kind](d.jacobian, n)
        expected = solve(
            dataclasses.replace(d, jacobian=lambda x: np.array(copied(x), np.float64, order="F")),
            cfg,
        )

        jacobian, kept = JACOBIAN_KINDS[kind](d.jacobian, n)
        last_written = []

        def recording_jacobian(x):
            jac = jacobian(x)
            last_written[:] = [(a.tobytes(), a.flags.writeable) for a in kept()]
            return jac

        # the addresses of the arrays _jacobian_at returned, and of those
        # lu_factor got, with no reference kept to either
        checked, factored = [], []
        real_jacobian_at, real_factor = solver_mod.evaluate_jacobian, solver_mod.lu_factor

        def recording_jacobian_at(problem, x):
            jac = real_jacobian_at(problem, x)
            checked.append(address(jac))
            return jac

        def recording_factor(matrix):
            # _factor_owned's precondition
            assert matrix.dtype == np.float64
            assert matrix.flags.f_contiguous and matrix.flags.writeable
            factored.append(address(matrix))
            return real_factor(matrix)

        with (
            mock.patch.object(solver_mod, "evaluate_jacobian", recording_jacobian_at),
            mock.patch.object(solver_mod, "lu_factor", recording_factor),
            mock.patch.object(solver_mod, "_SOLE_LOCAL_REFS",
                              solver_mod._SOLE_LOCAL_REFS if trusted else 0),
        ):
            trace = solve(dataclasses.replace(d, jacobian=recording_jacobian), cfg)

        assert_same_run(trace, expected)
        assert np.array(trace.residual_norms).tobytes() == np.array(expected.residual_norms).tobytes()
        assert type(trace.cause) is type(expected.cause)
        assert str(trace.cause) == str(expected.cause)
        assert [(a.tobytes(), a.flags.writeable) for a in kept()] == last_written
        in_place = trusted and kind in IN_PLACE_KINDS
        assert [a == b for a, b in zip(factored, checked, strict=True)] == [in_place] * len(checked)


def small_jacobians(problem, kind):
    """``(jacobian, fresh)``: a Jacobian callable returning the array ``kind``
    names, and one returning a new array of the same values on each call."""
    if kind == "fresh":
        return problem.jacobian, problem.jacobian
    stored = problem.jacobian(problem.start)
    if kind == "read_only":
        stored.setflags(write=False)
    if kind == "view":
        base = np.ascontiguousarray(stored.T)
        return (lambda x: base.T), (lambda x: base.T.copy())
    return (lambda x: stored), (lambda x: stored.copy())


SMALL_CONFIGS = [
    SolverConfig(m=2, max_outer=8),
    SolverConfig(m=4, max_outer=8, inner_early_exit=True, record_inner=True),
]


@pytest.mark.parametrize("name", ["a", "c"])
class TestSmallJacobiansAreOnlyRead:
    """Below LAPACK_MIN_N the kernels only read the Jacobian, so the solver
    neither tests who else can see it nor copies it."""

    @pytest.mark.parametrize("kind", ["fresh", "stored", "read_only", "view"])
    def test_returned_array_reaches_lu_factor_uncopied(self, name, kind, monkeypatch):
        problem = registry_get(name)
        jacobian, _ = small_jacobians(problem, kind)
        # weak references, so that a fresh array stays one nothing else holds
        returned = []

        def recording_jacobian(x):
            jac = jacobian(x)
            returned.append(weakref.ref(jac))
            return jac

        reached = []
        real_factor = solver_mod.lu_factor

        def recording_factor(matrix):
            reached.append(returned[-1]() is matrix)
            return real_factor(matrix)

        monkeypatch.setattr(solver_mod, "lu_factor", recording_factor)
        trace = solve(dataclasses.replace(problem, jacobian=recording_jacobian), SMALL_CONFIGS[0])
        assert trace.it_inv > 0
        assert reached == [True] * len(returned)

    @pytest.mark.parametrize("kind", ["stored", "read_only", "view"])
    @pytest.mark.parametrize("cfg", SMALL_CONFIGS)
    def test_returned_array_is_left_as_it_was(self, name, kind, cfg):
        problem = registry_get(name)
        jacobian, fresh = small_jacobians(problem, kind)
        kept = jacobian(problem.start)
        before, writeable = kept.tobytes(), kept.flags.writeable
        trace = solve(dataclasses.replace(problem, jacobian=jacobian), cfg)
        assert_same_run(trace, solve(dataclasses.replace(problem, jacobian=fresh), cfg))
        assert kept.tobytes() == before
        assert kept.flags.writeable is writeable


def test_stored_jacobian_at_lapack_min_n_is_left_alone():
    # the smallest size getrf factors in place, so the first one tested
    n = LAPACK_MIN_N
    stored = np.asfortranarray(np.arange(1.0, n * n + 1).reshape(n, n) + n * n * np.eye(n))
    pristine = stored.copy(order="F")
    affine = Problem("affine4", n, lambda x: stored @ x - 1.0, lambda x: stored, np.zeros(n))
    trace = solve(affine)
    expected = solve(dataclasses.replace(affine, jacobian=lambda x: pristine.copy(order="F")))
    assert trace.converged
    assert_same_run(trace, expected)
    assert stored.flags.writeable
    assert np.array_equal(stored, pristine)


@pytest.mark.parametrize("gil", [True, False])
def test_free_threaded_build_trusts_no_reference_count(gil, monkeypatch):
    monkeypatch.setattr(sys, "_is_gil_enabled", lambda: gil, raising=False)
    assert solver_mod._sole_local_refs() == (solver_mod._SOLE_LOCAL_REFS if gil else 0)


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
