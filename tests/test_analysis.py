import dataclasses
import math
import warnings
from collections import Counter

import numpy as np
import pytest

import shamanskii.solver as solver_mod
from shamanskii import analysis
from shamanskii.analysis import estimate_coc, run_suite
from shamanskii.linalg import EPS, DimensionMismatch
from shamanskii.problems import Problem, registry_get, registry_names
from shamanskii.solver import SolverConfig, SolveStatus, SolveTrace, solve

from test_acceptance import REFERENCE


def synthetic_trace(diff_norms, status=SolveStatus.CONVERGED):
    """Trace whose consecutive outer-iterate differences have the given norms.

    Each difference goes along its own coordinate axis, so the norms are
    represented exactly even when they differ by many orders of magnitude.
    """
    dim = max(len(diff_norms), 1)
    points = [np.zeros(dim)]
    for k, d in enumerate(diff_norms):
        nxt = points[-1].copy()
        nxt[k] += d
        points.append(nxt)
    count = len(points)
    residuals = [10.0 ** -(3 * k) for k in range(count - 1)] + [0.0]
    return SolveTrace(points, residuals, count - 1, count - 1, status)


class TestEstimateCoc:
    def test_quadratic_decay(self):
        report = estimate_coc(synthetic_trace([1e-1, 1e-2, 1e-4]))
        assert report.rho == pytest.approx(2.0, abs=1e-12)
        assert report.reason is None
        assert report.diffs == (1e-1, 1e-2, 1e-4)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_recovers_exact_order(self, p):
        r = 0.5
        diffs = [r, r**p, r ** (p * p), r ** (p * p * p)]
        report = estimate_coc(synthetic_trace(diffs))
        assert report.rho == pytest.approx(p, abs=1e-10)

    def test_uses_last_four_points(self):
        report = estimate_coc(synthetic_trace([9.0, 9.0, 1e-1, 1e-2, 1e-4]))
        assert report.rho == pytest.approx(2.0, abs=1e-12)
        assert len(report.points_used) == 4

    def test_na_with_three_points(self):
        report = estimate_coc(synthetic_trace([1e-1, 1e-2]))
        assert report.rho is None
        assert "fewer than four" in report.reason

    def test_na_with_single_point(self):
        report = estimate_coc(synthetic_trace([]))
        assert report.rho is None

    def test_na_on_zero_difference(self):
        report = estimate_coc(synthetic_trace([1e-1, 0.0, 1e-4]))
        assert report.rho is None
        assert "zero difference" in report.reason

    def test_na_on_equal_differences(self):
        report = estimate_coc(synthetic_trace([1e-2, 1e-2, 1e-2]))
        assert report.rho is None
        assert "equal consecutive" in report.reason

    @pytest.mark.parametrize(
        "diff_norms",
        # a 1e160 jump's norm overflows to inf; 1e150 / 1e-160 overflows
        [[1e160, 1.0, 1e-2], [1e-160, 1e150, 1e-10]],
        ids=["overflowed_norm", "overflowed_ratio"],
    )
    def test_na_on_norms_out_of_range(self, diff_norms):
        report = estimate_coc(synthetic_trace(diff_norms))
        assert report.rho is None
        assert report.reason == "difference norms out of floating-point range"

    @pytest.mark.parametrize(
        "points,diffs",
        [
            # the first ratio is 1e-160; the second, 1e153 / 1e-160, overflows
            ([(0.0, 0.0), (1.0, 0.0), (1.0, 1e-160), (1.0, 1e153)], (1.0, 1e-160, 1e153)),
            # the last norm overflows, and so does the second ratio
            ([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (1.0, 1e200)], (1.0, 1.0, math.inf)),
        ],
        ids=["overflowed_second_ratio", "overflowed_last_norm"],
    )
    def test_na_when_only_the_second_ratio_leaves_the_range(self, points, diffs):
        trace = SolveTrace([np.array(x) for x in points], [1.0, 1e-2, 1e-6, 0.0], 3, 3,
                           SolveStatus.CONVERGED)
        report = estimate_coc(trace)
        # 1e-160 squared is subnormal, so its norm keeps about five digits
        assert report.diffs == pytest.approx(diffs, rel=1e-4)
        assert report.rho is None
        assert report.reason == "difference norms out of floating-point range"

    def test_na_on_converged_run_with_overflowed_norms(self):
        # iterates 4, 2, -1e170, 0, 1: the last four differ by 1e170, 1e170
        # and 1, whose norms read (inf, inf, 1.0)
        def jacobian(x):
            return np.array([[{4.0: 1.5, 2.0: 1e-170}.get(float(x[0]), 1.0)]])

        trace = solve(Problem("far", 1, lambda x: x - 1.0, jacobian, [4.0]))
        assert trace.status is SolveStatus.CONVERGED
        assert [float(x[0]) for x in trace.outer_iterates] == [4.0, 2.0, -1e170, 0.0, 1.0]
        report = estimate_coc(trace)
        assert report.diffs == (math.inf, math.inf, 1.0)
        assert report.rho is None
        assert report.reason == "difference norms out of floating-point range"

    def test_na_on_failed_run(self):
        trace = synthetic_trace([1e-1, 1e-2, 1e-4], status=SolveStatus.MAX_ITERATIONS)
        report = estimate_coc(trace)
        assert report.rho is None
        assert "MaxIterations" in report.reason

    def test_na_for_two_outer_iterations(self):
        # it_inv = 2 leaves only three outer points, so no estimate exists
        trace = solve(registry_get("a"), SolverConfig(m=4))
        assert trace.it_inv == 2
        assert estimate_coc(trace).rho is None

    def test_real_run_close_to_reference(self):
        trace = solve(registry_get("e"), SolverConfig(m=2))
        rho = estimate_coc(trace).rho
        assert rho == pytest.approx(2.9754, abs=0.3)


def diffs_oracle(trace):
    """estimate_coc's diffs, norm2 written out: each difference as a float64
    array, a 2-D or higher one rejected, then sqrt of its dot product."""
    points = trace.outer_iterates[-4:]
    diffs = []
    for a, b in zip(points, points[1:]):
        v = np.asarray(b - a, dtype=np.float64)
        if v.ndim > 1:
            raise DimensionMismatch(f"expected a 1-D vector, got shape {v.shape}")
        diffs.append(math.sqrt(v.dot(v)))
    return tuple(diffs)


def grid_traces():
    return [solve(registry_get(name), SolverConfig(m=m))
            for name in registry_names() for m in (1, 2, 3, 4)]


def random_start_traces():
    """200 runs of a, b, c and e with m = 1..4 from seeded random starts, near
    the start point and ten times as far out, so that failed runs are among them."""
    rng = np.random.default_rng(24)
    traces = []
    for name in "abce":
        problem = registry_get(name)
        for k in range(50):
            offset = (1.0, 10.0)[k % 2] * rng.uniform(-1.0, 1.0, problem.start.size)
            start = dataclasses.replace(problem, start=problem.start + offset)
            traces.append(solve(start, SolverConfig(m=1 + k // 2 % 4)))
    return traces


class TestCocDiffs:
    """estimate_coc takes each difference norm with the public norm2: sqrt of
    the dot product's bits for the solver's own iterates, and norm2's checks
    and exceptions for any other iterate."""

    @pytest.mark.parametrize("make", [grid_traces, random_start_traces], ids=["grid", "starts"])
    def test_bits_match_norm2(self, make):
        for trace in make():
            # diverged runs overflow the dot product, as norm2 does; bytes, so
            # that NaN norms compare equal
            with np.errstate(over="ignore", invalid="ignore"):
                ours, theirs = estimate_coc(trace).diffs, diffs_oracle(trace)
            assert np.array(ours).tobytes() == np.array(theirs).tobytes()

    def test_diverged_runs_do_not_warn(self):
        # no errstate here: estimate_coc keeps solve's floating-point policy,
        # and some of these runs end with iterates near 1e208
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for trace in random_start_traces():
                estimate_coc(trace)

    @pytest.mark.parametrize(
        "points",
        [
            [np.arange(2) * k for k in (1, 3, 4, 4)],
            [np.array([1.0, 2.0], dtype=np.float32) / k for k in (1, 2, 4, 8)],
            [np.array(k) for k in (1.0, 0.5, 0.125, 0.0)],
            [k * np.eye(2) for k in (1.0, 0.5, 0.125, 0.0)],
            [[k, k] for k in (1.0, 0.5, 0.125, 0.0)],
        ],
        ids=["int", "float32", "0-d", "2-D", "list"],
    )
    def test_other_iterates_get_norm2s_checks(self, points):
        trace = SolveTrace(points, [1.0, 1e-2, 1e-6, 0.0], 3, 3, SolveStatus.CONVERGED)
        try:
            expected = diffs_oracle(trace)
        except Exception as exc:
            with pytest.raises(type(exc)) as raised:
                estimate_coc(trace)
            assert raised.value.args == exc.args
        else:
            assert estimate_coc(trace).diffs == expected


def test_traced_benchmark_bindings(monkeypatch):
    """The benchmark's tracer replaces these names where solver and analysis
    look them up; a refactor that stops calling through one of them, or
    changes how often, loses its spans.  Counts are for the default grid."""
    calls, sizes = Counter(), Counter()

    def count(module, name, size=None):
        real = getattr(module, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            if size is not None:
                sizes[name, size(*args)] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    # the tracer sizes the LU spans with these
    count(solver_mod, "lu_factor", len)
    count(solver_mod, "lu_solve", lambda factors, b: factors.n)
    for name in ("norm2", "evaluate_f", "evaluate_jacobian"):
        count(solver_mod, name)
    for name in ("solve", "estimate_coc", "registry_get"):
        count(analysis, name)
    run_suite(registry_names(), (1, 2, 3, 4))
    assert calls == {"lu_factor": 80, "lu_solve": 181, "norm2": 100, "evaluate_f": 201,
                     "evaluate_jacobian": 80, "solve": 20, "estimate_coc": 20, "registry_get": 5}
    assert set(sizes) == {(name, n) for name in ("lu_factor", "lu_solve") for n in (2, 3, 31)}


class TestRunSuite:
    def test_full_grid_shape_and_order(self):
        report = run_suite("abcde", [1, 2, 3, 4])
        assert len(report.cells) == 20
        expected_order = [(p, m) for p in "abcde" for m in (1, 2, 3, 4)]
        assert [(c.problem, c.m) for c in report.cells] == expected_order
        assert report.all_converged

    def test_na_exactly_when_two_or_fewer_outer_iterations(self):
        for cell in run_suite("abcde", [1, 2, 3, 4]).cells:
            assert (cell.rho is None) == (cell.it_inv <= 2), (cell.problem, cell.m)

    def test_empty_ms_gives_empty_grid(self):
        report = run_suite("abcde", [])
        assert report.cells == ()

    def test_singleton(self):
        report = run_suite(["b"], [1])
        assert len(report.cells) == 1
        cell = report.cell("b", 1)
        assert abs(cell.it_inv - 6) <= 1
        assert cell.it_tot == cell.it_inv

    def test_cell_lookup_missing(self):
        with pytest.raises(KeyError):
            run_suite(["b"], [1]).cell("b", 2)

    def test_order_trend_follows_m_plus_one(self):
        report = run_suite("bce", [1, 2, 3])
        for cell in report.cells:
            assert cell.rho is not None
            assert abs(cell.rho - (cell.m + 1)) <= 0.8, (cell.problem, cell.m)

    def test_it_inv_non_increasing_in_m(self):
        report = run_suite("abcde", [1, 2, 3])
        for name in "abcde":
            counts = [report.cell(name, m).it_inv for m in (1, 2, 3)]
            assert counts == sorted(counts, reverse=True), name

    def test_failed_cell_recorded_not_raised(self):
        report = run_suite(["a"], [1], SolverConfig(max_outer=1))
        cell = report.cell("a", 1)
        assert cell.status is SolveStatus.MAX_ITERATIONS
        assert cell.rho is None
        assert not report.all_converged

    @pytest.mark.parametrize("bad", [1.5, True, 0, "2"])
    def test_invalid_m_rejected_before_any_solve(self, bad, monkeypatch):
        solved = []
        monkeypatch.setattr(analysis, "solve", lambda problem, cfg: solved.append(cfg))
        with pytest.raises(ValueError, match="^m must be a positive integer$"):
            run_suite(["b"], [1, bad])
        assert solved == []

    def test_numpy_integer_m_stored_as_int(self):
        report = run_suite(["b"], [np.int64(2)])
        assert type(report.ms[0]) is int and type(report.cells[0].m) is int
        assert report.cell("b", 2) == run_suite(["b"], [2]).cells[0]


def test_reference_table_is_float64_at_tol_eps():
    # the default tol, 10 * eps, leaves (b,1) and (c,4) one outer step short
    report = run_suite(("a", "b", "c", "d", "e"), (1, 2, 3, 4), SolverConfig(tol=EPS))
    for (name, m), (it_inv, rho) in REFERENCE.items():
        cell = report.cell(name, m)
        assert (cell.status, cell.it_inv) == (SolveStatus.CONVERGED, it_inv), (name, m)
        if rho is None:
            assert cell.rho is None, (name, m)
        else:
            assert abs(cell.rho - rho) <= 2e-4, (name, m, cell.rho)
