import numpy as np
import pytest

from shamanskii import analysis
from shamanskii.analysis import estimate_coc, run_suite
from shamanskii.problems import registry_get
from shamanskii.solver import SolverConfig, SolveStatus, SolveTrace, solve


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
