"""Convergence-order estimation and aggregation over a (problem, m) grid."""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from math import inf, log

import numpy as np

from .linalg import norm2
from .problems import registry_get
from .solver import _NO_FP_WARNINGS, SolveStatus, SolverConfig, SolveTrace, solve

__all__ = [
    "CocReport",
    "SuiteCell",
    "SuiteReport",
    "estimate_coc",
    "run_suite",
]


@dataclass(frozen=True)
class CocReport:
    """Computed order of convergence, or the reason it is unavailable.

    ``rho`` is ``None`` ("NA") when the run did not converge, fewer than four
    outer iterates exist, or the difference norms degenerate or leave
    float64's range; ``reason`` says which.  ``points_used`` are the trailing
    outer iterates that entered the estimate and ``diffs`` the norms of their
    consecutive differences.
    """

    rho: float | None
    points_used: tuple[np.ndarray, ...]
    diffs: tuple[float, ...]
    reason: str | None = None


@_NO_FP_WARNINGS
def estimate_coc(trace: SolveTrace) -> CocReport:
    """Log-ratio convergence-order estimate from the last four outer iterates.

    With d0, d1, d2 the Euclidean norms of the three consecutive differences
    of the final four outer iterates, the estimate is

        rho = log(d2 / d1) / log(d1 / d0)

    which recovers the order exactly on sequences whose difference norms decay
    as r, r**p, r**p**2, ...  Taken at the end of the trace because that is
    where the asymptotic regime is best established.  Runs with the same
    floating-point warnings switched off as :func:`solve`, so the differences
    of a diverged run may read ``inf`` or ``nan`` without a warning.
    """
    points = tuple(trace.outer_iterates[-4:])
    diffs = tuple(norm2(b - a) for a, b in zip(points, points[1:]))
    if trace.status is not SolveStatus.CONVERGED:
        return CocReport(None, points, diffs, f"run failed with status {trace.status.value}")
    if len(points) < 4:
        return CocReport(None, points, diffs, "fewer than four outer iterates")
    if min(diffs) == 0.0:
        return CocReport(None, points, diffs, "zero difference between consecutive iterates")
    # a norm that overflowed, or a ratio of two norms that left float64's
    # range; spelled out, as a generator costs 1 us more per suite cell
    if not (0.0 < diffs[1] / diffs[0] < inf and 0.0 < diffs[2] / diffs[1] < inf):
        return CocReport(None, points, diffs, "difference norms out of floating-point range")
    denominator = log(diffs[1] / diffs[0])
    if denominator == 0.0:
        return CocReport(None, points, diffs, "equal consecutive difference norms")
    return CocReport(log(diffs[2] / diffs[1]) / denominator, points, diffs)


@dataclass(frozen=True)
class SuiteCell:
    """Result of one (problem, m) run: counters, order estimate, status."""

    problem: str
    m: int
    it_inv: int
    it_tot: int
    rho: float | None
    status: SolveStatus
    final_residual: float


@dataclass(frozen=True)
class SuiteReport:
    """Grid of suite results, ordered problems-outer / m-inner."""

    problems: tuple[str, ...]
    ms: tuple[int, ...]
    cells: tuple[SuiteCell, ...]

    def cell(self, problem: str, m: int) -> SuiteCell:
        for c in self.cells:
            if c.problem == problem and c.m == m:
                return c
        raise KeyError(f"no cell for problem {problem!r}, m={m}")

    @property
    def all_converged(self) -> bool:
        return all(c.status is SolveStatus.CONVERGED for c in self.cells)


def run_suite(problem_names, ms, config: SolverConfig | None = None) -> SuiteReport:
    """Solve every (problem, m) pair and attach order estimates.

    Cells are produced deterministically, problems in the given order with
    ``m`` varying fastest.  A failing cell records its status and keeps the
    rest of the grid running.
    """
    cfg = config if config is not None else SolverConfig()
    names = tuple(problem_names)
    # SolverConfig rejects an m such as 1.5 or True before any cell runs
    configs = [dataclasses.replace(cfg, m=m) for m in ms]
    m_values = tuple(int(c.m) for c in configs)
    cells = []
    for name in names:
        problem = registry_get(name)
        for m, m_cfg in zip(m_values, configs):
            trace = solve(problem, m_cfg)
            rho = estimate_coc(trace).rho
            # positional: a frozen dataclass's __init__ takes keywords more slowly
            cells.append(SuiteCell(name, m, trace.it_inv, trace.it_tot, rho, trace.status,
                                   trace.final_residual))
    return SuiteReport(names, m_values, tuple(cells))
