"""The benchmark's workloads: inputs made from a seed, one pass, output checks.

Load is closed-loop from one thread: each solve starts when the previous one
returns.  A pass is the unit of work that is timed; the same inputs are
solved in every pass of a run.
"""
from __future__ import annotations

import dataclasses
import json
from time import perf_counter

import numpy as np

from shamanskii import SolverConfig, SolveStatus, SolveTrace, analysis, registry_get, solve
from shamanskii.cli import render_csv, render_json, render_table

from tracing import SOLVE

# The README grid: (it_inv, it_tot, rho) per (problem, m), every cell
# Converged; None is the NA of a run with fewer than four outer iterates.
README_GRID = {
    ("a", 1): (5, 5, 2.0044), ("a", 2): (3, 6, 2.9649), ("a", 3): (3, 9, 3.9146), ("a", 4): (2, 8, None),
    ("b", 1): (5, 5, 1.9999), ("b", 2): (4, 8, 2.9593), ("b", 3): (3, 9, 3.3058), ("b", 4): (3, 12, 4.2046),
    ("c", 1): (5, 5, 1.9128), ("c", 2): (3, 6, 2.7689), ("c", 3): (3, 9, 3.7390), ("c", 4): (2, 8, None),
    ("d", 1): (6, 6, 1.9968), ("d", 2): (4, 8, 2.9594), ("d", 3): (3, 9, 3.3493), ("d", 4): (3, 12, 4.2464),
    ("e", 1): (7, 7, 2.0002), ("e", 2): (5, 10, 2.9754), ("e", 3): (5, 15, 3.7121), ("e", 4): (6, 24, 4.6198),
}
GRID_PROBLEMS = ("a", "b", "c", "d", "e")
GRID_MS = (1, 2, 3, 4)
# The README prints rho to four places; ROADMAP allows last-digit drift.
RHO_TOL = 1e-3

# The cyclic system behind d, F_i = x_i * x_{i+1} - 1 with wrap-around, at a
# size where the O(n^3) factorization and O(n^2) triangular solves dominate.
# At a constant start x = c the Jacobian is c(I + P), P the cyclic shift, and
# I + P is singular for every even n (the alternating vector is in its null
# space): at n = 100 solve stops with SingularJacobian at outer step 0, pivot
# 0 at column 99.  So the sizes are odd: 301 here, 101 and 1001 for later use.
CYCLIC_N = 301
CYCLIC_MS = (1, 4, 16)
CYCLIC_START = -2.0
CYCLIC_ROOT_TOL = 1e-12

# Random starts around the built-in start points of the small problems; about
# 5% of them end in one of the four failure statuses.  With 50 independent
# uniform draws per problem, the p90's interquartile range across seeds was
# about 15% of its median, as each seed draws a different share of far-out
# starts.  So the starts are a Halton point set under a seeded random shift
# (randomised quasi-Monte Carlo): each start is still uniform on its box, and
# the set covers the box evenly.  100 per problem keeps a pass near one second,
# so that a run times each solve often enough for its fastest time to hold.
STARTS_PROBLEMS = ("a", "b", "c", "e")
STARTS_PER_PROBLEM = 100
STARTS_MS = (1, 2, 3, 4)
STARTS_SPREAD = 1.0


class SolveLog:
    """Wall time and outcome (trace, or the exception raised) of each solve."""

    def __init__(self):
        self.seconds: list[float] = []
        self.outcomes: list[SolveTrace | Exception] = []

    def call(self, solve_fn, problem, config):
        start = perf_counter()
        try:
            trace = solve_fn(problem, config)
        except Exception as exc:
            self.seconds.append(perf_counter() - start)
            self.outcomes.append(exc)
            raise
        self.seconds.append(perf_counter() - start)
        self.outcomes.append(trace)
        return trace


@dataclasses.dataclass
class PassResult:
    """One pass: its wall time, every solve, and the grid's suite output."""

    seconds: float
    log: SolveLog
    report: analysis.SuiteReport | None = None
    documents: tuple[str, ...] = ()

    def signature(self):
        """Everything a pass returns, for the same-inputs-same-outputs check."""
        solves = [
            repr(o) if isinstance(o, Exception)
            else (o.status, o.it_inv, o.it_tot, o.x.tobytes())
            for o in self.log.outcomes
        ]
        return solves, self.documents


def _raised(outcome) -> bool:
    return isinstance(outcome, Exception)


class Workload:
    name = ""
    solves_per_pass = 0

    def run_pass(self, tracer) -> PassResult:
        raise NotImplementedError

    def check(self, result: PassResult) -> tuple[int, int]:
        """Return (outputs checked, outputs that fail the check)."""
        raise NotImplementedError


class Grid(Workload):
    """The paper's default 5x4 suite, then its table, CSV and JSON renderings."""

    name = "grid"
    solves_per_pass = len(GRID_PROBLEMS) * len(GRID_MS)

    def __init__(self, seed: int):
        pass  # the grid's inputs are fixed; the seed is unused

    def run_pass(self, tracer) -> PassResult:
        log = SolveLog()
        inner = analysis.solve
        run_suite = tracer.wrap("analysis.run_suite", analysis.run_suite)
        renderers = [tracer.wrap("cli.render", r) for r in (render_table, render_csv, render_json)]
        report, documents = None, ()
        analysis.solve = lambda problem, config: log.call(inner, problem, config)
        start = perf_counter()
        try:
            report = run_suite(GRID_PROBLEMS, GRID_MS)
            documents = tuple(render(report) for render in renderers)
        except Exception as exc:  # the suite is lost; solves not reached count as failed
            log.outcomes += [exc] * (self.solves_per_pass - len(log.outcomes))
        finally:
            seconds = perf_counter() - start
            analysis.solve = inner
        return PassResult(seconds, log, report, documents)

    def check(self, result):
        checked = self.solves_per_pass + 3
        if result.report is None or len(result.documents) != 3:
            return checked, checked
        bad = 0
        for cell in result.report.cells:
            it_inv, it_tot, rho = README_GRID[cell.problem, cell.m]
            ok = (cell.status is SolveStatus.CONVERGED
                  and (cell.it_inv, cell.it_tot) == (it_inv, it_tot)
                  and (cell.rho is None) == (rho is None)
                  and (rho is None or abs(cell.rho - rho) <= RHO_TOL))
            bad += not ok
        expected = [(c.problem, c.m, c.it_inv, c.it_tot, c.status.value) for c in result.report.cells]
        table, csv, js = result.documents
        bad += _parsed(_table_cells, table) != [(p, m, i, t) for p, m, i, t, _ in expected]
        bad += _parsed(_csv_cells, csv) != expected
        bad += _parsed(_json_cells, js) != expected
        return checked, bad


def _parsed(parse, document):
    try:
        return parse(document)
    except (ValueError, IndexError, KeyError, TypeError):
        return None


def _table_cells(table: str):
    lines = table.splitlines()
    ms = [int(h[2:]) for h in lines[0].split()[1:]]
    cells = []
    for line in lines[1:]:
        fields = line.split()
        for k, m in enumerate(ms):
            it_inv, it_tot = fields[1 + 3 * k], fields[2 + 3 * k]
            cells.append((fields[0], m, int(it_inv), int(it_tot.strip("()"))))
    return cells


def _csv_cells(csv: str):
    rows = [line.split(",") for line in csv.splitlines()[1:]]
    return [(r[0], int(r[1]), int(r[2]), int(r[3]), r[5]) for r in rows]


def _json_cells(js: str):
    return [(r["problem"], r["m"], r["it_inv"], r["it_tot"], r["status"]) for r in json.loads(js)]


def cyclic_problem(n: int):
    """Problem d's residual and Jacobian at size ``n`` from x = CYCLIC_START."""
    start = np.full(n, CYCLIC_START)
    start.setflags(write=False)
    return dataclasses.replace(registry_get("d"), name=f"d{n}", dim=n, start=start,
                               description=f"cyclic x_i*x_(i+1) - 1, n={n}")


class Cyclic(Workload):
    """Problem d's cyclic system at n = CYCLIC_N for m in CYCLIC_MS."""

    name = "cyclic"
    solves_per_pass = len(CYCLIC_MS)

    def __init__(self, seed: int):
        # The cyclic system's inputs are fixed; the seed is unused.
        self.problem = cyclic_problem(CYCLIC_N)
        self.configs = [SolverConfig(m=m) for m in CYCLIC_MS]

    def run_pass(self, tracer):
        return _solve_all(tracer, [(self.problem, c) for c in self.configs])

    def check(self, result):
        traces = [o for o in result.log.outcomes if not _raised(o)]
        bad = sum(
            not o.converged or float(np.max(np.abs(o.x + 1.0))) > CYCLIC_ROOT_TOL for o in traces
        )
        return len(traces), bad


def generate_starts(seed: int) -> list[tuple[str, np.ndarray]]:
    """Each problem's start plus offsets in [-STARTS_SPREAD, STARTS_SPREAD]^dim."""
    rng = np.random.default_rng(seed)
    starts = []
    for name in STARTS_PROBLEMS:
        base = registry_get(name).start
        unit = (halton(STARTS_PER_PROBLEM, base.size) + rng.uniform(size=base.size)) % 1.0
        for offset in STARTS_SPREAD * (2.0 * unit - 1.0):
            x0 = base + offset
            x0.setflags(write=False)
            starts.append((name, x0))
    return starts


def halton(count: int, dim: int) -> np.ndarray:
    """Points 1..count of the Halton sequence in [0, 1)^dim, bases 2, 3, 5."""
    bases = (2, 3, 5)
    if dim > len(bases):
        raise ValueError(f"halton: dim {dim} above {len(bases)}")
    points = np.zeros((count, dim))
    for j, base in enumerate(bases[:dim]):
        index, scale = np.arange(1, count + 1), 1.0
        while index.any():
            scale /= base
            points[:, j] += scale * (index % base)
            index //= base
    return points


class Starts(Workload):
    """Seeded random starts for a, b, c and e, each solved with m = 1..4."""

    name = "starts"
    solves_per_pass = len(STARTS_PROBLEMS) * STARTS_PER_PROBLEM * len(STARTS_MS)

    def __init__(self, seed: int):
        configs = [SolverConfig(m=m) for m in STARTS_MS]
        self.jobs = [
            (dataclasses.replace(registry_get(name), start=x0), config)
            for name, x0 in generate_starts(seed)
            for config in configs
        ]

    def run_pass(self, tracer):
        return _solve_all(tracer, self.jobs)

    def check(self, result):
        bad = 0
        for (problem, config), o in zip(self.jobs, result.log.outcomes):
            if _raised(o):
                continue
            ok = len(o.outer_iterates) == len(o.residual_norms)
            if o.converged:
                raw = registry_get(problem.name).residual
                ok = ok and float(np.linalg.norm(raw(o.x))) <= config.tol
            bad += not ok
        return sum(not _raised(o) for o in result.log.outcomes), bad


def _solve_all(tracer, jobs) -> PassResult:
    """Solve each (problem, config) in turn; an exception ends only its solve."""
    log = SolveLog()
    traced_solve = tracer.wrap(SOLVE, solve)
    jobs = [(tracer.problem(problem), config) for problem, config in jobs]
    start = perf_counter()
    for problem, config in jobs:
        try:
            log.call(traced_solve, problem, config)
        except Exception:
            pass  # recorded in the log; counted as failed
    return PassResult(perf_counter() - start, log)


WORKLOADS = {w.name: w for w in (Grid, Cyclic, Starts)}
