"""In-memory span tracing for the benchmark's traced run.

Every public function the solver and the suite runner call is replaced, where
its caller looks it up, by a wrapper that records one span per call: name,
start, end, parent span, solve id, the system size for the LU kernels and the
exception type if the call raised.  Problem copies get wrapped ``residual``
and ``jacobian`` callables.  Nothing inside ``src/`` is changed.
"""
from __future__ import annotations

import dataclasses
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple

from shamanskii import analysis, registry_get, solver

SOLVE = "solver.solve"


class Span(NamedTuple):
    """One call.  A tuple of atomic fields, which the garbage collector stops
    tracking, so that a pass's many spans do not slow its collections."""

    name: str
    start: float
    end: float
    parent: int | None
    solve_id: int | None
    n: int | None
    error: str | None


class Tracer:
    """Records spans of one pass at a time; :meth:`reset` starts the next."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._solve_id: int | None = None
        self._solves = 0
        self._problems: dict[int, object] = {}

    def reset(self):
        self.spans, self._stack, self._solve_id, self._solves = [], [], None, 0

    def wrap(self, name, fn, size=None):
        """``fn`` with one span per call; ``size(*args)`` gives the span's n."""

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(index)
            if name == SOLVE:
                self._solve_id = self._solves
                self._solves += 1
            error = None
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                n = size(*args) if size is not None else None
                self.spans[index] = Span(name, start, end, parent, self._solve_id, n, error)
                if name == SOLVE:
                    self._solve_id = None

        return traced

    def problem(self, problem):
        """A copy of ``problem`` whose residual and Jacobian record spans."""
        key = id(problem)
        if key not in self._problems:
            self._problems[key] = dataclasses.replace(
                problem,
                residual=self.wrap("problems.residual", problem.residual),
                jacobian=self.wrap("problems.jacobian", problem.jacobian),
            )
        return self._problems[key]

    @contextmanager
    def installed(self):
        """Bind the wrappers where ``solver`` and ``analysis`` look them up."""
        bindings = [
            (solver, "lu_factor", self.wrap("linalg.lu_factor", solver.lu_factor, len)),
            (solver, "lu_solve", self.wrap("linalg.lu_solve", solver.lu_solve,
                                           lambda factors, b: factors.n)),
            (solver, "norm2", self.wrap("linalg.norm2", solver.norm2)),
            (solver, "evaluate_f", self.wrap("problems.evaluate_f", solver.evaluate_f)),
            (solver, "evaluate_jacobian",
             self.wrap("problems.evaluate_jacobian", solver.evaluate_jacobian)),
            (analysis, "solve", self.wrap(SOLVE, analysis.solve)),
            (analysis, "estimate_coc", self.wrap("analysis.estimate_coc", analysis.estimate_coc)),
            (analysis, "registry_get", lambda name: self.problem(registry_get(name))),
        ]
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in bindings]
        try:
            for module, attr, fn in bindings:
                setattr(module, attr, fn)
            yield self
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)


class NullTracer:
    """The untraced run: every call goes straight to the package."""

    def wrap(self, name, fn, size=None):
        return fn

    def problem(self, problem):
        return problem


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            children[span.parent] += span.end - span.start
    return [span.end - span.start - c for span, c in zip(spans, children)]


@dataclasses.dataclass
class SpanTotals:
    """Per-name totals over the spans of one pass; times in seconds.

    The ``*_by_n`` totals cover the calls that returned, keyed by (name, n).
    """

    calls: dict[str, int]
    seconds: dict[str, float]
    self_seconds: dict[str, float]
    errors: dict[tuple[str, str], int]
    calls_by_n: dict[tuple[str, int], int]
    seconds_by_n: dict[tuple[str, int], float]

    @property
    def self_sum(self) -> float:
        return sum(self.self_seconds.values())


def totals(spans: list[Span]) -> SpanTotals:
    calls, errors, calls_by_n = defaultdict(int), defaultdict(int), defaultdict(int)
    seconds, self_seconds, seconds_by_n = defaultdict(float), defaultdict(float), defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        duration = span.end - span.start
        calls[span.name] += 1
        seconds[span.name] += duration
        self_seconds[span.name] += own
        if span.error is not None:
            errors[span.name, span.error] += 1
        if span.n is not None and span.error is None:
            calls_by_n[span.name, span.n] += 1
            seconds_by_n[span.name, span.n] += duration
    return SpanTotals(*(dict(d) for d in (calls, seconds, self_seconds, errors, calls_by_n, seconds_by_n)))
