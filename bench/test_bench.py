"""Self-tests of the benchmark harness.

    python3 -m pytest bench

They check that the harness notices what it is meant to notice: a wrong
answer, a solve that raises, a package that is missing.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import run

run.import_package()

import workloads  # noqa: E402
from shamanskii import analysis  # noqa: E402
from tracing import NullTracer, Tracer, totals  # noqa: E402

# Diverging starts overflow in numpy; the harness silences the same warnings.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _measure(workload):
    """Warm-up pass, then MIN_PASSES checked passes, as a run makes them."""
    reference = workload.run_pass(NullTracer())
    m = run.measure(workload, reference, seconds=0.0, probe=lambda: 1.0, probes=1)
    metrics, extra = run.end_to_end(workload, m)
    return m.plain, {name: value for name, (value, _) in {**metrics, **extra}.items()}


def _wrong_x(solve):
    def wrong(problem, config):
        trace = solve(problem, config)
        trace.outer_iterates[-1] = trace.outer_iterates[-1] + 1e-3
        return trace

    return wrong


def test_grid_passes_its_checks():
    _, metrics = _measure(workloads.Grid(seed=1))
    assert metrics["mismatch_frac"] == 0.0
    assert metrics["failed_frac"] == 0.0


def test_wrong_answer_gives_mismatches(monkeypatch):
    monkeypatch.setattr(workloads, "solve", _wrong_x(workloads.solve))
    _, metrics = _measure(workloads.Starts(seed=1))
    assert metrics["mismatch_frac"] > 0.0


def test_wrong_grid_count_gives_mismatches(monkeypatch):
    solve = analysis.solve

    def one_more_step(problem, config):
        trace = solve(problem, config)
        trace.it_inv += problem.name == "b" and config.m == 2
        return trace

    monkeypatch.setattr(analysis, "solve", one_more_step)
    _, metrics = _measure(workloads.Grid(seed=1))
    assert metrics["mismatch_frac"] > 0.0


def test_raising_residual_counts_as_failed():
    workload = workloads.Cyclic(seed=1)

    def residual(x):
        raise RuntimeError("injected")

    workload.problem = dataclasses.replace(workload.problem, residual=residual)
    plain, metrics = _measure(workload)
    assert metrics["failed_frac"] == 1.0
    assert sum(p.raised for p in plain) == sum(p.attempted for p in plain) > 0


def test_starts_generation_repeats_bit_for_bit():
    first, second = workloads.generate_starts(7), workloads.generate_starts(7)
    assert [(n, x.tobytes()) for n, x in first] == [(n, x.tobytes()) for n, x in second]
    other = workloads.generate_starts(8)
    assert [x.tobytes() for _, x in first] != [x.tobytes() for _, x in other]


def test_traced_grid_counts_match_the_readme_grid():
    workload = workloads.Grid(seed=1)
    tracer = Tracer()
    bound = analysis.solve
    with tracer.installed():
        result = workload.run_pass(tracer)
    assert analysis.solve is bound
    spans = totals(tracer.spans)
    assert workload.check(result) == (workload.solves_per_pass + 3, 0)
    assert spans.calls["solver.solve"] == workload.solves_per_pass
    assert spans.calls["linalg.lu_factor"] == sum(v[0] for v in workloads.README_GRID.values())
    assert spans.calls["linalg.lu_solve"] == sum(v[1] for v in workloads.README_GRID.values())
    # Self times partition the top-level spans, which lie inside the pass.
    top = sum(s.end - s.start for s in tracer.spans if s.parent is None)
    assert abs(spans.self_sum - top) < 1e-9 * len(tracer.spans)
    assert top <= result.seconds


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(run.__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    workload = workloads.Grid(seed=1)
    reference = workload.run_pass(NullTracer())
    m = run.measure(workload, reference, seconds=0.0, probe=lambda: 1.0, probes=1)
    assert list(run.end_to_end(workload, m)[0]) == [e["name"] for e in spec["end_to_end"]]
    m = run.measure(workload, reference, seconds=0.0, tracer=Tracer())
    assert list(run.per_layer(m)) == [e["name"] for e in spec["per_layer"]]


def test_exits_nonzero_without_the_package(tmp_path):
    bench = Path(run.__file__).resolve().parent
    shutil.copytree(bench, tmp_path / bench.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path)
    probe = subprocess.run(
        [sys.executable, f"{bench.name}/run.py", "--workload", "grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert probe.returncode != 0
    assert not any(line.startswith("{") for line in probe.stdout.splitlines())
