"""Benchmark of the shamanskii package: one workload per run, one thread.

    python3 bench/run.py --workload {grid,cyclic,starts} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  Load is closed-loop: each solve starts when the previous
one returns, for ``--seconds`` seconds of passes over the workload's inputs.
With ``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes and reports per-layer metrics from
the traced ones.  Every metric is printed as ``name value unit``; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Each run also writes
``bench/results/BENCH_<workload>_seed<N>_trace<T>.json`` with the machine and
environment it ran on.
"""
from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy can be imported.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from array import array  # noqa: E402
from collections import Counter  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
RESULTS = BENCH / "results"

# The keys of workloads.WORKLOADS, known before numpy is imported.
WORKLOAD_NAMES = ("grid", "cyclic", "starts")
# Fresh interpreters timed for setup_s, spread over the run; the fastest counts.
SETUP_REPS = 11
# Each timed series gets at least this many passes, however long they take.
MIN_PASSES = 3
# System sizes the per-size LU metrics are reported at (0 where a workload has none).
LU_SIZES = (2, 3, 31, 301)
STATUSES = ("Converged", "MaxIterations", "SingularJacobian", "NonFiniteIterate", "DomainViolation")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package():
    """Import shamanskii from this checkout's src/, never from elsewhere."""
    if not (SRC / "shamanskii" / "__init__.py").is_file():
        raise SystemExit(f"error: no shamanskii package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import shamanskii

    if not Path(shamanskii.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: shamanskii imported from {shamanskii.__file__}, not {SRC}")


def setup(name: str, seed: int):
    """Import, make the inputs and run one warm-up pass; return its time too."""
    start = perf_counter()
    import_package()
    from tracing import NullTracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    reference = workload.run_pass(NullTracer())
    return perf_counter() - start, workload, reference


def setup_probe(name: str, seed: int) -> float:
    """Set-up time of a fresh interpreter: import, inputs and a warm-up pass."""
    probe = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(probe.stdout.split()[-1])


@dataclasses.dataclass
class PassSummary:
    """What a pass leaves behind once its traces are dropped."""

    seconds: float
    solve_seconds: array
    attempted: int
    raised: int
    statuses: Counter
    it_inv: int
    it_tot: int
    spans: object = None  # tracing.SpanTotals of a traced pass


def summarize(result, spans=None) -> PassSummary:
    traces = [o for o in result.log.outcomes if not isinstance(o, Exception)]
    return PassSummary(
        seconds=result.seconds,
        solve_seconds=array("d", result.log.seconds),
        attempted=len(result.log.outcomes),
        raised=len(result.log.outcomes) - len(traces),
        statuses=Counter(t.status.value for t in traces),
        it_inv=sum(t.it_inv for t in traces),
        it_tot=sum(t.it_tot for t in traces),
        spans=spans,
    )


@dataclasses.dataclass
class Measurement:
    plain: list[PassSummary] = dataclasses.field(default_factory=list)
    traced: list[PassSummary] = dataclasses.field(default_factory=list)
    checked: int = 0  # outputs checked
    bad: int = 0  # outputs that failed their check
    setup_seconds: list[float] = dataclasses.field(default_factory=list)


def measure(workload, reference, seconds, tracer=None, probe=None, probes=0) -> Measurement:
    """Passes for ``seconds``; with a tracer, every other pass is traced.

    Each pass's outputs are checked, and must equal the warm-up pass's.  The
    ``probes`` calls of ``probe`` are spread evenly over the run, so that one
    slow spell of the machine does not hit them all.  Neither the checks nor
    the probes count towards ``seconds``.
    """
    from tracing import NullTracer, totals

    m = Measurement()
    expected = reference.signature()
    start, paused = perf_counter(), 0.0
    while True:
        elapsed = perf_counter() - start - paused
        if len(m.setup_seconds) < probes and elapsed >= len(m.setup_seconds) * seconds / probes:
            before = perf_counter()
            m.setup_seconds.append(probe())
            paused += perf_counter() - before
            continue
        if (elapsed >= seconds and len(m.plain) >= MIN_PASSES
                and (tracer is None or len(m.traced) >= MIN_PASSES)):
            return m
        if tracer is not None and len(m.traced) < len(m.plain):
            with tracer.installed():
                tracer.reset()
                result = workload.run_pass(tracer)
            m.traced.append(summarize(result, totals(tracer.spans)))
        else:
            result = workload.run_pass(NullTracer())
            m.plain.append(summarize(result))
        before = perf_counter()
        n_checked, n_bad = workload.check(result)
        m.checked += n_checked + 1
        m.bad += n_bad + (result.signature() != expected)
        paused += perf_counter() - before


def fastest(m: Measurement) -> tuple[list[float], float]:
    """Min-of-N over the untraced passes: each solve's fastest time, and the
    fastest time a pass spent outside its solves."""
    n = max(len(p.solve_seconds) for p in m.plain)
    solves = [min(p.solve_seconds[i] for p in m.plain if i < len(p.solve_seconds))
              for i in range(n)]
    rest = min(p.seconds - sum(p.solve_seconds) for p in m.plain)
    return solves, rest


def end_to_end(workload, m: Measurement):
    """Timings are min-of-N: per solve over the passes of the run, and for
    set-up over the fresh interpreters.

    A slow spell of the shared machine only ever adds time, so the fastest
    run is the steadiest estimate.  Throughput counts a pass as the sum of
    the per-solve minima plus the fastest time outside the solves.
    """
    attempted = sum(p.attempted for p in m.plain)
    converged = sum(p.statuses["Converged"] for p in m.plain)
    solves, rest = fastest(m)
    deciles = statistics.quantiles(solves, n=10, method="inclusive")
    converged_frac = converged / attempted
    return {
        "setup_s": (min(m.setup_seconds), "s"),
        "solves_per_s": (workload.solves_per_pass / (sum(solves) + rest), "1/s"),
        "solve_ms_p50": (deciles[4] * 1e3, "ms"),
        "solve_ms_p90": (deciles[8] * 1e3, "ms"),
        "converged_frac": (converged_frac, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, {
        "failed_frac": (1.0 - converged_frac, "ratio"),
        "mismatch_frac": (m.bad / m.checked, "ratio"),
        "solves_timed": (len(solves), "count"),
        "passes": (len(m.plain), "count"),
        "setup_samples": (len(m.setup_seconds), "count"),
    }


def _same_counts(a: PassSummary, b: PassSummary) -> bool:
    return ((a.statuses, a.it_inv, a.it_tot) == (b.statuses, b.it_inv, b.it_tot)
            and (a.spans.calls, a.spans.errors, a.spans.calls_by_n)
            == (b.spans.calls, b.spans.errors, b.spans.calls_by_n))


def per_layer(m: Measurement):
    """Counts of the first traced pass; times are min-of-N over the passes."""
    plain, traced = m.plain, m.traced
    first = traced[0]
    spans = first.spans

    def calls(name):
        return spans.calls.get(name, 0)

    def errors(name, error):
        return spans.errors.get((name, error), 0)

    def us(field, key):
        return min(getattr(p.spans, field).get(key, 0.0) for p in traced) * 1e6

    metrics = {}
    # Operation counts are computed from n, not measured.
    flop_counts = (("linalg.lu_factor", lambda n: 2 * n**3 / 3), ("linalg.lu_solve", lambda n: 2 * n**2))
    for layer, flop in flop_counts:
        sizes = [n for name, n in spans.calls_by_n if name == layer]
        flops = sum(spans.calls_by_n[layer, n] * flop(n) for n in sizes)
        sized_us = min(sum(p.spans.seconds_by_n[layer, n] for n in sizes) for p in traced) * 1e6
        metrics[f"{layer}.calls"] = (calls(layer), "count")
        metrics[f"{layer}.us"] = (us("seconds", layer), "us")
        for n in LU_SIZES:
            n_calls = spans.calls_by_n.get((layer, n), 0)
            per_call = us("seconds_by_n", (layer, n)) / n_calls if n_calls else 0.0
            metrics[f"{layer}.us_per_call.n{n}"] = (per_call, "us")
        if layer == "linalg.lu_factor":
            metrics[f"{layer}.singular"] = (errors(layer, "SingularMatrix"), "count")
        metrics[f"{layer}.flops"] = (flops, "flop.computed")
        metrics[f"{layer}.gflops"] = (flops / sized_us * 1e-3 if sized_us else 0.0, "Gflop/s")
    metrics["linalg.norm2.calls"] = (calls("linalg.norm2"), "count")
    metrics["linalg.norm2.us"] = (us("seconds", "linalg.norm2"), "us")
    for name in ("problems.evaluate_f", "problems.evaluate_jacobian"):
        metrics[f"{name}.calls"] = (calls(name), "count")
        metrics[f"{name}.self_us"] = (us("self_seconds", name), "us")
    metrics["problems.residual.us"] = (us("seconds", "problems.residual"), "us")
    metrics["problems.jacobian.us"] = (us("seconds", "problems.jacobian"), "us")
    metrics["problems.domain_violations"] = (
        errors("problems.residual", "DomainViolation") + errors("problems.jacobian", "DomainViolation"),
        "count")
    metrics["solver.solve.calls"] = (calls("solver.solve"), "count")
    metrics["solver.solve.self_us"] = (us("self_seconds", "solver.solve"), "us")
    metrics["solver.it_inv"] = (first.it_inv, "count")
    metrics["solver.it_tot"] = (first.it_tot, "count")
    for status in STATUSES:
        metrics[f"solver.status.{status}"] = (first.statuses[status], "count")
    metrics["solver.converged_ratio"] = (first.statuses["Converged"] / first.attempted, "ratio")
    metrics["analysis.estimate_coc.us"] = (us("seconds", "analysis.estimate_coc"), "us")
    metrics["analysis.run_suite.self_us"] = (us("self_seconds", "analysis.run_suite"), "us")
    metrics["cli.render.us"] = (us("seconds", "cli.render"), "us")
    untraced = min(p.seconds for p in plain)
    metrics["trace.overhead_frac"] = (min(p.seconds for p in traced) / untraced - 1.0, "ratio")
    metrics["trace.self_sum_frac"] = (min(p.spans.self_sum for p in traced) / untraced - 1.0, "ratio")
    return metrics


def traub_log_index(reference, m: Measurement):
    """log(rho) / solve seconds per grid cell, min-of-N over untraced passes."""
    index = {}
    for cell, seconds in zip(reference.report.cells, fastest(m)[0]):
        key = f"traub.log_index.{cell.problem}.m{cell.m}"
        index[key] = (None if cell.rho is None else math.log(cell.rho) / seconds, "1/s")
    return index


def machine(seed: int) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas_thread_vars": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "seed": seed,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    warnings.simplefilter("ignore", RuntimeWarning)  # numpy overflow on diverging starts
    if args.setup_probe:
        print(repr(setup(args.workload, args.seed)[0]))
        return 0
    _, workload, reference = setup(args.workload, args.seed)
    from tracing import Tracer

    if args.trace:
        m = measure(workload, reference, args.seconds, tracer=Tracer())
        m.bad += sum(not _same_counts(m.traced[0], p) for p in m.traced[1:])
        metrics = per_layer(m)
        report_only = {"mismatch_frac": (m.bad / m.checked, "ratio")}
        if args.workload == "grid":
            report_only.update(traub_log_index(reference, m))
    else:
        probe = functools.partial(setup_probe, args.workload, args.seed)
        m = measure(workload, reference, args.seconds, probe=probe, probes=SETUP_REPS)
        metrics, report_only = end_to_end(workload, m)
    runs = m.plain + m.traced

    for name, (value, unit) in {**metrics, **report_only}.items():
        print(f"{name} {'NA' if value is None else f'{value:.6g}'} {unit}")
    result = {
        "correct": m.bad == 0,
        "attempted": sum(p.attempted for p in runs),
        "failed": sum(p.raised for p in runs),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(args.seed),
        **result,
        "report_only": {name: {"value": v, "unit": u} for name, (v, u) in report_only.items()},
    }
    path = RESULTS / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
