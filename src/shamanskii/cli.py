"""Command-line harness: single runs, the benchmark grid, Jacobian checks.

Exit codes: 0 success, 1 usage error, 2 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from .analysis import SuiteReport, estimate_coc, run_suite
from .problems import check_jacobian, registry_get, registry_names
from .solver import TOL_DEFAULT, SolverConfig, SolveStatus, solve

__all__ = ["main", "render_table", "render_csv", "render_json"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILURE = 2

# Analytic and central-difference Jacobians must agree to this relative level.
JACOBIAN_RTOL = 1e-5

_DEFAULT_PROBLEMS = "a,b,c,d,e"
_DEFAULT_MS = "1,2,3,4"


def _fmt_rho(rho: float | None) -> str:
    return "NA" if rho is None else f"{rho:.4f}"


def _cell_text(cell) -> str:
    tag = _fmt_rho(cell.rho) if cell.status is SolveStatus.CONVERGED else cell.status.value
    return f"{cell.it_inv} ({cell.it_tot}) {tag}"


def render_table(report: SuiteReport) -> str:
    """Aligned grid: one row per problem, one column per m."""
    header = ["problem"] + [f"m={m}" for m in report.ms]
    rows = [header]
    for name in report.problems:
        rows.append([name] + [_cell_text(report.cell(name, m)) for m in report.ms])
    widths = [max(len(row[j]) for row in rows) for j in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines) + "\n"


def render_csv(report: SuiteReport) -> str:
    lines = ["problem,m,it_inv,it_tot,rho,status,final_residual"]
    for c in report.cells:
        lines.append(
            f"{c.problem},{c.m},{c.it_inv},{c.it_tot},{_fmt_rho(c.rho)},"
            f"{c.status.value},{c.final_residual:.6e}"
        )
    return "\n".join(lines) + "\n"


def render_json(report: SuiteReport) -> str:
    records = []
    for c in report.cells:
        records.append(
            {
                "problem": c.problem,
                "m": c.m,
                "it_inv": c.it_inv,
                "it_tot": c.it_tot,
                "rho": None if c.rho is None else round(c.rho, 4),
                "status": c.status.value,
                "final_residual": c.final_residual if math.isfinite(c.final_residual) else None,
            }
        )
    return json.dumps(records, indent=2) + "\n"


_RENDERERS = {"table": render_table, "csv": render_csv, "json": render_json}


class _Parser(argparse.ArgumentParser):
    # Usage problems must exit 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _problem(name: str):
    try:
        return registry_get(name)
    except LookupError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _problem_names(text: str) -> list[str]:
    names = [s for s in text.split(",") if s]
    if not names:
        raise argparse.ArgumentTypeError("expects at least one problem name")
    for name in names:
        _problem(name)
    return names


def _ms(text: str) -> list[int]:
    try:
        ms = [int(s) for s in text.split(",") if s]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects comma-separated integers, got {text!r}") from None
    if not ms:
        raise argparse.ArgumentTypeError("expects at least one m value")
    if any(m < 1 for m in ms):
        raise argparse.ArgumentTypeError("all m values must be >= 1")
    return ms


def _add_solver_flags(parser):
    parser.add_argument("--tol", type=float, default=TOL_DEFAULT,
                        help="residual tolerance (default: 10 times machine epsilon)")
    parser.add_argument("--max-outer", type=int, default=SolverConfig.max_outer,
                        help="cap on outer iterations (default: %(default)s)")
    parser.add_argument("--inner-early-exit", action="store_true",
                        help="also test convergence after each inner update")


def cmd_run(args) -> int:
    trace = solve(args.problem, args.config)
    if args.verbose:
        for k, res in enumerate(trace.residual_norms):
            print(f"outer {k}: residual={res:.6e}")
    rho = estimate_coc(trace).rho
    print(
        f"problem={args.problem.name} m={args.config.m} status={trace.status.value} "
        f"it_inv={trace.it_inv} it_tot={trace.it_tot} "
        f"final_residual={trace.final_residual:.6e} rho={_fmt_rho(rho)}"
    )
    return EXIT_OK if trace.converged else EXIT_FAILURE


def cmd_suite(args) -> int:
    report = run_suite(args.problems, args.ms, args.config)
    sys.stdout.write(_RENDERERS[args.format](report))
    return EXIT_OK if report.all_converged else EXIT_FAILURE


def cmd_check_jacobians(args) -> int:
    failed = False
    for name in registry_names():
        result = check_jacobian(registry_get(name))
        note = f" ({result.points_skipped} point(s) skipped: outside domain)" \
            if result.points_skipped else ""
        if result.max_rel_error <= JACOBIAN_RTOL:
            print(
                f"problem {name}: ok, max relative error {result.max_rel_error:.3e} "
                f"over {result.points_checked} points{note}"
            )
        else:
            failed = True
            i, j = result.worst_entry
            detail = f"max relative error {result.max_rel_error:.3e} at entry ({i}, {j})" \
                if result.points_checked else "no point checked"
            print(f"problem {name}: FAIL, {detail}{note}")
    return EXIT_FAILURE if failed else EXIT_OK


def cmd_list_problems(args) -> int:
    for name in registry_names():
        p = registry_get(name)
        print(f"{name}  dim={p.dim:<3d} start={_fmt_start(p.start)}  F(x) = {p.description}")
    return EXIT_OK


def _fmt_start(start) -> str:
    values = [float(v) for v in start]
    if len(values) > 4 and len(set(values)) == 1:
        return f"[{values[0]:g}] * {len(values)}"
    return "[" + ", ".join(f"{v:g}" for v in values) + "]"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="shamanskii",
                     description="Frozen-Jacobian Newton solver and benchmark harness.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="solve one problem")
    run.add_argument("--problem", type=_problem, required=True,
                     help="problem name (see list-problems)")
    run.add_argument("--m", type=int, default=SolverConfig.m,
                     help="inner updates per factorization (default: %(default)s)")
    _add_solver_flags(run)
    run.add_argument("--verbose", "-v", action="store_true",
                     help="print the residual after every outer iteration")
    run.set_defaults(func=cmd_run)

    suite = sub.add_parser("suite", help="run the benchmark grid")
    suite.add_argument("--problems", type=_problem_names, default=_DEFAULT_PROBLEMS,
                       help=f"comma-separated problem names (default: {_DEFAULT_PROBLEMS})")
    suite.add_argument("--ms", type=_ms, default=_DEFAULT_MS,
                       help=f"comma-separated m values (default: {_DEFAULT_MS})")
    _add_solver_flags(suite)
    suite.add_argument("--format", choices=sorted(_RENDERERS), default="table",
                       help="output format (default: table)")
    suite.set_defaults(func=cmd_suite)

    check = sub.add_parser("check-jacobians",
                           help="compare analytic and finite-difference Jacobians")
    check.set_defaults(func=cmd_check_jacobians)

    listing = sub.add_parser("list-problems", help="list the built-in problems")
    listing.set_defaults(func=cmd_list_problems)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if "tol" in args:
            try:
                # run and suite carry the solver flags; suite sets m per grid cell
                args.config = SolverConfig(m=getattr(args, "m", SolverConfig.m), tol=args.tol,
                                           max_outer=args.max_outer,
                                           inner_early_exit=args.inner_early_exit)
            except ValueError as exc:
                parser.error(str(exc))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
