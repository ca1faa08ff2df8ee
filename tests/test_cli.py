import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shamanskii.cli as cli_mod
from shamanskii.analysis import SuiteCell, SuiteReport
from shamanskii.cli import main, render_json, render_table
from shamanskii.problems import registry_get
from shamanskii.solver import SolveStatus

CELL_RE = re.compile(r"^(\d+) \((\d+)\) (\S+)$")

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_table(text):
    """-> {(problem, m): (it_inv, it_tot, rho_text)}"""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = re.split(r"\s{2,}", lines[0].strip())
    ms = [int(h.split("=")[1]) for h in header[1:]]
    cells = {}
    for line in lines[1:]:
        fields = re.split(r"\s{2,}", line.strip())
        name = fields[0]
        for m, cell in zip(ms, fields[1:]):
            it_inv, it_tot, rho = CELL_RE.match(cell).groups()
            cells[(name, m)] = (int(it_inv), int(it_tot), rho)
    return cells


class TestRun:
    def test_reference_counts_in_output(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--problem", "b", "--m", "2")
        assert code == 0
        assert "it_inv=4 it_tot=8" in out
        assert "status=Converged" in out

    def test_unknown_problem(self, capsys):
        code, out, err = run_cli(capsys, "run", "--problem", "z", "--m", "1")
        assert code == 1
        assert "unknown problem" in err
        assert out == ""

    def test_loose_tolerance_needs_fewer_outer_iterations(self, capsys):
        pattern = re.compile(r"it_inv=(\d+)")
        _, tight, _ = run_cli(capsys, "run", "--problem", "b", "--m", "1")
        _, loose, _ = run_cli(capsys, "run", "--problem", "b", "--m", "1", "--tol", "1e-3")
        assert int(pattern.search(loose)[1]) < int(pattern.search(tight)[1])

    def test_verbose_prints_residual_per_outer_iteration(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--problem", "e", "--m", "1", "--verbose")
        assert code == 0
        residual_lines = [ln for ln in out.splitlines() if ln.startswith("outer ")]
        it_inv = int(re.search(r"it_inv=(\d+)", out)[1])
        assert len(residual_lines) == it_inv + 1
        assert "outer 0: residual=" in out

    def test_solver_failure_exits_2(self, capsys):
        code, out, _ = run_cli(capsys, "run", "--problem", "a", "--m", "1", "--max-outer", "1")
        assert code == 2
        assert "status=MaxIterations" in out

    def test_missing_problem_flag(self, capsys):
        code, _, err = run_cli(capsys, "run")
        assert code == 1
        assert "error" in err

    def test_invalid_m(self, capsys):
        code, _, err = run_cli(capsys, "run", "--problem", "b", "--m", "0")
        assert code == 1
        assert "positive" in err

    @pytest.mark.parametrize("tol", ["inf", "1e400", "nan"])
    def test_non_finite_tol(self, capsys, tol):
        # an infinite tolerance would report the start point as converged
        code, out, err = run_cli(capsys, "run", "--problem", "e", "--tol", tol)
        assert code == 1
        assert out == ""
        assert "tol must be a finite positive number" in err


class TestSuite:
    def test_csv_default_grid(self, capsys):
        code, out, _ = run_cli(capsys, "suite", "--format", "csv")
        assert code == 0
        assert "\r" not in out
        lines = out.splitlines()
        assert lines[0] == "problem,m,it_inv,it_tot,rho,status,final_residual"
        assert len(lines) == 21
        for line in lines[1:]:
            assert len(line.split(",")) == 7

    def test_default_grid_follows_the_registry(self, capsys, monkeypatch):
        monkeypatch.setattr(cli_mod, "registry_names", lambda: ["b", "e"])
        code, out, _ = run_cli(capsys, "suite", "--format", "csv", "--ms", "1")
        assert code == 0
        assert [line.split(",")[0] for line in out.splitlines()[1:]] == ["b", "e"]

    def test_table_renders_na_cell(self, capsys):
        code, out, _ = run_cli(capsys, "suite")
        assert code == 0
        row_a = next(ln for ln in out.splitlines() if ln.startswith("a "))
        assert "2 (8) NA" in row_a

    def test_default_table_matches_readme(self, capsys):
        readme_grid = re.search(r"```\n(problem  m=1.*?\n)```", README.read_text(), re.S)[1]
        code, out, _ = run_cli(capsys, "suite")
        assert code == 0
        assert out == readme_grid

    def test_singleton_grid(self, capsys):
        _, out, _ = run_cli(capsys, "suite", "--problems", "b", "--ms", "1")
        cells = parse_table(out)
        assert list(cells) == [("b", 1)]

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "suite", "--format", "json")
        assert code == 0
        records = json.loads(out)
        assert len(records) == 20
        keys = {"problem", "m", "it_inv", "it_tot", "rho", "status", "final_residual"}
        for rec in records:
            assert set(rec) == keys
            assert rec["rho"] is None or isinstance(rec["rho"], float)
        na = [r for r in records if r["problem"] == "a" and r["m"] == 4]
        assert na[0]["rho"] is None

    def test_json_has_the_layout_of_json_dumps(self, capsys):
        # render_json writes indent=2's layout from json's C encoder, whose
        # output may differ between Python versions
        code, out, _ = run_cli(capsys, "suite", "--format", "json")
        assert code == 0
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_format_parity(self, capsys):
        _, table_out, _ = run_cli(capsys, "suite")
        _, csv_out, _ = run_cli(capsys, "suite", "--format", "csv")
        _, json_out, _ = run_cli(capsys, "suite", "--format", "json")

        from_table = parse_table(table_out)
        from_csv = {}
        for line in csv_out.splitlines()[1:]:
            name, m, it_inv, it_tot, rho, _, _ = line.split(",")
            from_csv[(name, int(m))] = (int(it_inv), int(it_tot), rho)
        from_json = {}
        for rec in json.loads(json_out):
            rho = "NA" if rec["rho"] is None else f"{rec['rho']:.4f}"
            from_json[(rec["problem"], rec["m"])] = (rec["it_inv"], rec["it_tot"], rho)

        assert from_table == from_csv == from_json

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_output_is_deterministic(self, capsys, fmt):
        _, first, _ = run_cli(capsys, "suite", "--format", fmt)
        _, second, _ = run_cli(capsys, "suite", "--format", fmt)
        assert first == second

    def test_failing_cell_rendered_inline_and_exits_2(self, capsys):
        code, out, _ = run_cli(capsys, "suite", "--problems", "a", "--ms", "1", "--max-outer", "1")
        assert code == 2
        assert "MaxIterations" in out

    def test_unknown_problem(self, capsys):
        code, _, err = run_cli(capsys, "suite", "--problems", "a,q")
        assert code == 1
        assert "unknown problem" in err

    @pytest.mark.parametrize("ms", ["0", "x", "1,0", ",,"])
    def test_invalid_ms(self, capsys, ms):
        code, _, err = run_cli(capsys, "suite", "--ms", ms)
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("problems", [",", ""])
    def test_empty_problem_list(self, capsys, problems):
        code, out, err = run_cli(capsys, "suite", "--problems", problems)
        assert code == 1
        assert "error" in err
        assert out == ""

    def test_invalid_format(self, capsys):
        code, _, err = run_cli(capsys, "suite", "--format", "xml")
        assert code == 1


def report_of(cells, problems=None, ms=None):
    """A hand-built report; its problems and ms default to those of its cells."""
    problems = tuple(dict.fromkeys(c.problem for c in cells)) if problems is None else problems
    ms = tuple(dict.fromkeys(c.m for c in cells)) if ms is None else ms
    return SuiteReport(tuple(problems), tuple(ms), tuple(cells))


def cell_of(problem="a", m=1, it_inv=3, it_tot=3, rho=2.0,
            status=SolveStatus.CONVERGED, final_residual=1e-17):
    return SuiteCell(problem, m, it_inv, it_tot, rho, status, final_residual)


def json_oracle(report):
    """render_json as written for json's pure-Python encoder, which indent=2 selects."""
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


def table_oracle(report):
    """render_table as written with one report.cell scan per cell."""
    header = ["problem"] + [f"m={m}" for m in report.ms]
    rows = [header]
    for name in report.problems:
        rows.append([name] + [cli_mod._cell_text(report.cell(name, m)) for m in report.ms])
    widths = [max(len(row[j]) for row in rows) for j in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]
    return "\n".join(lines) + "\n"


NON_FINITE = [math.nan, math.inf, -math.inf]
# quotes, backslashes, newlines and the characters of a record boundary, and
# characters outside ASCII, which json escapes
NAME_CHARACTERS = '"\\\n\t}{,: ab\u00e9\u2211\U0001f600'
names = st.text(NAME_CHARACTERS, max_size=12) | st.text(max_size=6)
rhos = st.none() | st.sampled_from([*NON_FINITE, 0.0, -0.0]) | st.floats(
    min_value=-2.2250738585072014e-308, max_value=2.2250738585072014e-308
) | st.floats(allow_nan=False, allow_infinity=False)
cells = st.builds(
    SuiteCell,
    problem=names,
    m=st.integers(1, 64),
    it_inv=st.integers(0, 100),
    it_tot=st.integers(0, 6400),
    rho=rhos,
    status=st.sampled_from(SolveStatus),
    final_residual=st.sampled_from(NON_FINITE) | st.floats(allow_nan=False, allow_infinity=False),
)


class TestRenderers:
    """The renderers give the bytes of their plain formulations, kept above as oracles."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(cells, max_size=4))
    @example([])
    @example([cell_of()])
    @example([cell_of(rho=None, status=SolveStatus.MAX_ITERATIONS, final_residual=math.nan)])
    def test_json_is_json_dumps_with_indent_2(self, drawn):
        report = report_of(drawn)
        assert render_json(report) == json_oracle(report)

    @pytest.mark.parametrize("name", ["a},\n    {b", "a},\\n    {b", "},\n  },\n  {\n    {"],
                             ids=["raw", "escaped", "rewritten"])
    def test_json_names_holding_a_record_boundary(self, name):
        report = report_of([cell_of(name), cell_of(name, 2), cell_of("b", 1)])
        out = render_json(report)
        assert out == json_oracle(report)
        assert [r["problem"] for r in json.loads(out)] == [name, name, "b"]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.sampled_from("abc"), max_size=3),
        st.lists(st.integers(1, 3), max_size=3),
        st.lists(st.builds(cell_of, st.sampled_from("abc"), st.integers(1, 3),
                           st.integers(0, 20), st.integers(0, 20)), max_size=12),
    )
    def test_table_reads_cells_as_report_cell_does(self, problems, ms, drawn):
        # out of order, duplicated and missing cells
        report = report_of(drawn, problems, ms)
        try:
            expected = table_oracle(report)
        except KeyError as exc:
            with pytest.raises(KeyError) as raised:
                render_table(report)
            assert raised.value.args == exc.args
        else:
            assert render_table(report) == expected

    def test_table_takes_the_first_of_duplicate_cells(self):
        report = report_of([cell_of("b", 2, 7, 14), cell_of("a", 2, 1, 2), cell_of("b", 2, 9, 18)],
                           ("a", "b"), (2,))
        assert render_table(report) == "problem  m=2\na        1 (2) 2.0000\nb        7 (14) 2.0000\n"
        assert render_table(report) == table_oracle(report)

    def test_table_missing_cell_raises_as_report_cell(self):
        report = report_of([cell_of("a", 1)], ("a", "b"), (1,))
        with pytest.raises(KeyError) as expected:
            report.cell("b", 1)
        with pytest.raises(KeyError) as raised:
            render_table(report)
        assert raised.value.args == expected.value.args == ("no cell for problem 'b', m=1",)


class TestCheckJacobians:
    def test_registry_passes(self, capsys):
        code, out, _ = run_cli(capsys, "check-jacobians")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        assert all("ok" in ln for ln in lines)

    def test_corrupted_jacobian_fails_with_indices(self, capsys, monkeypatch):
        clean = registry_get("b")
        corrupted = dataclasses.replace(
            clean,
            jacobian=lambda x: np.array([[2.0 * x[0], -2.0 * x[1]], [2.0 * x[0], -2.0 * x[1]]]),
        )
        monkeypatch.setattr(cli_mod, "registry_names", lambda: ["b"])
        monkeypatch.setattr(cli_mod, "registry_get", lambda name: corrupted)
        code, out, _ = run_cli(capsys, "check-jacobians")
        assert code == 2
        assert "FAIL" in out
        assert "(0, 1)" in out


class TestListProblems:
    def test_lists_all(self, capsys):
        code, out, _ = run_cli(capsys, "list-problems")
        assert code == 0
        for name, dim in [("a", 2), ("b", 2), ("c", 3), ("d", 31), ("e", 2)]:
            assert re.search(rf"^{name}\s+dim={dim}\b", out, re.MULTILINE)
        assert "[-2] * 31" in out


class TestUsage:
    def test_no_command(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1

    def test_help_exits_0(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "suite" in out


class TestUsageErrors:
    """Every usage error takes argparse's error path and exits 1."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("run", "--problem", "nope"),
            ("suite", "--problems", "a,q"),
            ("suite", "--problems", ","),
            ("suite", "--ms", ",,"),
            ("suite", "--ms", "0"),
            ("suite", "--ms", "x"),
            ("suite", "--ms", "1,0"),
            ("run", "--problem", "b", "--m", "0"),
            ("run", "--problem", "e", "--tol", "nan"),
            ("suite", "--tol", "inf"),
            ("suite", "--max-outer", "0"),
            ("suite", "--format", "xml"),
            ("suite", "--bogus"),
            (),
        ],
        ids=" ".join,
    )
    def test_prints_usage_and_error_and_exits_1(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("usage: shamanskii")
        assert ": error: " in err

    @pytest.mark.parametrize("argv", [("suite", "--ms", "0"), ("suite", "--ms", "2,0"),
                                      ("run", "--problem", "b", "--m", "0")])
    def test_m_takes_solver_configs_rule(self, capsys, argv):
        _, _, err = run_cli(capsys, *argv)
        assert "m must be a positive integer" in err


class TestModuleEntryPoint:
    """``python -m shamanskii`` runs the same ``main`` in a fresh interpreter."""

    @staticmethod
    def run_module(*argv):
        src = str(Path(cli_mod.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        return subprocess.run([sys.executable, "-m", "shamanskii", *argv], env=env,
                              capture_output=True, text=True, timeout=60)

    def test_list_problems(self):
        done = self.run_module("list-problems")
        assert done.returncode == 0
        assert len(done.stdout.splitlines()) == 5

    def test_run_prints_what_main_prints(self, capsys):
        argv = ("run", "--problem", "b", "--m", "2")
        _, out, _ = run_cli(capsys, *argv)
        done = self.run_module(*argv)
        assert done.returncode == 0
        assert done.stdout == out

    def test_usage_error_exits_1(self):
        assert self.run_module("run", "--problem", "nope").returncode == 1

    def test_ms_usage_error_exits_1(self):
        done = self.run_module("suite", "--ms", "0")
        assert done.returncode == 1
        assert done.stdout == ""
        assert "m must be a positive integer" in done.stderr

    def test_numerical_failure_exits_2(self):
        assert self.run_module("suite", "--problems", "b", "--max-outer", "1").returncode == 2
