import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import shamanskii.cli as cli_mod
from shamanskii.cli import main
from shamanskii.problems import registry_get

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

    def test_numerical_failure_exits_2(self):
        assert self.run_module("suite", "--problems", "b", "--max-outer", "1").returncode == 2
