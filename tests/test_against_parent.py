"""tools/against_parent.py: line counts, per-solve lines, in-process CLI runs and report.

The full two-tree run takes a git checkout and two child processes; CI's
"Against the parent" step makes it.
"""
import dataclasses
import importlib.util
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import shamanskii
from shamanskii.cli import main
from shamanskii.linalg import SingularMatrix
from shamanskii.problems import registry_get
from shamanskii.solver import SolverConfig, SolveStatus, SolveTrace

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "against_parent.py"
_spec = importlib.util.spec_from_file_location("against_parent", TOOL)
against_parent = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(against_parent)

SNIPPET = '''"""A module docstring,
over two lines."""
# a comment

import os  # a comment after code


class Point:
    """A class docstring."""

    x = 1


def f(y):
    """A function docstring,

    over three lines."""
    text = """a string
that is not a docstring"""
    # a comment in a body
    return text, y
'''


def test_code_lines_drop_blank_comment_and_docstring_lines():
    # import, class, x = 1, def, the string's two lines and return
    assert against_parent.code_lines(SNIPPET) == 7
    assert against_parent.code_lines("") == 0


def test_line_table_counts_a_module_in_one_tree_as_empty_in_the_other(tmp_path):
    trees = {"parent": {"a.py": "x = 1\n"}, "change": {"a.py": "# c\nx = 1\n", "b.py": "y = 2\n"}}
    for tree, modules in trees.items():
        package = tmp_path / tree / "src" / "shamanskii"
        package.mkdir(parents=True)
        for name, text in modules.items():
            (package / name).write_text(text)
    rows = against_parent.line_table(tmp_path / "parent", tmp_path / "change").splitlines()
    assert [row.split() for row in rows[2:]] == [
        ["1", "2", "1", "1", "src/shamanskii/a.py"],
        ["0", "1", "0", "1", "src/shamanskii/b.py"],
        ["1", "3", "1", "2", "total"],
    ]


@pytest.mark.parametrize("command", ["list-problems", "run --problem b", "suite --ms 0"])
def test_cli_block_is_what_the_module_entry_prints(command):
    src = pathlib.Path(shamanskii.__file__).parents[1]
    done = subprocess.run([sys.executable, "-m", "shamanskii", *command.split()],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    expected = f"$ shamanskii {command}\n{done.stdout}exit {done.returncode}\n"
    assert against_parent.cli_block(main, command) == expected


def test_report_reads_identical_for_equal_texts():
    assert against_parent.report("a\nb\n", "a\nb\n") == "identical\n"


def test_report_diffs_unequal_texts():
    diff = against_parent.report("a\nb\n", "a\nc\n").splitlines()
    assert diff[:2] == ["--- parent", "+++ change"]
    assert "-b" in diff and "+c" in diff


def hand_built_solves(count):
    """``count`` solve tuples of problem b at m = 2, each with its own x."""
    problem, config = registry_get("b"), SolverConfig(m=2)
    return [(f"starts seed=1 job={i}", problem, config,
             SolveTrace([problem.start, np.array([0.5, float(i)])], [1.0, 1e-17], 1, 2,
                        SolveStatus.CONVERGED))
            for i in range(count)]


def test_solve_text_gives_one_line_per_solve():
    lines = against_parent.solve_text(hand_built_solves(2)).splitlines()
    assert len(lines) == 3 and lines[0].startswith("solves: 2 sha256: ")
    line = r"starts seed=1 job=1 problem=b m=2: Converged it_inv=1 it_tot=2 [0-9a-f]{12}"
    assert re.fullmatch(line, lines[2])
    assert lines[1].rsplit(" ", 1)[1] != lines[2].rsplit(" ", 1)[1]


def test_a_diff_names_only_the_solve_that_differs():
    solves = hand_built_solves(20)
    label, problem, config, trace = solves[12]
    changed = solves[:12] + [(label, problem, config, dataclasses.replace(
        trace, cause=SingularMatrix("pivot"), status=SolveStatus.SINGULAR_JACOBIAN))] + solves[13:]
    texts = [against_parent.solve_text(tree) for tree in (solves, changed)]
    changed_lines = [line for line in against_parent.report(*texts).splitlines()[2:]
                     if line[:1] in "-+"]
    assert [line[:8] for line in changed_lines] == ["-solves:", "+solves:", "-starts ", "+starts "]
    assert all("job=12 " in line for line in changed_lines[2:])


def test_jobs_are_each_workloads_distinct_solves(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOL.parents[1] / "bench"))
    jobs = against_parent.jobs()
    by_workload = {}
    for label, problem, config in jobs:
        by_workload.setdefault(label.split()[0], []).append((problem, config))
    assert {name: len(pairs) for name, pairs in by_workload.items()} == {
        "starts": 4800, "cyclic": 3, "grid": 20}
    grid = by_workload["grid"]
    assert [(p.name, c) for p, c in grid] == [
        (name, SolverConfig(m=m)) for name in "abcde" for m in (1, 2, 3, 4)]
    assert all(p is registry_get(p.name) for p, _ in grid)
    assert {p.dim for p, _ in grid if p.name == "d"} == {31}
    keys = {(p.name, p.start.tobytes(), c) for _, p, c in jobs}
    assert len(keys) == len(jobs)
