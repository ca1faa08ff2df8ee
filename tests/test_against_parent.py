"""tools/against_parent.py: its line counts, its in-process CLI runs and its report.

The full two-tree run takes a git checkout and two child processes; CI's
"Against the parent" step makes it.
"""
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

import shamanskii
from shamanskii.cli import main

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
