"""Compare src/ with REF's (HEAD by default): line counts, CLI outputs and solves.

``python tools/against_parent.py [REF]`` unpacks REF's src/ with ``git archive``
and prints, for that tree (parent) beside the working tree of this script's
checkout (change): each module's lines and code lines; each tree's count and
sha256 of the distinct solves of the benchmark's workloads (``jobs``); then
"identical", or the unified diff of those, of one line per solve and of the
stdout and exit code of each of ``COMMANDS``.  Exits 1 on a diff or a failed
tree, else 0.
"""
import argparse
import array
import ast
import contextlib
import difflib
import hashlib
import io
import os
import pathlib
import subprocess
import sys
import tempfile
import tokenize

ROOT = pathlib.Path(__file__).resolve().parents[1]
# the suite's formats, each problem plain and verbose, two more commands and eight usage
# errors, among them a refusal of each solver flag
COMMANDS = (
    [f"suite --format {fmt}" for fmt in ("table", "csv", "json")]
    + [f"run --problem {p}{options}" for p in "abcde" for options in ("", " --m 3 -v")]
    + ["check-jacobians", "list-problems", "run --problem nope", "suite --ms 0", "suite --ms x",
       "suite --problems ,", "run --problem b --m 0", "run --problem e --tol nan",
       "suite --max-outer 0", ""])
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    """The lines of ``text`` left after blank, comment and docstring lines."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node) is not None:
            lines.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return len(lines)


def line_table(parent: pathlib.Path, change: pathlib.Path) -> str:
    """Lines and code lines of each module of two trees' src/, and their totals."""
    old_tree, new_tree = ({p.name: p.read_text() for p in (root / "src/shamanskii").glob("*.py")}
                          for root in (parent, change))
    rows = []
    for name in sorted(old_tree.keys() | new_tree.keys()):
        old, new = old_tree.get(name, ""), new_tree.get(name, "")
        counts = [old.count("\n"), new.count("\n"), code_lines(old), code_lines(new)]
        rows.append(counts + [f"src/shamanskii/{name}"])
    rows.append([sum(row[i] for row in rows) for i in range(4)] + ["total"])
    return ("          lines        code lines\n parent  change   parent   change  module\n"
            + "".join("{:7d} {:7d} {:8d} {:8d}  {}\n".format(*row) for row in rows))


def cli_block(main, command: str) -> str:
    """``$ shamanskii COMMAND``, the stdout of ``main(COMMAND.split())`` and its exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(command.split())
    return f"$ shamanskii {command}\n{out.getvalue()}exit {code}\n"


def solve_text(solves) -> str:
    """The count and sha256 of ``solves``, (label, problem, config, trace)
    tuples, then one line for each: its label, problem and m, its status and
    counters, and the first 12 hex digits of the sha256 of its record, which
    holds those, its cause's type and message, ``x`` and the residual norms."""
    digest, lines = hashlib.sha256(), []
    for label, problem, config, trace in solves:
        cause = None if trace.cause is None else (type(trace.cause).__name__, str(trace.cause))
        record = (repr((trace.status.value, trace.it_inv, trace.it_tot, cause)).encode()
                  + trace.x.tobytes() + array.array("d", trace.residual_norms).tobytes())
        digest.update(record)
        lines.append(f"{label} problem={problem.name} m={config.m}: {trace.status.value} "
                     f"it_inv={trace.it_inv} it_tot={trace.it_tot} "
                     f"{hashlib.sha256(record).hexdigest()[:12]}\n")
    return f"solves: {len(lines)} sha256: {digest.hexdigest()}\n" + "".join(lines)


def jobs() -> list:
    """(label, problem, config) of each distinct solve of the benchmark's
    workloads: ``starts`` at seeds 1-3, then ``cyclic`` and ``grid`` once each,
    as their inputs do not depend on the seed."""
    import workloads
    from shamanskii import SolverConfig, registry_get

    found = []
    for seed in (1, 2, 3):
        found += [(f"starts seed={seed} job={i}", *pair)
                  for i, pair in enumerate(workloads.Starts(seed).jobs)]
    cyclic = workloads.Cyclic(1)
    grid = [(registry_get(name), SolverConfig(m=m))
            for name in workloads.GRID_PROBLEMS for m in workloads.GRID_MS]
    for workload, pairs in (("cyclic", [(cyclic.problem, c) for c in cyclic.configs]),
                            ("grid", grid)):
        found += [(f"{workload} job={i}", *pair) for i, pair in enumerate(pairs)]
    return found


def outputs() -> str:
    """The solve text, then the CLI blocks, of the package on the path."""
    from shamanskii import solve
    from shamanskii.cli import main

    solves = ((label, problem, config, solve(problem, config)) for label, problem, config in jobs())
    return solve_text(solves) + "".join(cli_block(main, command) for command in COMMANDS)


def report(parent: str, change: str) -> str:
    """The unified diff of two texts, or "identical" when they are equal."""
    diff = difflib.unified_diff(parent.splitlines(True), change.splitlines(True), "parent", "change")
    return "".join(diff) or "identical\n"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", nargs="?", default="HEAD", help="the revision to compare with")
    with tempfile.TemporaryDirectory() as parent:
        archive = subprocess.check_output(["git", "archive", parser.parse_args().ref, "src"], cwd=ROOT)
        subprocess.run(["tar", "-x", "-C", parent], input=archive, check=True)
        sys.stdout.write(line_table(pathlib.Path(parent), ROOT))
        # one process per tree, both at once, each on one BLAS thread
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        children = [subprocess.Popen(
            [sys.executable, "-c", "import against_parent; print(against_parent.outputs(), end='')"],
            env=dict(env, PYTHONPATH=os.pathsep.join([f"{tree}/src", f"{ROOT}/bench", f"{ROOT}/tools"])),
            stdout=subprocess.PIPE, text=True) for tree in (parent, ROOT)]
        texts = [child.communicate()[0] for child in children]
    if any(child.returncode for child in children):
        return "no report: a tree's outputs failed, as the traceback above says"
    for name, text in zip(("parent", "change"), texts):
        print(name + ":", text.partition("\n")[0])
    sys.stdout.write(report(*texts))
    return int(texts[0] != texts[1])


if __name__ == "__main__":
    sys.exit(main())
