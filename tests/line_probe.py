"""List the statements of src/mulli that the tier-1 tests never run.

Run from anywhere, with the tier-1 dependencies installed:

    python tests/line_probe.py [extra pytest arguments]

It runs the tests under tests/ in this process with sys.settrace and
threading.settrace, then prints each statement of src/mulli/*.py that no
test reached as `path:line: source`, and exits 1 if it printed any (or
with pytest's code if a test failed).  Docstrings, def and class lines and
imports are not statements here; a lambda counts as run only when its body
ran.  cli.py and __main__.py are skipped: their tests run the CLI in
subprocesses, which the trace does not see.  The name does not start with
test_, so pytest does not collect this file.
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SKIP = {"cli.py", "__main__.py"}
FILES = {str(path): path for path in sorted((SRC / "mulli").glob("*.py")) if path.name not in SKIP}


def _code_lines(code):
    """Every line that holds an instruction of code or of a code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _statements(path):
    """(lines of statements, lines of lambda bodies) of one source file."""
    source = path.read_text()
    has_code = _code_lines(compile(source, str(path), "exec"))
    statements, lambdas = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Lambda):
            lambdas.add(node.body.lineno)
        elif not isinstance(node, ast.stmt) or isinstance(node, (ast.Import, ast.ImportFrom, ast.FunctionDef, ast.ClassDef)):
            continue
        elif not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)):
            statements.add(node.lineno)
    return statements & has_code, lambdas


def _run_traced(args):
    """pytest's exit code, and the (file, line, in a lambda) triples that ran in src/mulli."""
    ran = set()

    def line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno, frame.f_code.co_name == "<lambda>"))
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename in FILES else None

    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, ran


def main(argv):
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    code, ran = _run_traced(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", *argv])
    if code:
        return code
    missed = []
    for name, path in FILES.items():
        statements, lambdas = _statements(path)
        source = path.read_text().splitlines()
        missed += [(path, n, source[n - 1].strip()) for n in sorted(statements) if (name, n, False) not in ran]
        missed += [(path, n, source[n - 1].strip()) for n in sorted(lambdas) if (name, n, True) not in ran]
    for path, n, text in sorted(missed):
        print(f"{path.relative_to(ROOT)}:{n}: {text}")
    print(f"{len(missed)} statements never ran", file=sys.stderr)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
