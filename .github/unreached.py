"""List the statements of the package that no test runs.

Runs the test suite in this process under a line tracer limited to the
package's files, then prints each statement outside a docstring that never
ran, as ``path:line: source``, and their count. Tests that start a
subprocess are not traced, so what only such a test runs is listed too.
Extra arguments go to pytest; the exit code is pytest's. Run it from the
repository root:

    python3 .github/unreached.py [pytest args]
"""

import ast
import pathlib
import sys
import threading

import pytest

from code_lines import docstring_lines  # this script's directory is on sys.path

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "evtensor"


def _own_lines(node: ast.stmt) -> range:
    """The lines of a statement that are not those of a statement in its
    body: a compound statement's header (its decorators included), or all of
    a simple one. A `try` has no code of its own, so its first body
    statement's lines stand for it."""
    if isinstance(node, ast.Try):
        return _own_lines(node.body[0])
    first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
    body = getattr(node, "body", [])
    if body:
        return range(first, max(node.lineno, body[0].lineno - 1) + 1)
    return range(first, node.end_lineno + 1)


def unreached(path: pathlib.Path, ran: set[int]) -> list[int]:
    """The first lines of the statements of `path` none of whose own lines ran."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    prose = docstring_lines(tree)
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.stmt) and node.lineno not in prose
                  and ran.isdisjoint(_own_lines(node)))


def main(args: list[str]) -> int:
    root = str(PACKAGE)
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name.startswith(root):
            ran.setdefault(name, set())
            return local
        return None

    sys.path.insert(0, str(SRC))
    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(["tests", *args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    count = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for k in unreached(path, ran.get(str(path), set())):
            print(f"{path.relative_to(SRC.parent)}:{k}: {lines[k - 1].strip()}")
            count += 1
    print(f"unreached statements: {count}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
