"""List the statements of the package that no test runs, or that the
benchmark's workloads never run.

Runs the test suite in this process under a line tracer limited to the
package's files, then prints each statement outside a docstring that never
ran, as ``path:line: source``, and their count. Tests that start a
subprocess are not traced, so what only such a test runs is listed too.
Extra arguments go to pytest; the exit code is pytest's. With
``--workloads`` it traces instead perfbench/child.py's ``main`` on the ref,
davis and cli workloads at seed 0 (one first run each), then the README's
``gen`` of the reference scene and its ``sweep``, their output sent to
stderr; the exit code is the largest they return. Run it from the
repository root:

    python3 .github/unreached.py [pytest args]
    python3 .github/unreached.py --workloads
"""

import ast
import contextlib
import pathlib
import sys
import tempfile
import threading
import time

import pytest

from code_lines import docstring_lines  # this script's directory is on sys.path

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
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


def run_workloads() -> int:
    """The benchmark's three workloads, then the README's gen and sweep, in
    this process; reads perfbench/ and writes only to a temporary directory."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import child
    from evtensor import cli

    codes = []
    # the commands' reports go to stderr, so that stdout holds the listing alone
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(sys.stderr):
        for workload in ("ref", "davis", "cli"):
            codes.append(child.main([
                "--workload", workload, "--seed", "0", "--solver-seed", "0", "--mode", "run",
                "--t0", repr(time.perf_counter()), "--out", f"{tmp}/{workload}.json", "--first"]))
        events = f"{tmp}/events.csv"
        codes.append(cli.main(["gen", "--spec", str(ROOT / "perfbench/scenes/ref.cfg"),
                               "--out", events]))
        codes.append(cli.main(["sweep", "--events", events, "--geometry", "64x48", "--frames", "60",
                               "--lambda1-grid", "0,0.1", "--lambda2-grid", "0.1", "--s-max", "20",
                               "--out", f"{tmp}/sweep.csv"]))
    return max(codes)


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
        code = run_workloads() if args == ["--workloads"] else pytest.main(["tests", *args])
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
