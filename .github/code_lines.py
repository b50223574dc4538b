"""Print the code lines of each module of a package, and their total.

A code line is one that is not blank, not a comment alone and not inside a
module, class or function docstring, so that a change's count shows whether
code or prose moved. Run it from the repository root:

    python3 .github/code_lines.py [src/evtensor]
"""

import ast
import pathlib
import sys


def code_lines(source: str) -> int:
    lines = source.splitlines()
    prose = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                prose.update(range(first.lineno, first.end_lineno + 1))
    return sum(1 for k, line in enumerate(lines, start=1)
               if k not in prose and line.strip() and not line.strip().startswith("#"))


def main(package: str) -> None:
    counts = {path.stem: code_lines(path.read_text(encoding="utf-8"))
              for path in sorted(pathlib.Path(package).glob("*.py"))}
    for name, count in sorted(counts.items(), key=lambda item: -item[1]):
        print(f"{count:6d} {name}")
    print(f"{sum(counts.values()):6d} total code lines")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "src/evtensor")
