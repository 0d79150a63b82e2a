"""The statements of src/medsens that a pytest run never executes.

Runs pytest in this process with the given arguments, under a line
tracer (sys.settrace and threading.settrace) that follows only frames of
code in src/medsens. Then prints, in module and line order, one line

    module.py:line: statement

for each simple statement of a function body (docstrings aside) on none
of whose lines a line event fired, and exits with pytest's status. A
compound statement (if, for, try, ...) is judged by the statements in
it. Code that the tests run in a subprocess is not traced, so a
statement reached only there is listed too.

Usage (from the root of the repo):

    python3 scripts/untested_lines.py [pytest arguments]
    python3 scripts/untested_lines.py -q -p no:cacheprovider tests/test_exports.py
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "medsens"
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402


def _is_docstring(stmt: ast.stmt) -> bool:
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def _simple(stmts):
    """The simple statements in stmts and in the blocks of its compound
    ones, but not in a nested def or class: those are bodies of their own
    or not function bodies at all."""
    for stmt in stmts:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if hasattr(stmt, "body"):
            blocks = [stmt.body, getattr(stmt, "orelse", []),
                      getattr(stmt, "finalbody", []),
                      *(part.body for part in getattr(stmt, "handlers", [])),
                      *(case.body for case in getattr(stmt, "cases", []))]
            yield from _simple([s for block in blocks for s in block])
        elif not isinstance(stmt, (ast.Global, ast.Nonlocal)):  # no bytecode
            yield stmt


def function_statements(source: str) -> list[ast.stmt]:
    """Every simple statement of every function body in source, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body[1:] if _is_docstring(node.body[0]) else node.body
            found += _simple(body)
    return sorted(found, key=lambda stmt: stmt.lineno)


def traced_pytest(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit status and, per file of src/medsens (by real path),
    the lines on which a line event fired."""
    prefix = os.path.realpath(PACKAGE) + os.sep
    lines: dict[str, set[int]] = defaultdict(set)
    owner: dict[str, set[int] | None] = {}

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in owner:
            real = os.path.realpath(name)
            owner[name] = lines[real] if real.startswith(prefix) else None
        seen = owner[name]
        if seen is None:
            return None

        def on_line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return on_line
        return on_line

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), lines


def never_run(lines: dict[str, set[int]]) -> list[str]:
    """module.py:line: statement for each function-body statement of
    src/medsens none of whose lines is in lines."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        seen = lines.get(os.path.realpath(path), set())
        for stmt in function_statements(source):
            if seen.isdisjoint(range(stmt.lineno, stmt.end_lineno + 1)):
                out.append(f"{path.name}:{stmt.lineno}: {text[stmt.lineno - 1].strip()}")
    return out


def main(argv: list[str]) -> int:
    status, lines = traced_pytest(argv)
    print("\n".join(never_run(lines)))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
