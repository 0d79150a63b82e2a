"""Raw lines and code lines of each module of src/medsens, and the number
of names in medsens.__all__.

A code line is a non-blank line that is neither a comment nor part of a
docstring (a string that is the first statement of a module, class or
function). A line holding both code and a comment counts as code. The
names are counted in the __all__ list of the package's __init__.py, read
without importing the package.

Usage:

    python3 scripts/code_lines.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(raw lines, code lines) of one Python file."""
    text = path.read_text(encoding="utf-8")
    raw = text.splitlines()
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring_lines(ast.parse(text))
    return len(raw), sum(1 for i in code if raw[i - 1].strip())


def public_names(init: Path) -> int:
    """The number of entries of the __all__ list assigned in init."""
    for node in ast.parse(init.read_text(encoding="utf-8")).body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            return len(node.value.elts)
    raise SystemExit(f"{init}: no __all__ list")


def main() -> int:
    package = ROOT / "src" / "medsens"
    counts = {path.name: count(path) for path in sorted(package.glob("*.py"))}
    width = max(map(len, [*counts, "total"]))
    print(f"{'module':<{width}}  {'raw':>5}  {'code':>5}")
    for name, (raw, code) in counts.items():
        print(f"{name:<{width}}  {raw:>5}  {code:>5}")
    print(f"{'total':<{width}}  {sum(r for r, _ in counts.values()):>5}  "
          f"{sum(c for _, c in counts.values()):>5}")
    print(f"{'__all__':<{width}}  {public_names(package / '__init__.py'):>5}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
