"""Total and code lines of Python modules.

A code line holds at least one token that is not a comment and is not part
of a docstring (the leading string of a module, class or function); blank
lines count for neither.  Standard library only.

    python tools/lines.py                  # every module of src/wignerexp
    python tools/lines.py FILE [FILE ...]  # the files named
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wignerexp"


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers that docstrings of ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of ``source``."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    paths = [Path(arg) for arg in argv] or sorted(_PACKAGE.glob("*.py"))
    totals = [0, 0]
    print(f"{'total':>7} {'code':>6}  module")
    for path in paths:
        lines = count(path.read_text(encoding="utf-8"))
        totals = [t + c for t, c in zip(totals, lines)]
        print(f"{lines[0]:>7} {lines[1]:>6}  {path.name}")
    print(f"{totals[0]:>7} {totals[1]:>6}  all")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
