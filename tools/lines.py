"""Total and code lines of Python modules.

A code line holds at least one token that is not a comment and is not part
of a docstring (the leading string of a module, class or function); blank
lines count for neither.  Standard library only.

    python tools/lines.py                  # every module of src/wignerexp
    python tools/lines.py FILE [FILE ...]  # the files named
    python tools/lines.py --rev REV [FILE ...]

With ``--rev``, each file is also counted as it is at the git revision REV
(read with ``git show REV:path``) and printed beside the working tree's
count, with the difference; a file missing on one side counts 0 there.
Without files it takes the modules of src/wignerexp on either side.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
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


def _git(directory: Path, *args: str) -> str | None:
    """Stdout of ``git args`` run in ``directory``, or None where git fails."""
    proc = subprocess.run(
        ["git", "-C", str(directory), *args], capture_output=True, encoding="utf-8"
    )
    return proc.stdout if proc.returncode == 0 else None


def _counted(text: str | None) -> tuple[int, int]:
    return (0, 0) if text is None else count(text)


_ROW = "{:>7} {:>6} {:>7} {:>6} {:>+7} {:>+6}  {}"


def _compare(rev: str, paths: list[Path]) -> int:
    """Print each path's lines at ``rev``, in the working tree and their difference."""
    where = paths[0].resolve().parent if paths else _PACKAGE
    if _git(where, "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}") is None:
        print(f"error: no commit {rev!r}", file=sys.stderr)
        return 2
    if not paths:
        names = (_git(_PACKAGE, "ls-tree", "--name-only", rev) or "").split()
        at_rev = {_PACKAGE / name for name in names if name.endswith(".py")}
        paths = sorted(at_rev | set(_PACKAGE.glob("*.py")))
    totals = [0] * 6
    print(f"{rev[:14]:>14} {'working tree':>14} {'difference':>14}")
    print(f"{'total':>7} {'code':>6} " * 3 + " module")
    for path in paths:
        before = _counted(_git(path.resolve().parent, "show", f"{rev}:./{path.name}"))
        after = _counted(path.read_text(encoding="utf-8") if path.exists() else None)
        row = [*before, *after, after[0] - before[0], after[1] - before[1]]
        totals = [t + c for t, c in zip(totals, row)]
        print(_ROW.format(*row, path.name))
    print(_ROW.format(*totals, "all"))
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Total and code lines of Python modules.")
    parser.add_argument("files", nargs="*", type=Path)
    parser.add_argument("--rev", help="a git revision to count each file at as well")
    args = parser.parse_args(argv)
    if args.rev is not None:
        return _compare(args.rev, args.files)
    paths = args.files or sorted(_PACKAGE.glob("*.py"))
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
