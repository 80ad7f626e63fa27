"""The repository's own tools, on fixtures small enough to count by hand."""

import ast
import importlib.util
import re
import subprocess
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
PACKAGE = TOOLS.parent / "src" / "wignerexp"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FIXTURE = '''"""A module docstring,
two lines long."""

import math  # a comment after code


# a comment line
class Box:
    """One line."""

    size = (
        1,
        2,
    )

    def area(self):
        """Two
        lines."""
        text = """not a docstring:
        counted"""
        return math.prod(self.size), text
'''


def test_lines_counts_code_without_docstrings_comments_or_blank_lines():
    # code: import, class, size = ( 1, 2, ), def, text = """ ... """ (two
    # lines), return
    total, code = _load("lines").count(FIXTURE)
    assert (total, code) == (21, 10)


def test_lines_at_a_revision_print_beside_the_working_tree(tmp_path, capsys):
    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false",
             *args],
            cwd=tmp_path, check=True, capture_output=True,
        )

    module, added = tmp_path / "module.py", tmp_path / "added.py"
    module.write_text('"""Docstring."""\n\nx = 1\n')
    git("init", "-q")
    git("add", "module.py")
    git("commit", "-q", "-m", "first")
    module.write_text('"""Docstring."""\n\nx = 1\ny = 2  # a comment\n# one more\n')
    added.write_text("z = 3\n")
    lines = _load("lines")
    assert lines.main(["--rev", "HEAD", str(module), str(added)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
    # at HEAD, in the working tree, and the difference: total and code lines each
    assert rows == [
        ["3", "1", "5", "2", "+2", "+1", "module.py"],
        ["0", "0", "1", "1", "+1", "+1", "added.py"],
        ["3", "1", "6", "3", "+3", "+2", "all"],
    ]
    assert lines.main(["--rev", "no-such-rev", str(module)]) == 2


def unused_private_names(package: Path) -> list[str]:
    """Private module-level functions and classes of ``package`` that no other
    module-level statement of it names (as a name, an attribute or an import)."""
    defined, referenced = {}, []
    for path in sorted(package.glob("*.py")):
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            names = set()
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
            referenced.append(names)
            kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            if isinstance(statement, kinds) and statement.name.startswith("_"):
                if not statement.name.startswith("__"):
                    defined[statement.name] = len(referenced) - 1
    return sorted(
        name for name, own in defined.items()
        if not any(name in names for at, names in enumerate(referenced) if at != own)
    )


def test_every_private_function_and_class_of_the_package_is_used_in_it():
    # one that only tests call belongs in the tests
    assert unused_private_names(PACKAGE) == []


def stale_private_names(package: Path) -> list[str]:
    """Private names in double backquotes in ``package``'s modules that it does not define.

    A dotted name is read by its last part.  A name is defined when some module
    of the package makes it a function, a class, an assignment target or a field.
    """
    defined, quoted = set(), set()
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for part in ast.walk(target):
                        if isinstance(part, ast.Name):
                            defined.add(part.id)
                        elif isinstance(part, ast.Attribute):
                            defined.add(part.attr)
        for literal in re.findall(r"``([^`]+)``", source):
            for name in re.findall(r"[A-Za-z_][\w.]*", literal):
                last = name.rsplit(".", 1)[-1]
                if last.startswith("_") and not (last.startswith("__") and last.endswith("__")):
                    quoted.add((path.name, last))
    return sorted(f"{module}: {name}" for module, name in quoted if name not in defined)


def test_every_private_name_the_package_quotes_is_defined_in_it():
    # a docstring or comment that names a deleted helper points the reader nowhere
    assert stale_private_names(PACKAGE) == []
