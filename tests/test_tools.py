"""The repository's own tools, on fixtures small enough to count by hand."""

import importlib.util
import subprocess
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


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
