"""The repository's own tools, on fixtures small enough to count by hand."""

import importlib.util
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
