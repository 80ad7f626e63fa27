"""The package's import graph: what each route module reads from another module.

The routes (closed forms, series, walks, Monte Carlo, and the measure built on
the closed forms) are held against each other, so none may compute its numbers
from another.  This test pins every name a route module imports from another
package module, with the reason it may; a new cross-route import fails here and
has to be argued.  The front ends (``cli``, ``__init__``, ``__main__``) read
every route and are exempt.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import wignerexp

PACKAGE = Path(wignerexp.__file__).parent
FRONT_ENDS = {"cli", "__init__", "__main__"}

# the one integer rule of every route's arguments: a check, not a number
INT_RULE = "the integer rule every route's arguments go through"

# route module -> {(module imported from, name): reason}
CROSS_ROUTE_IMPORTS = {
    "combinatorics": {},
    "measure": {
        ("combinatorics", "EnsembleParams"): "the parameters a measure is built for",
        ("combinatorics", "nu_coefficients"): "the density and atoms of nu come from c4, c2, c0",
        ("combinatorics", "_int_at_least"): INT_RULE,
    },
    "montecarlo": {
        ("combinatorics", "GOE"): "the params of the goe sampler",
        ("combinatorics", "GUE"): "the params of the gue sampler",
        ("combinatorics", "RADEMACHER"): "the params of the rademacher sampler",
        ("combinatorics", "EnsembleParams"): "the params record each sampler carries",
        ("combinatorics", "catalan"): "the semicircle limit each estimate subtracts",
        ("combinatorics", "nu_moment"): "the reference column only, never the estimate",
        ("combinatorics", "_int_at_least"): INT_RULE,
    },
    "series": {
        ("combinatorics", "EnsembleParams"): "the parameters of the S-series",
        ("combinatorics", "catalan"): "the coefficients of T; T = 1 + x T^2 checks them",
        ("combinatorics", "_int_at_least"): INT_RULE,
    },
    "walks": {
        ("combinatorics", "EnsembleParams"): "the params a moment model reports",
        ("combinatorics", "_int_at_least"): INT_RULE,
        ("combinatorics", "_frac"): "the one rule of an exact moment, a float refused: a check",
    },
}


def package_imports(path: Path) -> set[tuple[str, str]]:
    """(module, name) of every import of a package module in the file, lazy ones too."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "wignerexp":
                continue
            module = module.removeprefix("wignerexp").lstrip(".")
            for alias in node.names:
                # `from . import walks` reads the module itself
                found.add((module, alias.name) if module else (alias.name, "*"))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "wignerexp":
                    found.add((alias.name.removeprefix("wignerexp."), "*"))
    return found


def test_each_route_imports_only_the_pinned_names():
    routes = {path.stem for path in PACKAGE.glob("*.py")} - FRONT_ENDS
    assert routes == set(CROSS_ROUTE_IMPORTS)
    for route in sorted(routes):
        found = package_imports(PACKAGE / f"{route}.py")
        assert found == set(CROSS_ROUTE_IMPORTS[route]), route


def test_the_scanner_sees_every_import_form(tmp_path):
    source = tmp_path / "route.py"
    source.write_text(
        "import numpy\n"
        "from .series import catalan_series\n"
        "from . import walks\n"
        "import wignerexp.measure\n"
        "from wignerexp.combinatorics import catalan\n"
        "def late():\n"
        "    from .montecarlo import goe_sampler\n"
    )
    assert package_imports(source) == {
        ("series", "catalan_series"),
        ("walks", "*"),
        ("measure", "*"),
        ("combinatorics", "catalan"),
        ("montecarlo", "goe_sampler"),
    }


# start-up cost: the dense Monte Carlo threads come from threading, which numpy
# imports anyway, so neither the import nor any command loads concurrent.futures
LEAN_RUN = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import wignerexp
loaded = ["concurrent.futures" in sys.modules]
from wignerexp import cli
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["check", "--order", "8", "--walks-kmax", "4"])
    loaded.append("concurrent.futures" in sys.modules)
    cli.main(["mc", "--ensemble", "rademacher", "--kmax", "4", "--n", "128", "--samples", "130"])
    loaded.append("concurrent.futures" in sys.modules)
print(json.dumps(loaded))
"""


def test_import_and_runs_leave_concurrent_futures_unloaded():
    proc = subprocess.run(
        [sys.executable, "-c", LEAN_RUN, str(PACKAGE.parent)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [False, False, False]
