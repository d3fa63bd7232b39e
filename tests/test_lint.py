"""Source rules checked on the syntax tree of the package.

The library raises instead of asserting, so its checks survive python -O,
and only the command-line module prints.
"""

import ast
from pathlib import Path

import edgesector

PACKAGE = Path(edgesector.__file__).resolve().parent


def _trees():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_the_package_has_modules():
    assert {"cli.py", "screen.py"} <= {name for name, _ in _trees()}


def test_no_assert_statements():
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == [], "use an explicit raise, which python -O keeps"


def test_only_the_cli_prints():
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _trees()
        if name != "cli.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "print"
    ]
    assert found == [], "the library returns its results; cli.py prints them"
