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


def _relative_imports(module: str) -> dict[str, set[str]]:
    """The names module.py takes from each sibling module."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.setdefault(node.module, set()).update(a.name for a in node.names)
    return found


def test_the_screen_takes_no_battery_or_generator_code():
    imports = _relative_imports("screen")
    # the battery's oracles stay out of the screen
    assert not {"bounds", "edge_space", "matrices"} & set(imports)
    assert imports["zeta"] == {"DEFAULT_ORDER"}
    # the two generator names the benchmark tracer wraps as screen.*
    assert imports["census"] == {"builtin_generate", "canonical_label"}
    assert set(_relative_imports("census")) == {"graphs"}


def test_matrices_import_nothing_from_fractions():
    # Matrix is integer-only: a rational operator enters as an integer
    # multiple, its scale kept in the polynomials
    tree = ast.parse((PACKAGE / "matrices.py").read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules.add(node.module)
    assert "fractions" not in modules
