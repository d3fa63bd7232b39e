"""Source rules checked on the syntax tree of the package.

The library raises instead of asserting, so its checks survive python -O,
only the command-line module prints, and every public name and method has a
caller outside the tests.
"""

import ast
import re
from pathlib import Path

import edgesector

PACKAGE = Path(edgesector.__file__).resolve().parent
ROOT = PACKAGE.parents[1]


def _trees(directory=PACKAGE):
    for path in sorted(directory.glob("*.py")):
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


def _loaded(trees) -> tuple[set[str], set[str]]:
    """The bare names and the attribute names the trees read; a def, a
    class or an import binds a name without reading it."""
    names, attributes = set(), set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return names, attributes


def test_every_public_name_has_a_caller_outside_the_tests():
    # the benchmark and the CI workflow call the package too, and the
    # README's entry-point list is what a library user calls
    bench = list(_trees(ROOT / "perfbench"))
    assert bench, "the benchmark sources sit beside src/"
    names, attributes = _loaded(
        [(name, tree) for name, tree in _trees() if name != "__init__.py"] + bench
    )
    text = "\n".join(
        (ROOT / path).read_text(encoding="utf-8")
        for path in ("README.md", ".github/workflows/tests.yml")
    )
    unused = [
        name
        for name in edgesector.__all__
        if name not in names | attributes and not re.search(rf"\b{name}\b", text)
    ]
    assert unused == [], f"only the tests call {unused}; move them into the tests"


def test_every_method_has_a_caller_outside_the_tests():
    _, attributes = _loaded(list(_trees()) + list(_trees(ROOT / "perfbench")))
    unused = [
        f"{name}:{cls.name}.{node.name}"
        for name, tree in _trees()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in attributes
    ]
    assert unused == [], f"only the tests call {unused}; move them into the tests"
