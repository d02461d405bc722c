"""Source hygiene: no module of the package imports a name it never uses,
and every helper in the private `_linalg` module, like every private
top-level function elsewhere, has a caller in the package."""

import ast
from pathlib import Path

import pytest

import bquant

MODULES = sorted(
    path for path in Path(bquant.__file__).parent.glob("*.py")
    if path.name != "__init__.py"
)


def imported_names(tree):
    """(name, line) for each name bound by a top-level import."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source):
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= exported_names(tree)
    return [
        f"line {line}: {name}"
        for name, line in imported_names(tree)
        if name not in used
    ]


def test_scan_finds_an_unused_import():
    source = "import os\nfrom math import ceil, floor\n__all__ = ['floor']\n"
    assert unused_imports(source) == ["line 1: os", "line 2: ceil"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text()) == []


def referenced_names(node):
    """Every bare name and attribute name read anywhere under `node`."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr


def uncalled_helpers(source, other_sources):
    """Top-level functions of `source` that nothing refers to, neither the
    rest of `source` nor `other_sources`.  A function's own body and the
    strings in `__all__` do not count as references."""
    tree = ast.parse(source)
    outside = set()
    for other in other_sources:
        outside.update(referenced_names(ast.parse(other)))
    helpers = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    uncalled = []
    for helper in helpers:
        used = set(outside)
        for node in tree.body:
            if node is not helper:
                used.update(referenced_names(node))
        if helper.name not in used:
            uncalled.append(helper.name)
    return uncalled


def test_scan_finds_an_uncalled_helper():
    source = (
        "__all__ = ['lone', 'used']\n"
        "def lone(n):\n    return lone(n - 1) if n else used()\n"
        "def used():\n    return 0\n"
        "def chained():\n    return 1\n"
    )
    caller = "from . import helpers\nhelpers.chained()\n"
    assert uncalled_helpers(source, [caller]) == ["lone"]


def test_every_linalg_helper_has_a_caller_in_the_package():
    # every function of the private _linalg module, and every private
    # top-level function of the other modules
    sources = {
        path: path.read_text()
        for path in Path(bquant.__file__).parent.glob("*.py")
    }
    uncalled = []
    for path in MODULES:
        others = [text for other, text in sources.items() if other != path]
        uncalled.extend(
            f"{path.name}: {name}"
            for name in uncalled_helpers(sources[path], others)
            if path.name == "_linalg.py" or name.startswith("_")
        )
    assert uncalled == []


def test_bounds_have_one_stored_form():
    # a polyhedron stores its bounds only as integer rows (normal, p, q):
    # the engine and the spaces build no Fraction, and no module but
    # polyhedra.py reads the Fraction view `inequalities`
    for path in sorted(Path(bquant.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                modules.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                modules.add(node.module)
        if path.name in ("engine.py", "spaces.py"):
            assert "fractions" not in modules, path.name
        if path.name != "polyhedra.py":
            assert "inequalities" not in {
                node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
            }, path.name
