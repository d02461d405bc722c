"""Source hygiene: no module of the package imports a name it never uses."""

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
