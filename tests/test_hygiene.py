"""Source hygiene: no module of the package imports a name it never uses;
every helper in the private `_linalg` module, and every private function,
class, method and module-level constant or alias elsewhere, has a user in
the package; every public one has a user too or is one of the library's
listed entry points; a name two definitions share is used only through a
reference that names its own definition, or when a commented list gives
its caller; every name a module exports exists; the engine reads a
polyhedron's row scan only where it certifies the rows, and lists weights
in one place; a Fraction is built only by the listed functions at the
public edge; and each module imports from inside the package only the
modules its listed set names."""

import ast
import importlib
from collections import Counter
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


# module-level names read by tools and importers, not by the package
MODULE_METADATA = {"__all__", "__version__"}


def definitions(tree):
    """(qualified name, node) for each top-level function and class, each
    name a module-level assignment binds (a constant or an alias), and each
    method of a top-level class; dunder methods and MODULE_METADATA are left
    out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name) and \
                        target.id not in MODULE_METADATA:
                    yield target.id, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    yield f"{node.name}.{member.name}", member


def tied_reference(trees, path, qualified, node):
    """Whether `trees` (path -> module) refer to the definition `node` of
    `qualified` in module `path` in a way that names no other definition:
    `Class.name` anywhere or `self.name` inside the class for a method, a
    bare name in its own module otherwise, each outside `node` itself."""
    *owner, name = qualified.split(".")
    inside = {id(child) for child in ast.walk(node)}

    def tied(child, scope):
        if id(child) in inside:
            return False
        if not owner:
            return isinstance(child, ast.Name) and child.id == name
        if not isinstance(child, ast.Attribute) or child.attr != name:
            return False
        target = child.value
        seen = target.id if isinstance(target, ast.Name) else \
            getattr(target, "attr", None)
        return seen == owner[0] or seen == "self" and scope == owner[0]

    return any(
        tied(child, top.name if isinstance(top, ast.ClassDef) else None)
        for where, tree in trees.items() if owner or where == path
        for top in tree.body
        for child in ast.walk(top)
    )


def unreferenced(sources, shared_name_callers=frozenset()):
    """(path, qualified name) for each definition in `sources` (path ->
    text) whose name nothing in `sources` refers to outside the definition
    itself (for an assignment, outside the whole statement, its own target
    included).  Strings, such as those in `__all__`, do not count as
    references, and neither do imports.  A name that two definitions share
    counts only through a reference `tied_reference` accepts, unless its
    qualified name is in `shared_name_callers`."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    total = Counter(
        name for tree in trees.values() for name in referenced_names(tree)
    )
    defined = Counter(
        qualified.split(".")[-1]
        for tree in trees.values() for qualified, _ in definitions(tree)
    )
    found = []
    for path, tree in trees.items():
        for qualified, node in definitions(tree):
            name = qualified.split(".")[-1]
            if defined[name] > 1:
                used = qualified in shared_name_callers or \
                    tied_reference(trees, path, qualified, node)
            else:
                used = total[name] > sum(
                    seen == name for seen in referenced_names(node)
                )
            if not used:
                found.append((path, qualified))
    return found


def is_private(qualified):
    return any(part.startswith("_") for part in qualified.split("."))


def uncalled_public_names(sources, entry_points,
                          shared_name_callers=frozenset()):
    """The public definitions `unreferenced` finds in `sources`, less the
    qualified names in `entry_points`."""
    return [
        (path, name)
        for path, name in unreferenced(sources, shared_name_callers)
        if not is_private(name) and name not in entry_points
    ]


SOURCES = {
    path: path.read_text()
    for path in Path(bquant.__file__).parent.glob("*.py")
}

# Public names the package itself need not call: its library entry points.
README_LIBRARY = {  # the names README's "Library" example uses
    "load_description", "validate_description", "quantize_description",
    "local_model", "quantize_local_model", "reduced_space_quantization",
    "verify_qr_product", "ValidationReport.passed", "VirtualCharacter.items",
    "VirtualCharacter.dimension", "VirtualCharacter.is_zero", "QRReport.matches",
}
CHARACTER_ALGEBRA = {  # with the product of moment images, whose
    # character is the tensor product of the factors' characters
    "VirtualCharacter.tensor", "VirtualCharacter.invariant_part",
    "VirtualCharacter.delta", "VirtualCharacter.is_zero",
    "LatticePolyhedron.product",
}
PATCHED_BY_NAME = {  # perfbench/spans.py wraps these by attribute name
    "VirtualCharacter.tensor", "LatticePolyhedron.lattice_points",
}
POLYHEDRON_CONSTRUCTIONS = {  # README's translates; the package moves
    # rows with _shifted_rows
    "LatticePolyhedron.translate",
}
ENTRY_POINTS = (
    README_LIBRARY | CHARACTER_ALGEBRA | PATCHED_BY_NAME
    | POLYHEDRON_CONSTRUCTIONS
)

# Methods whose name another definition shares and whose callers reach them
# through an instance the scan cannot type; each with a caller.
SHARED_NAME_CALLERS = {
    "LatticePolyhedron.to_payload",  # cli._cmd_cancel, each tail
    "VirtualCharacter.to_payload",  # cli._cmd_quantize, cli._cmd_cancel
    "CheckReport.payload",  # spaces.ValidationReport.payload, each check
    "ValidationReport.payload",  # cli._cmd_check
    "QRReport.payload",  # cli._cmd_verify_qr
}


def test_scan_finds_an_uncalled_helper():
    source = (
        "__all__ = ['lone', 'used']\n"
        "def lone(n):\n    return lone(n - 1) if n else used()\n"
        "def used():\n    return 0\n"
        "def chained():\n    return 1\n"
    )
    caller = "from . import helpers\nhelpers.chained()\n"
    assert unreferenced({"helpers.py": source, "caller.py": caller}) == [
        ("helpers.py", "lone")
    ]


def test_scan_finds_an_unused_constant():
    # a constant or alias counts as used only when read outside its own
    # assignment; __all__ and __version__ are never listed
    source = (
        "__all__ = ['LIMIT']\n__version__ = '1.0'\n"
        "LIMIT = 3\n_SPARE = 4\nALIAS: int = LIMIT\n_USED = 5\n"
        "def size():\n    return _USED\n"
    )
    caller = "from . import limits\nlimits.size()\n"
    assert unreferenced({"limits.py": source, "caller.py": caller}) == [
        ("limits.py", "_SPARE"), ("limits.py", "ALIAS")
    ]


def test_scan_finds_an_uncalled_public_method():
    # dunder methods are never listed; a private one is, but only the
    # private-helper test reads it
    source = (
        "class Box:\n"
        "    def __init__(self):\n        self.size = 0\n"
        "    def used(self):\n        return self.helper()\n"
        "    def helper(self):\n        return 0\n"
        "    def lone(self):\n        return self.lone()\n"
        "    def entry(self):\n        return 1\n"
        "    def _spare(self):\n        return 2\n"
        "Box().used()\n"
    )
    sources = {"box.py": source}
    assert uncalled_public_names(sources, {"Box.entry"}) == [("box.py", "Box.lone")]
    assert unreferenced(sources)[-1] == ("box.py", "Box._spare")


def test_scan_ties_a_shared_name_to_its_definition():
    # Disk.load and Tape.load share a name, and so do Disk.eject, Tape.eject
    # and eject: `self.load()` in Tape calls Tape.load, `helpers.Tape.eject`
    # Tape.eject and the bare `eject` the function, while `media.eject()`
    # could be any of them, so Disk's two methods have no caller
    source = (
        "class Disk:\n"
        "    def load(self):\n        return self.load()\n"
        "    def eject(self):\n        return 0\n"
        "class Tape:\n"
        "    def load(self):\n        return 1\n"
        "    def eject(self):\n        return self.load()\n"
        "def rewind(media):\n    return media.eject()\n"
        "def eject(media):\n    return rewind(media)\n"
        "eject(Tape())\n"
    )
    caller = "from . import helpers\nhelpers.Disk()\nhelpers.Tape.eject(None)\n"
    sources = {"helpers.py": source, "caller.py": caller}
    assert unreferenced(sources) == [
        ("helpers.py", "Disk.load"), ("helpers.py", "Disk.eject")
    ]
    assert unreferenced(sources, {"Disk.eject"}) == [
        ("helpers.py", "Disk.load")
    ]


def test_every_linalg_helper_has_a_caller_in_the_package():
    # every function of the private _linalg module, and every private
    # function, class and method of the other modules
    assert [
        f"{path.name}: {name}"
        for path, name in unreferenced(SOURCES, SHARED_NAME_CALLERS)
        if path.name == "_linalg.py" or is_private(name)
    ] == []


def test_every_public_name_has_a_caller_or_is_an_entry_point():
    assert [
        f"{path.name}: {name}"
        for path, name in uncalled_public_names(
            SOURCES, ENTRY_POINTS, SHARED_NAME_CALLERS
        )
    ] == []


def test_entry_points_are_defined_and_documented():
    # a deleted name leaves no stale entry behind, and each group's entries
    # are named where the group says they are
    defined = Counter(
        name for text in SOURCES.values()
        for name, _ in definitions(ast.parse(text))
    )
    assert sorted(ENTRY_POINTS - defined.keys()) == []
    # and every shared-name entry is defined and still shares its name
    shared = Counter(name.split(".")[-1] for name in defined)
    assert [
        name for name in sorted(SHARED_NAME_CALLERS)
        if name not in defined or shared[name.split(".")[-1]] < 2
    ] == []
    root = Path(__file__).resolve().parents[1]
    library = (root / "README.md").read_text().split("## Library", 1)[1]
    assert [
        name for name in sorted(README_LIBRARY)
        if name.split(".")[-1] not in library
    ] == []
    spans = ast.parse((root / "perfbench" / "spans.py").read_text())
    strings = {
        node.value for node in ast.walk(spans)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    assert [
        name for name in sorted(PATCHED_BY_NAME)
        if name.split(".")[-1] not in strings
    ] == []


@pytest.mark.parametrize("module", ["bquant"] + [
    f"bquant.{path.stem}" for path in MODULES
    if exported_names(ast.parse(path.read_text()))
])
def test_every_exported_name_resolves(module):
    imported = importlib.import_module(module)
    assert [
        name for name in imported.__all__ if not hasattr(imported, name)
    ] == []


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


def fraction_builders(source):
    """(function, line) for each call that builds a Fraction in `source`,
    ``Fraction(...)`` or ``Fraction.<name>(...)``, named by its innermost
    enclosing function (``Class.method`` for a method)."""
    tree = ast.parse(source)
    enclosing = {}
    for top in tree.body:
        members = top.body if isinstance(top, ast.ClassDef) else [top]
        for node in members:
            if isinstance(node, ast.FunctionDef):
                name = node.name if node is top else f"{top.name}.{node.name}"
                for child in ast.walk(node):
                    enclosing[id(child)] = name
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            func = func.value
        if isinstance(func, ast.Name) and func.id == "Fraction":
            found.append((enclosing.get(id(node), "<module>"), node.lineno))
    return sorted(found)


def test_scan_finds_a_fraction_builder():
    source = (
        "from fractions import Fraction\n"
        "def half():\n    return Fraction(1, 2)\n"
        "class Box:\n"
        "    def side(self):\n        return Fraction.from_float(0.5)\n"
        "    def kind(self, x):\n        return isinstance(x, Fraction)\n"
        "ONE = Fraction(1)\n"
    )
    assert fraction_builders(source) == [
        ("<module>", 9), ("Box.side", 6), ("half", 3)
    ]


# The only functions that build a Fraction: where the public API hands a
# rational number out (a vertex, a bound of the inequalities view, the text
# of a bound) or takes an exact number in.  The kernels keep integer rows,
# box ends, solutions and vertex tables.
FRACTION_BUILDERS = {
    "_linalg.py": {
        "exact",  # any other exact number handed in
    },
    "polyhedra.py": {
        "_as_pairs",  # the inequalities view and irredundant_inequalities
        "LatticePolyhedron.vertices",  # built from the vertex table
        "LatticePolyhedron.to_payload",  # the text of each bound
        "_inequality_text",  # str(polyhedron)
    },
}


def test_fractions_are_built_only_at_the_public_edge():
    builders = {
        path.name: {name for name, _ in fraction_builders(path.read_text())}
        for path in sorted(Path(bquant.__file__).parent.glob("*.py"))
    }
    assert {
        module: names for module, names in builders.items() if names
    } == FRACTION_BUILDERS


def raw_row_reads(source, reader="_certified_rows"):
    """(function, line) for each read of the attribute `_rows` in `source`
    outside the function named `reader`, the one place a module may read a
    polyhedron's row scan, so that every row it uses is certified."""
    tree = ast.parse(source)
    enclosing = {  # the innermost function around each node: ast.walk
        # reaches an outer function before the functions nested in it
        id(child): node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        for child in ast.walk(node)
    }
    return sorted(
        (enclosing.get(id(node), "<module>"), node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "_rows"
        and enclosing.get(id(node)) != reader
    )


def test_scan_finds_a_raw_row_read():
    source = (
        "def _certified_rows(p):\n    return p._rows()\n"
        "def audit(p):\n    rows = p._rows\n    return p.integer_rows\n"
        "def outer(p):\n    def inner():\n        return p._rows()\n"
        "    return inner\n"
        "rows = object()._rows\n"
    )
    assert raw_row_reads(source) == [
        ("<module>", 10), ("audit", 4), ("inner", 8)
    ]


def test_rows_are_read_only_through_certified_rows():
    # in every module, the row scan is read only by
    # LatticePolyhedron._certified_rows, which checks each run it hands on
    sources = {
        path.name: path.read_text()
        for path in sorted(Path(bquant.__file__).parent.glob("*.py"))
    }
    assert {
        name: reads for name, source in sources.items()
        if (reads := raw_row_reads(source))
    } == {}
    assert [
        name for name, source in sources.items()
        if "def _certified_rows(" in source
    ] == ["polyhedra.py"]


def weight_listings(source):
    """(function, line) for each place in `source` that lists weights: a
    loop or comprehension over ``range(...)`` whose body builds a weight
    ``head + (x,)`` from the loop variable x, and each call of
    ``lattice_points``, named by the innermost function around it."""
    tree = ast.parse(source)
    enclosing = {  # the innermost function around each node, as above
        id(child): node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        for child in ast.walk(node)
    }

    def builds_weight(scope, name):
        return any(
            isinstance(child, ast.BinOp) and isinstance(child.op, ast.Add)
            and isinstance(child.right, ast.Tuple)
            and any(getattr(item, "id", None) == name
                    for item in child.right.elts)
            for child in ast.walk(scope)
        )

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and \
                getattr(node.func, "attr", None) == "lattice_points":
            found.append(node)
        loops = [node] if isinstance(node, ast.For) else getattr(
            node, "generators", []
        )
        if any(
            isinstance(loop.iter, ast.Call)
            and getattr(loop.iter.func, "id", None) == "range"
            and isinstance(loop.target, ast.Name)
            and builds_weight(node, loop.target.id)
            for loop in loops
        ):
            found.append(node)
    return sorted(
        (enclosing.get(id(node), "<module>"), node.lineno) for node in found
    )


def test_scan_finds_a_weight_listing():
    source = (
        "def _from_rows(rows):\n"
        "    return {h + (x,): v for h, (a, b, v) in rows\n"
        "            for x in range(a, b)}\n"
        "def walk(p, head):\n"
        "    for x in range(3):\n        yield head + (x,)\n"
        "def count(p, head, x):\n"
        "    return [p.lattice_points(), head + (x,), range(x)]\n"
        "def sizes(n):\n    return [(x,) for x in range(n)]\n"
    )
    assert weight_listings(source) == [
        ("_from_rows", 2), ("count", 8), ("walk", 5)
    ]


def test_only_from_rows_lists_weights():
    # the engine keeps characters in runs of rows, and only
    # VirtualCharacter._from_rows lists their weights, once, in order
    root = Path(bquant.__file__).parent
    assert {
        name: [function for function, _ in weight_listings(
            (root / name).read_text()
        )]
        for name in ("engine.py", "characters.py")
    } == {"engine.py": [], "characters.py": ["_from_rows"]}


def field_check_texts(source, checker="_fields"):
    """(function, line) for each ParseError built in `source` outside the
    function named `checker` whose text names an unknown or a missing
    field, so that the object check of the bquant/1 reader is made once."""
    tree = ast.parse(source)
    enclosing = {  # the innermost function around each node, as above
        id(child): node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        for child in ast.walk(node)
    }
    return sorted(
        (enclosing.get(id(node), "<module>"), node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None))
        == "ParseError"
        and enclosing.get(id(node)) != checker
        and any(
            isinstance(part, ast.Constant) and isinstance(part.value, str)
            and ("unknown field" in part.value or "needs" in part.value)
            for argument in node.args for part in ast.walk(argument)
        )
    )


def test_scan_finds_a_field_check_outside_fields():
    source = (
        "def _fields(data, where, names):\n"
        "    raise ParseError(f'{where}: unknown field {names[0]!r}')\n"
        "def read(data):\n"
        "    raise ParseError(f'{data}: needs ' + repr('rank'))\n"
        "def other(data):\n"
        "    def inner():\n"
        "        raise errors.ParseError('top: unknown field x')\n"
        "    raise ParseError('rank: expected an integer')\n"
        "ERROR = ParseError('needs a schema')\n"
        "NOTE = ValueError('needs')\n"
    )
    assert field_check_texts(source) == [
        ("<module>", 9), ("inner", 7), ("read", 4)
    ]


def test_fields_alone_checks_the_reader_objects():
    # the reader's "unknown field" and "needs" texts come from
    # polyhedra._fields only, which every object of a description goes
    # through
    root = Path(bquant.__file__).parent
    assert {
        name: texts for name in ("polyhedra.py", "spaces.py")
        if (texts := field_check_texts((root / name).read_text()))
    } == {}
    assert "def _fields(" in (root / "polyhedra.py").read_text()


def package_imports(source, modules):
    """The modules of the package that `source` imports from, at any depth,
    by stem; "bquant" stands for the package itself, imported or read a
    name off that is no module in `modules`."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            package = "bquant" if node.level else None
            base = ".".join(filter(None, [package, node.module]))
            names = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            top, _, rest = name.partition(".")
            if top == "bquant":
                module = rest.split(".")[0]
                found.add(module if module in modules else "bquant")
    return found


def test_scan_finds_package_imports():
    source = (
        "import json\nfrom . import _linalg, __version__\n"
        "from .errors import ParseError\nimport bquant.spaces\n"
        "from bquant import engine\nfrom bquant.checks import CheckReport\n"
        "from os import path\n"
        "def late():\n    from .polyhedra import LatticePolyhedron\n"
    )
    modules = {"_linalg", "errors", "spaces", "engine", "checks", "polyhedra"}
    assert package_imports(source, modules) == modules | {"bquant"}
    assert package_imports("import bquant\nimport os\n", modules) == {
        "bquant"
    }


# Each module's imports from inside the package, by stem ("bquant": the
# package's own __init__).  _linalg and errors sit at the bottom; polyhedra,
# checks and characters on them; then spaces, the engine and the cli.
IMPORT_GRAPH = {
    "__init__": {"characters", "engine", "errors", "polyhedra", "spaces"},
    "__main__": {"cli"},
    "_linalg": set(),
    "characters": {"errors"},
    "checks": {"_linalg", "errors"},
    "cli": {"bquant", "_linalg", "engine", "errors", "spaces"},
    "engine": {"_linalg", "characters", "errors", "spaces"},
    "errors": set(),
    "polyhedra": {"_linalg", "errors"},
    "spaces": {"_linalg", "checks", "errors", "polyhedra"},
}


def test_each_module_imports_only_its_listed_modules():
    paths = sorted(Path(bquant.__file__).parent.glob("*.py"))
    modules = {path.stem for path in paths}
    edges = {
        path.stem: package_imports(path.read_text(), modules)
        for path in paths
    }
    assert sorted(modules) == sorted(IMPORT_GRAPH)
    assert [
        f"{module} imports {target}"
        for module in sorted(edges)
        for target in sorted(edges[module] - IMPORT_GRAPH[module])
    ] == []
    assert [
        f"{module} no longer imports {target}"
        for module in sorted(edges)
        for target in sorted(IMPORT_GRAPH[module] - edges[module])
    ] == []
