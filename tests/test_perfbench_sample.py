"""One traced benchmark sample of each workload runs against this tree.

``perfbench/spans.py`` wraps names inside bquant (``_linalg.fm_feasible``
and ``solve_unique``, ``LatticePolyhedron.lattice_points``,
``engine.tail_matching``, ``collapse_signed_tails(self_check=)``, ...) and
``perfbench/sample.py`` calls ``quantize_description(threads=)`` and reads
``validate_description.cache_info()``.  Renaming any of them breaks the
benchmark without failing another test: the samples below run the calls,
and every attribute ``install`` wraps must exist on the package.
"""

import ast
import importlib
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["sphere_family", "qr_verify"])
def test_traced_sample_runs(workload):
    result = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "sample.py"),
         "--workload", workload, "--seed", "1", "--variant", "check",
         "--spawned-at", str(time.monotonic())],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr
    record = json.loads(result.stdout.splitlines()[-1])
    assert record["failures"] == []
    assert record["attempted"] == len(record["latencies_s"]) > 0
    assert record["validations"] == record["descriptions"]
    # spans of layers each workload passes through; verify-qr reads the
    # collapse's runs without collapse_signed_tails, and no workload lists
    # a polyhedron's lattice points.  The trace's counts stay empty: the
    # benchmark fills them only from LatticePolyhedron.lattice_points and
    # VirtualCharacter.tensor, which neither workload calls, until it
    # counts the rows and runs read (ROADMAP item 4)
    spans = {"spaces.parse", "spaces.validate", "engine.match", "linalg.fm"}
    if workload == "sphere_family":
        spans.add("engine.collapse")
    assert spans <= record["trace"]["spans"].keys()


def wrapped_attributes():
    """(owner, attribute) for each name ``perfbench/spans.py``'s
    ``install`` wraps or reads: the owner and attribute of each
    ``patch(owner, "attribute", ...)`` call, and each attribute it reads
    off a module it imports from bquant.  An owner is dotted text such as
    ``characters.VirtualCharacter``."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    (install,) = [
        node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "install"
    ]
    modules = {
        alias.asname or alias.name
        for node in ast.walk(install)
        if isinstance(node, ast.ImportFrom) and node.module == "bquant"
        for alias in node.names
    }
    found = []
    for node in ast.walk(install):
        if isinstance(node, ast.Call) and \
                getattr(node.func, "id", None) == "patch":
            owner, attribute = node.args[:2]
            found.append((ast.unparse(owner), attribute.value))
        elif isinstance(node, ast.Attribute) and \
                getattr(node.value, "id", None) in modules:
            found.append((node.value.id, node.attr))
    return found


def test_every_wrapped_attribute_exists():
    found = wrapped_attributes()
    assert ("engine", "collapse_signed_tails") in found
    assert ("polyhedra.LatticePolyhedron", "lattice_points") in found
    missing = []
    for owner, attribute in found:
        module, *path = owner.split(".")
        target = importlib.import_module(f"bquant.{module}")
        for name in path:
            target = getattr(target, name)
        if not hasattr(target, attribute):
            missing.append(f"{owner}.{attribute}")
    assert missing == []
