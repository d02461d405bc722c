"""Shared fixtures, the raw-JSON membership oracle, the Fraction solver and
the pointwise collapse.

The oracle reads description files with nothing but json and Fraction, so
expected values in the tests never depend on the library under test.  The
Fraction solver is the library's former `solve_unique`, the reference for
the integer one and for the vertex table.  The pointwise collapse is the
library's former route from the collapse's pieces to a character, the
reference for the run-form one.
"""

import importlib.util
import json
import os
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

CORPUS = Path(__file__).resolve().parent / "corpus"

VALID_B_FILES = [
    "sphere_a2_bm1.json",
    "sphere_a5_b0.json",
    "sphere_a0_bm4.json",
    "sphere_a20_bm20.json",
    "sphere_am3_bm7.json",
    "sphere_a1_b0.json",
    "sphere_halfbound.json",
    "chain3.json",
    "chain3_wide.json",
    "btorus.json",
    "btorus_4cycle.json",
    "product_k1.json",
    "product_k2.json",
    "product_k3.json",
    "product_k4.json",
    "product_k5.json",
    "skew.json",
    "skew_wide.json",
    "skew_neg.json",
    "strip_btorus.json",
    "strip_btorus_k2.json",
    "vert_sphere.json",
    "chain3_x_seg.json",
]

COMPACT_FILES = [
    "c_point.json",
    "c_seg_0_3.json",
    "c_seg_m2_0.json",
    "c_seg_m5_m1.json",
    "c_seg_m3_2.json",
    "c_square.json",
    "c_square_m1_0.json",
    "c_box_m3_0_x_m1_0.json",
    "c_triangle2.json",
]

NEGATIVE_FILES = [
    "neg_nonprimitive_weight.json",
    "neg_equal_signs.json",
    "neg_unmatched_tail.json",
    "neg_nonlattice_vertex.json",
    "neg_nondelzant_triangle.json",
]


def corpus_path(name):
    return CORPUS / name


def benchmark_workloads():
    """The benchmark's stdlib-only case generator, perfbench/workloads.py,
    loaded read-only as a module."""
    path = CORPUS.parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def huge_box(rank, bound=10**12):
    """A compact description of the box [0, bound]^rank: too many rows (rank
    2 and up) or points (rank 1) to enumerate."""
    inequalities = []
    for axis in range(rank):
        unit = [int(i == axis) for i in range(rank)]
        inequalities.append({"normal": unit, "bound": bound})
        inequalities.append({"normal": [-x for x in unit], "bound": 0})
    return {
        "schema": "bquant/1", "kind": "compact_toric", "rank": rank,
        "polytope": {"rank": rank, "inequalities": inequalities},
    }


@contextmanager
def address_space_cap(headroom=2**30):
    """Cap this process's address space at its current size plus
    `headroom` bytes while the block runs, so that a runaway enumeration
    raises MemoryError instead of exhausting the machine.  Where the size
    cannot be read (no /proc), the block runs uncapped."""
    try:
        import resource

        with open("/proc/self/statm", encoding="ascii") as handle:
            pages = int(handle.read().split()[0])
    except (ImportError, OSError):
        yield
        return
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = pages * os.sysconf("SC_PAGE_SIZE") + headroom
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


def solve_by_fractions(rows, rhs):
    """Solve the square-ish system rows * x = rhs; None unless the solution is unique."""
    from bquant._linalg import _row_reduce

    if not rows:
        return () if not rhs else None
    ncols = len(rows[0])
    augmented = [list(row) + [b] for row, b in zip(rows, rhs)]
    mat, pivots = _row_reduce(augmented)
    pivots_coeff = [c for c in pivots if c < ncols]
    if len(pivots_coeff) < ncols:
        return None  # underdetermined
    for row in mat[len(pivots_coeff):]:
        if row[ncols] != 0:
            return None  # inconsistent
    solution = [Fraction(0)] * ncols
    for row, c in zip(mat, pivots_coeff):
        solution[c] = Fraction(row[ncols], row[c])
    return tuple(solution)


def pointwise_collapse(description):
    """The collapse's former route, kept as the reference for the run-form
    one: every piece the engine keeps (`engine._pieces`) listed point by
    point (`lattice_points`), the signed points added one at a time into a
    dict, and the dict sorted into a character.  Runs no self-check."""
    from bquant import VirtualCharacter, engine

    table = {}
    for coefficient, piece in engine._pieces(description):
        for point in piece.lattice_points():
            total = table.get(point, 0) + coefficient
            if total:
                table[point] = total
            else:
                del table[point]
    return VirtualCharacter(description.rank, sorted(table.items()))


def raw_description(name):
    with open(CORPUS / name, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _raw_inside(poly, weight):
    for inequality in poly["inequalities"]:
        value = sum(n * w for n, w in zip(inequality["normal"], weight))
        if value > Fraction(str(inequality["bound"])):
            return False
    return True


def raw_multiplicity(data, weight):
    """Signed membership count straight off the parsed JSON."""
    if data["kind"] == "compact_toric":
        return int(_raw_inside(data["polytope"], weight))
    return sum(
        component["sign"] * int(_raw_inside(component["polyhedron"], weight))
        for component in data["components"]
    )


@pytest.fixture
def load():
    import bquant

    def _load(name):
        return bquant.load_description(corpus_path(name))

    return _load
