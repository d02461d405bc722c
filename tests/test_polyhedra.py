"""LatticePolyhedron construction, predicates and lattice enumeration."""

import random
import time
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, product
from math import gcd, inf, lcm, nan
from operator import add, mul

import pytest

from conftest import solve_by_fractions

from bquant import _linalg
from bquant import (
    DimensionMismatchError,
    EmptyPolyhedronError,
    EnumerationBudgetError,
    LatticePolyhedron,
    NoVerticesError,
    ParseError,
    UnboundedPolyhedronError,
)
from bquant.spaces import cross_section, leaf_embedding_basis


def segment(low, high):
    return LatticePolyhedron(1, [((1,), high), ((-1,), -low)])


def box(x0, x1, y0, y1):
    return LatticePolyhedron(
        2,
        [((1, 0), x1), ((-1, 0), -x0), ((0, 1), y1), ((0, -1), -y0)],
    )


TRIANGLE = LatticePolyhedron(
    2, [((-1, 0), 0), ((0, -1), 0), ((1, 1), 2)]
)


# ----------------------------------------------------------------------
# construction and canonical form


def test_normals_made_primitive():
    p = LatticePolyhedron(1, [((2,), 5)])
    assert p.inequalities == (((1,), Fraction(5, 2)),)


def test_duplicate_normals_keep_tightest_bound():
    p = LatticePolyhedron(1, [((1,), 3), ((1,), 1), ((2,), 10)])
    assert p.inequalities == (((1,), Fraction(1)),)
    q = segment(0, 5).with_inequality((-1,), -2)
    assert q.with_inequality((-1,), 0) == q


def test_inequalities_sorted_deterministically():
    a = LatticePolyhedron(2, [((0, 1), 1), ((1, 0), 2)])
    b = LatticePolyhedron(2, [((1, 0), 2), ((0, 1), 1)])
    assert a == b
    assert hash(a) == hash(b)


def test_zero_normal_rejected():
    with pytest.raises(ValueError):
        LatticePolyhedron(2, [((0, 0), 1)])


def test_non_integer_normal_rejected():
    with pytest.raises(ValueError):
        LatticePolyhedron(1, [((Fraction(1, 2),), 1)])
    with pytest.raises(ValueError):
        LatticePolyhedron(1, [((True,), 1)])


@pytest.mark.parametrize("build", [
    lambda value: LatticePolyhedron(1, [((1,), value)]),
    lambda value: segment(0, 3).with_inequality((1,), value),
    lambda value: segment(0, 3).implies((1,), value),
    lambda value: segment(0, 3).translate((value,)),
], ids=["constructor", "with_inequality", "implies", "translate"])
@pytest.mark.parametrize("value", ["1/2", "0.1", "1", True, False], ids=repr)
def test_bounds_and_shifts_refuse_text_and_bools(build, value):
    # no number is parsed from text here (only the file reader reads
    # "p/q"), and a truth value is not a number, as for the normals
    with pytest.raises(TypeError):
        build(value)


@pytest.mark.parametrize("build", [
    lambda value: LatticePolyhedron(1, [((1,), value)]),
    lambda value: segment(0, 3).with_inequality((1,), value),
    lambda value: segment(0, 3).implies((1,), value),
    lambda value: segment(0, 3).translate((value,)),
    lambda value: segment(0, 3).contains_point((value,)),
], ids=["constructor", "with_inequality", "implies", "translate",
        "contains_point"])
@pytest.mark.parametrize("value", [
    inf, -inf, nan, Decimal("Infinity"), Decimal("NaN"),
], ids=repr)
def test_bounds_and_shifts_refuse_non_finite_numbers(build, value):
    # an infinity or a NaN has no exact value; the refusal names it
    with pytest.raises(ValueError) as info:
        build(value)
    assert str(info.value) == f"expected a finite number, got {value!r}"


def test_rank_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        LatticePolyhedron(2, [((1,), 1)])
    with pytest.raises(ValueError):
        LatticePolyhedron(True, [])


def test_immutable():
    p = segment(0, 1)
    with pytest.raises(AttributeError):
        p.rank = 3


# ----------------------------------------------------------------------
# membership: closed convention, boundary points inside


def test_contains_point_boundary_closed():
    p = segment(0, 3)
    assert p.contains_point((0,))
    assert p.contains_point((3,))
    assert not p.contains_point((4,))


def test_contains_point_fractional_bound():
    p = LatticePolyhedron(1, [((1,), Fraction(5, 2))])
    assert p.contains_point((2,))
    assert not p.contains_point((3,))
    assert p.contains_point((Fraction(5, 2),))
    # a float or a Decimal is decided as the number it holds: the float
    # 0.1 lies just above 1/10, the Decimal 0.1 on it
    below, above = (LatticePolyhedron(1, [(normal, Fraction(normal[0], 10))])
                    for normal in ((1,), (-1,)))
    assert not below.contains_point((0.1,))
    assert above.contains_point((0.1,))
    assert below.contains_point((Decimal("0.1"),))
    assert above.contains_point((Decimal("0.1"),))
    with pytest.raises(TypeError):
        below.contains_point(("0.1",))


def test_contains_point_rank_checked():
    with pytest.raises(DimensionMismatchError):
        segment(0, 1).contains_point((0, 0))


# ----------------------------------------------------------------------
# emptiness, implication, set equality


def test_is_empty():
    assert LatticePolyhedron(1, [((1,), -1), ((-1,), 0)]).is_empty()
    assert not segment(0, 0).is_empty()
    assert not LatticePolyhedron(2, []).is_empty()


def test_implies():
    p = segment(0, 2)
    assert p.implies((1,), 2)
    assert p.implies((1,), 5)
    assert not p.implies((1,), 1)


def test_set_equals_across_presentations():
    a = segment(0, 2)
    b = LatticePolyhedron(1, [((1,), 2), ((-1,), 0), ((1,), 7)])
    c = LatticePolyhedron(1, [((3,), 6), ((-2,), 0)])
    assert a.set_equals(b)
    assert a.set_equals(c)
    assert not a.set_equals(segment(0, 3))


def test_set_equals_empty_sets():
    a = LatticePolyhedron(1, [((1,), -1), ((-1,), 0)])
    b = LatticePolyhedron(1, [((1,), -5), ((-1,), 4)])
    assert a.set_equals(b)
    assert not a.set_equals(segment(0, 1))
    assert not segment(0, 1).set_equals(a)


def test_contains_polyhedron():
    assert segment(0, 3).contains_polyhedron(segment(1, 2))
    assert not segment(1, 2).contains_polyhedron(segment(0, 3))
    half = LatticePolyhedron(1, [((1,), 0)])
    assert half.contains_polyhedron(segment(-5, 0))
    assert not half.contains_polyhedron(segment(-5, 1))


# ----------------------------------------------------------------------
# vertices and rays


def test_vertices_square():
    assert box(0, 2, 0, 1).vertices() == (
        (0, 0), (0, 1), (2, 0), (2, 1)
    )


def test_vertices_fractional():
    p = LatticePolyhedron(1, [((2,), 5), ((-1,), 0)])
    assert p.vertices() == ((Fraction(0),), (Fraction(5, 2),))


def test_vertices_empty_raises():
    with pytest.raises(EmptyPolyhedronError):
        LatticePolyhedron(1, [((1,), -1), ((-1,), 0)]).vertices()


def test_vertices_line_has_none():
    strip = LatticePolyhedron(2, [((0, 1), 1), ((0, -1), 0)])
    assert strip.vertices() == ()


def test_recession_rays():
    assert box(0, 1, 0, 1).recession_rays() == ()
    half = LatticePolyhedron(1, [((1,), 2)])
    assert half.recession_rays() == ((-1,),)
    quadrant = LatticePolyhedron(2, [((1, 0), 0), ((0, 1), 0)])
    assert quadrant.recession_rays() == ((-1, 0), (0, -1))
    wedge = LatticePolyhedron(2, [((1, -1), 0), ((1, 1), 0)])
    assert wedge.recession_rays() == ((-1, -1), (-1, 1))


def test_recession_rays_with_lineality():
    line = LatticePolyhedron(1, [])
    assert line.recession_rays() == ((-1,), (1,))
    strip = LatticePolyhedron(2, [((0, 1), 1), ((0, -1), 0)])
    assert strip.recession_rays() == ((-1, 0), (1, 0))


def test_is_bounded():
    assert box(0, 1, 0, 1).is_bounded()
    assert not LatticePolyhedron(1, [((1,), 0)]).is_bounded()
    assert LatticePolyhedron(1, [((1,), -1), ((-1,), 0)]).is_bounded()


# ----------------------------------------------------------------------
# lattice points


def test_lattice_points_against_brute_force():
    for poly, window in [
        (TRIANGLE, range(-1, 4)),
        (box(-1, 2, 0, 1), range(-3, 4)),
        (LatticePolyhedron(2, [((1, 2), 3), ((-1, 0), 1), ((0, -1), 1)]),
         range(-3, 7)),
        # no integer in the first coordinate's range: no row to scan
        (LatticePolyhedron(2, [((1, 0), Fraction(2, 3)),
                               ((-1, 0), Fraction(-1, 3)),
                               ((0, 1), 1), ((0, -1), 0)]),
         range(-3, 4)),
    ]:
        expected = [
            pt for pt in product(window, repeat=2) if poly.contains_point(pt)
        ]
        assert poly.lattice_points() == expected


def test_lattice_points_lex_order_and_fractional_bounds():
    p = LatticePolyhedron(1, [((2,), 5), ((-2,), 1)])
    assert p.lattice_points() == [(0,), (1,), (2,)]


def test_points_in_box_against_brute_force():
    # the certified runs of rows over a box, which lattice_points and the
    # engine's checks read; unbounded and fractional polyhedra too: the box
    # alone makes it finite
    for poly in [
        TRIANGLE,
        LatticePolyhedron(2, [((1, 2), Fraction(7, 2)), ((-3, 1), 2)]),
        LatticePolyhedron(2, [((1, 0), 1), ((-1, 0), -1)]),
        LatticePolyhedron(3, [((1, 1, 1), 2), ((0, -1, 2), Fraction(1, 3))]),
    ]:
        box_ranges = [range(-3, 4), range(-2, 5), range(-4, 3)][: poly.rank]
        expected = [
            pt for pt in product(*box_ranges) if poly.contains_point(pt)
        ]
        *outer, last = box_ranges
        assert [
            head + (x,)
            for heads, first, final in poly._certified_rows(
                outer, last.start, last.stop - 1
            )
            for head in heads
            for x in range(first, final + 1)
        ] == expected


def test_lattice_points_empty():
    assert LatticePolyhedron(1, [((1,), -1), ((-1,), 0)]).lattice_points() == []


def test_lattice_points_unbounded_raises_with_ray():
    with pytest.raises(UnboundedPolyhedronError) as info:
        LatticePolyhedron(1, [((1,), 0)]).lattice_points()
    assert info.value.ray == (-1,)


def test_lattice_points_rank_zero():
    assert LatticePolyhedron(0, []).lattice_points() == [()]


def test_is_lattice_polytope():
    assert segment(0, 3).is_lattice_polytope()
    assert not LatticePolyhedron(1, [((2,), 5), ((-1,), 0)]).is_lattice_polytope()
    with pytest.raises(UnboundedPolyhedronError):
        LatticePolyhedron(1, [((1,), 0)]).is_lattice_polytope()
    with pytest.raises(EmptyPolyhedronError):
        LatticePolyhedron(1, [((1,), -1), ((-1,), 0)]).is_lattice_polytope()


# ----------------------------------------------------------------------
# smoothness


def test_irredundant_inequalities():
    p = LatticePolyhedron(1, [((1,), 2), ((-1,), 0)])
    q = p.with_inequality((1,), 9)
    assert q.irredundant_inequalities() == p.inequalities


def irredundant_by_restarts(polyhedron):
    """The oracle: drop the first inequality the others imply, then start
    over from the first, until none is implied."""
    kept = list(polyhedron.integer_inequalities)
    changed = True
    while changed:
        changed = False
        for index in range(len(kept)):
            normal, p, q = kept[index]
            rest = kept[:index] + kept[index + 1:]
            violation = (tuple(-x for x in normal), -p, q)
            if not _linalg.fm_feasible(rest, polyhedron.rank, violation):
                del kept[index]
                changed = True
                break
    return tuple((normal, Fraction(p, q)) for normal, p, q in kept)


def test_irredundant_inequalities_match_the_restart_oracle():
    # random polyhedra of ranks 1-3, bounded or not, empty or not; a third
    # also hold an inequality together with its negation, so they are
    # lower-dimensional or empty
    rng = random.Random(41)
    dropped = 0
    for _ in range(3000):
        rank = rng.randint(1, 3)
        inequalities = [
            (normal, Fraction(rng.randint(-6, 6), rng.randint(1, 2)))
            for normal in (
                tuple(rng.randint(-2, 2) for _ in range(rank))
                for _ in range(rng.randint(1, 6))
            )
            if any(normal)
        ]
        if inequalities and rng.random() < 1 / 3:
            normal, bound = rng.choice(inequalities)
            inequalities.append((tuple(-x for x in normal), -bound))
        polyhedron = LatticePolyhedron(rank, inequalities)
        expected = irredundant_by_restarts(polyhedron)
        assert polyhedron.irredundant_inequalities() == expected
        dropped += len(polyhedron.inequalities) - len(expected)
    assert dropped > 1000


def test_delzant_segment_and_square():
    assert segment(0, 3).delzant_failure() is None
    assert box(0, 1, 0, 1).delzant_failure() is None
    assert TRIANGLE.delzant_failure() is None


def test_delzant_single_point():
    # a point cut out by more facets than the rank still counts as smooth
    assert segment(0, 0).delzant_failure() is None
    origin = LatticePolyhedron(
        2, [((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((0, -1), 0)]
    )
    assert origin.delzant_failure() is None


def test_delzant_failure_bad_determinant():
    bad = LatticePolyhedron(2, [((-1, 0), 0), ((0, -1), 0), ((2, 1), 2)])
    vertex, reason = bad.delzant_failure()
    assert vertex == (1, 0)
    assert "determinant" in reason


def test_delzant_redundant_facet_through_vertex_is_ignored():
    p = LatticePolyhedron(
        2,
        [((1, 0), 1), ((0, 1), 1), ((-1, 0), 0), ((0, -1), 0), ((1, 1), 2)],
    )
    # x+y <= 2 passes through (1,1) but is implied by the square, so the
    # vertex still lies on exactly two irredundant facets
    assert p.delzant_failure() is None


def test_delzant_failure_too_many_facets():
    # a flat segment embedded in the plane: its endpoints lie on three
    # irredundant facets each
    flat = LatticePolyhedron(
        2, [((0, 1), 0), ((0, -1), 0), ((1, 0), 1), ((-1, 0), 0)]
    )
    vertex, reason = flat.delzant_failure()
    assert vertex == (0, 0)
    assert "facets" in reason


def test_delzant_unbounded_component_vertex():
    half = LatticePolyhedron(1, [((1,), 2)])
    assert half.delzant_failure() is None
    with pytest.raises(NoVerticesError):
        LatticePolyhedron(1, []).delzant_failure()
    with pytest.raises(EmptyPolyhedronError):
        LatticePolyhedron(1, [((1,), -1), ((-1,), 0)]).delzant_failure()


# ----------------------------------------------------------------------
# constructions


def test_translate():
    p = segment(0, 2).translate((3,))
    assert p.set_equals(segment(3, 5))
    with pytest.raises(DimensionMismatchError):
        segment(0, 2).translate((1, 1))


def test_product():
    p = segment(0, 1).product(segment(2, 3))
    assert p.rank == 2
    assert p.lattice_points() == [(0, 2), (0, 3), (1, 2), (1, 3)]


def test_intersection_and_with_inequality():
    # an intersection is the polyhedron of both inequality lists
    p = LatticePolyhedron(
        1, segment(0, 5).inequalities + segment(3, 9).inequalities
    )
    assert p.set_equals(segment(3, 5))
    q = segment(0, 5).with_inequality((-1,), -2)
    assert q.set_equals(segment(2, 5))


def test_reflect_through_origin():
    p = segment(1, 3).reflect_through_origin()
    assert p.set_equals(segment(-3, -1))
    assert TRIANGLE.reflect_through_origin().lattice_points() == [
        tuple(-x for x in pt) for pt in reversed(TRIANGLE.lattice_points())
    ]


# ----------------------------------------------------------------------
# serialization


def test_payload_round_trip():
    p = LatticePolyhedron(2, [((1, 2), Fraction(7, 3)), ((-1, 0), 4)])
    data = p.to_payload()
    assert data["inequalities"][0]["bound"] in {"7/3", "4"}
    assert LatticePolyhedron.from_payload(data) == p


def test_from_payload_accepts_int_and_fraction_strings():
    p = LatticePolyhedron.from_payload(
        {"rank": 1, "inequalities": [
            {"normal": [1], "bound": 2},
            {"normal": [-1], "bound": "1/2"},
        ]}
    )
    assert p.contains_point((0,))
    assert not p.contains_point((-1,))


@pytest.mark.parametrize(
    "payload, fragment",
    [
        ({"rank": 1}, "needs"),
        ({"rank": 1, "inequalities": [], "extra": 1}, "unknown field"),
        ({"rank": -1, "inequalities": []}, "nonnegative"),
        ({"rank": 1, "inequalities": [{"normal": [0], "bound": 1}]}, "nonzero"),
        ({"rank": 1, "inequalities": [{"normal": [1, 2], "bound": 1}]}, "match"),
        ({"rank": 1, "inequalities": [{"normal": [1]}]}, "needs"),
        ({"rank": 1, "inequalities": [{"normal": [1], "bound": 1.5}]}, "expected"),
        ({"rank": 1, "inequalities": [{"normal": [1], "bound": "1.5"}]}, "exact"),
        ({"rank": 1, "inequalities": [{"normal": [1], "bound": "1/0"}]}, "zero"),
        ({"rank": 1, "inequalities": [{"normal": [1], "bound": True}]}, "boolean"),
        ({"rank": 1, "inequalities": [{"normal": [1.0], "bound": 1}]}, "integers"),
        # exact literals are ASCII digits only, with nothing after them
        ({"rank": 1, "inequalities": [{"normal": [1], "bound": "\u0663/\u0664"}]},
         "exact"),
        ({"rank": 1, "inequalities": [{"normal": [1], "bound": "3\n"}]}, "exact"),
        ("nope", "expected an object"),
    ],
)
def test_from_payload_rejects(payload, fragment):
    with pytest.raises(ParseError) as info:
        LatticePolyhedron.from_payload(payload)
    assert fragment in str(info.value)


def test_from_payload_refuses_a_rank_whose_square_is_over_the_budget():
    # a polyhedron's box eliminates rank * (rank - 1) times even with no
    # inequalities, so a hostile rank is refused where it is read
    assert LatticePolyhedron.from_payload(
        {"rank": 1000, "inequalities": []}
    ).rank == 1000
    with pytest.raises(EnumerationBudgetError) as info:
        LatticePolyhedron.from_payload({"rank": 1001, "inequalities": []}, "leaf")
    assert info.value.count == 1001**2
    assert str(info.value) == (
        "leaf.rank: rank 1001 squared is 1002001, over the budget of 1000000"
    )


def test_str():
    assert str(segment(0, 2)) == "{-x1 <= 0; x1 <= 2}"
    assert str(LatticePolyhedron(2, [((2, -3), Fraction(1, 2))])) == \
        "{2*x1 - 3*x2 <= 1/2}"
    assert str(LatticePolyhedron(1, [])) == "{x in R^1}"


# ----------------------------------------------------------------------
# the bounding box and the integer kernels against their former routes


def random_inequalities(count, seed):
    """`count` pairs (rank, inequalities) of ranks 0-3 drawn from
    `random.Random(seed)`: small normals and bounds; a quarter also hold
    the negation of one of their inequalities, moved by 0 or -1/2
    (lower-dimensional or empty), a fifth the sum of two of them
    (redundant, and through every point where both are tight), and a fifth
    leave the last coordinate free (a lineality line)."""
    rng = random.Random(seed)
    for _ in range(count):
        rank = rng.randint(0, 3)
        free_last = rank > 1 and rng.random() < 0.2
        inequalities = []
        for _ in range(rng.randint(0, 7) if rank else 0):
            normal = [rng.randint(-2, 2) for _ in range(rank)]
            if free_last:
                normal[-1] = 0
            if any(normal):
                bound = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                inequalities.append((tuple(normal), bound))
        if inequalities and rng.random() < 0.25:
            normal, bound = rng.choice(inequalities)
            inequalities.append((tuple(-x for x in normal),
                                 -bound - rng.choice((0, Fraction(1, 2)))))
        if len(inequalities) > 1 and rng.random() < 0.2:
            (a, b), (c, d) = rng.sample(inequalities, 2)
            if any(map(add, a, c)):
                inequalities.append((tuple(map(add, a, c)), b + d))
        yield rank, inequalities


def vertices_by_fractions(polyhedron):
    """The former `vertices`: every `rank` inequalities solved with their
    Fraction bounds, kept when the solution is a point of the polyhedron."""
    normals = [n for n, _ in polyhedron.inequalities]
    bounds = [b for _, b in polyhedron.inequalities]
    found = set()
    for subset in combinations(range(len(normals)), polyhedron.rank):
        point = solve_by_fractions(
            [normals[i] for i in subset], [bounds[i] for i in subset]
        )
        if point is not None and polyhedron.contains_point(point):
            found.add(point)
    return tuple(sorted(found))


def delzant_by_facets(polyhedron):
    """The former `delzant_failure` after its guards: the facets at each
    vertex are always read off `irredundant_inequalities`."""
    facets = polyhedron.irredundant_inequalities()
    for vertex in polyhedron.vertices():
        active = [
            normal
            for normal, bound in facets
            if sum(n * x for n, x in zip(normal, vertex)) == bound
        ]
        if len(active) != polyhedron.rank:
            return vertex, (f"vertex lies on {len(active)} facets, "
                            f"expected {polyhedron.rank}")
        det = _linalg.determinant(active)
        if abs(det) != 1:
            return vertex, f"vertex cone has determinant {det}, expected +-1"
    return None


def merged_by_fractions(inequalities):
    """The former constructor's merge, in Fractions: each normal and its
    bound divided by the gcd of the normal's entries, and the least bound
    kept per normal, as (normal, Fraction) pairs sorted by normal."""
    merged = {}
    for normal, bound in inequalities:
        g = gcd(*normal)
        normal, bound = tuple(x // g for x in normal), Fraction(bound) / g
        if normal not in merged or bound < merged[normal]:
            merged[normal] = bound
    return tuple(sorted(merged.items()))


def rows_of(pairs):
    """The integer rows (normal, p, q) of (normal, Fraction bound) pairs."""
    return tuple((n, b.numerator, b.denominator) for n, b in pairs)


def cross_section_by_fractions(polyhedron, weight, splitting, basis, level):
    """The former `cross_section`, in Fractions: each inequality restricted
    to the slice <splitting, x> = level and merged by
    `merged_by_fractions`; None when a row that the slice does not move
    fails on it."""
    inequalities = []
    for normal, bound in polyhedron.inequalities:
        projected = tuple(_linalg.dot(normal, d) for d in basis)
        shifted = bound - level * _linalg.dot(normal, weight)
        if any(projected):
            inequalities.append((projected, shifted))
        elif shifted < 0:
            return None
    return merged_by_fractions(inequalities)


def random_frame(rng, rank):
    """A modular weight v and a splitting s with <v, s> = 1: v = (1, a)
    and s = (1 - <a, c>, c), coordinates permuted alike."""
    a = [rng.randint(-2, 2) for _ in range(rank - 1)]
    c = [rng.randint(-2, 2) for _ in range(rank - 1)]
    weight, splitting = [1] + a, [1 - sum(map(mul, a, c))] + c
    order = rng.sample(range(rank), rank)
    return tuple(weight[i] for i in order), tuple(splitting[i] for i in order)


def check_integer_rows(polyhedron, inequalities, rng, checked):
    """The integer-row constructions of ``polyhedron``, built from
    ``inequalities``, against their Fraction routes: the merge (also with
    each inequality repeated scaled by 1-3 and moved), `translate` by a
    rational shift, `with_inequality` and `implies` with a random normal,
    often not primitive, and a rational bound, and `cross_section` on a
    random frame.  Returns the row (normal, bound) that was tested."""
    rank = polyhedron.rank
    mixed = inequalities + [
        (tuple(k * x for x in normal), k * bound + rng.choice((0, 1, Fraction(1, 2))))
        for normal, bound in inequalities for k in [rng.randint(1, 3)]
    ]
    for pairs in (inequalities, mixed):
        expected = merged_by_fractions(pairs)
        merged = LatticePolyhedron(rank, pairs)
        assert merged.integer_inequalities == rows_of(expected)
        assert merged.inequalities == expected
        checked["merged"] += len(pairs) > len(expected)
    shift = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                  for _ in range(rank))
    assert polyhedron.translate(shift).integer_inequalities == rows_of(
        (n, b + sum(map(mul, n, shift))) for n, b in polyhedron.inequalities
    )
    if not rank:
        return None
    normal = tuple(rng.randint(-4, 4) for _ in range(rank - 1)) + (
        rng.choice((-4, -2, -1, 1, 2, 3)),
    )
    bound = Fraction(rng.randint(-12, 12), rng.randint(1, 4))
    g = gcd(*normal)
    checked["not primitive"] += g > 1
    assert polyhedron.with_inequality(normal, bound).integer_inequalities == \
        rows_of(merged_by_fractions(polyhedron.inequalities + ((normal, bound),)))
    assert polyhedron.implies(normal, bound) == polyhedron.implies(
        tuple(x // g for x in normal), bound / g
    )
    weight, splitting = random_frame(rng, rank)
    basis = leaf_embedding_basis(splitting)
    level = rng.randint(-4, 4)
    section = cross_section(polyhedron, weight, splitting, basis, level)
    expected = cross_section_by_fractions(
        polyhedron, weight, splitting, basis, level
    )
    assert (section is None) == (expected is None)
    if section is None:
        checked["no section"] += 1
    else:
        checked["section"] += 1
        assert section.integer_inequalities == rows_of(expected)
    return normal, bound


def test_box_and_integer_kernels_match_their_oracles(monkeypatch):
    seen = Counter()
    passes = []  # polyhedra whose facets were listed
    irredundant = LatticePolyhedron.irredundant_inequalities
    monkeypatch.setattr(
        LatticePolyhedron, "irredundant_inequalities",
        lambda self: passes.append(self) or irredundant(self),
    )
    feasible, calls = _linalg.fm_feasible, Counter()
    for name in ("fm_feasible", "fm_box"):
        real = getattr(_linalg, name)
        monkeypatch.setattr(
            _linalg, name,
            lambda *args, _real=real, _name=name:
                calls.update((_name,)) or _real(*args),
        )
    shifts, rows_rng, checked = random.Random(4), random.Random(6), Counter()
    for rank, inequalities in random_inequalities(10_000, seed=3):
        polyhedron = LatticePolyhedron(rank, inequalities)
        empty = not feasible(polyhedron.integer_inequalities, rank)
        # a box asked for first settles emptiness with one elimination;
        # emptiness asked for first is one feasibility test, and the box
        # after it one more elimination, or none when the set is empty
        calls.clear()
        box = polyhedron._box()
        assert polyhedron.is_empty() == empty == (box is None)
        assert calls == {"fm_box": 1}
        empty_first = LatticePolyhedron(rank, polyhedron.inequalities)
        assert empty_first.is_empty() == empty
        assert empty_first._box() == box
        assert calls == {"fm_box": 2 - empty, "fm_feasible": 1}
        shift = tuple(shifts.randint(-3, 3) for _ in range(rank))
        moved = polyhedron.translate(shift)
        assert moved == LatticePolyhedron(rank, [
            (n, b + sum(map(mul, n, shift))) for n, b in polyhedron.inequalities
        ])
        tested = check_integer_rows(polyhedron, inequalities, rows_rng, checked)
        if empty:
            seen["empty"] += 1
            assert polyhedron.is_bounded()
            with pytest.raises(EmptyPolyhedronError):
                polyhedron._vertex_table()
            assert tested is None or polyhedron.implies(*tested)
            continue
        rays = polyhedron.recession_rays()
        assert polyhedron.is_bounded() == (not rays)
        corners = polyhedron.vertices()
        assert corners == vertices_by_fractions(polyhedron)
        check_vertex_table(polyhedron, corners)
        assert len(box) == rank
        ranges = []  # the box with each end as a Fraction
        for axis, ends in enumerate(box):
            for sign, end in zip((-1, 1), ends):
                # the end is None iff a generator of the recession cone
                # moves the coordinate that way
                assert (end is None) == any(sign * r[axis] > 0 for r in rays)
                if end is not None:
                    # an end is the reduced pair (p, q) of p/q, q > 0
                    p, q = end
                    assert type(p) is type(q) is int
                    assert q > 0 and gcd(p, q) == 1
                    # sign * x_axis <= sign * p/q holds and is attained
                    unit = tuple(sign * (i == axis) for i in range(rank))
                    assert polyhedron.implies(unit, sign * Fraction(p, q))
                    attained = polyhedron.integer_inequalities + ((
                        tuple(-x for x in unit), -sign * p, q,
                    ),)
                    assert _linalg.fm_feasible(attained, rank)
            ranges.append(tuple(
                None if end is None else Fraction(*end) for end in ends
            ))
        if rays:
            seen["unbounded"] += 1
        else:
            seen["bounded"] += 1
            assert ranges == [(min(v), max(v)) for v in zip(*corners)]
        if corners and tested:
            # a pointed polyhedron is the hull of its vertices plus the
            # cone its rays generate
            normal, bound = tested
            implied = all(_linalg.dot(normal, v) <= bound for v in corners) \
                and all(_linalg.dot(normal, r) <= 0 for r in rays)
            assert polyhedron.implies(normal, bound) == implied
            checked["implied" if implied else "not implied"] += 1
        if not corners:
            seen["lineality"] += 1
        elif not (len(corners) == 1 and not rays):
            # delzant_failure's own guards passed: the shortcut applies
            # when every vertex is on exactly `rank` inequalities
            listed = len(passes)
            failure = polyhedron.delzant_failure()
            route = "facets" if len(passes) > listed else "shortcut"
            assert failure == delzant_by_facets(polyhedron)
            outcome = "pass" if failure is None else failure[1].split()[1]
            seen[f"delzant {outcome} by {route}"] += 1
    assert seen.keys() == {
        "empty", "unbounded", "bounded", "lineality",
        "delzant pass by shortcut", "delzant pass by facets",
        "delzant cone by shortcut", "delzant cone by facets",
        "delzant lies by facets",
    }, seen
    assert min(seen.values()) >= 50, seen
    assert len(checked) == 6 and min(checked.values()) >= 500, checked


def check_vertex_table(polyhedron, corners):
    """Each entry (point, scale, active) of the vertex table against the
    vertex `corners` lists at its place: point / scale is that vertex, scale
    the least common denominator of its coordinates, and active the rows
    whose Fraction inequality holds with equality there."""
    table = polyhedron._vertex_table()
    assert len(table) == len(corners)
    for (point, scale, active), vertex in zip(table, corners):
        assert all(type(x) is int for x in point)
        assert tuple(Fraction(x, scale) for x in point) == vertex
        assert scale == lcm(1, *(x.denominator for x in vertex))
        tight = [
            (normal, bound)
            for normal, bound in polyhedron.inequalities
            if sum(n * x for n, x in zip(normal, vertex)) == bound
        ]
        assert [(normal, Fraction(p, q)) for normal, p, q in active] == tight


def rays_by_cones(polyhedron):
    """The cone route of `recession_rays`, which rank 1 no longer takes:
    +-(a basis of the lineality space) and every kernel generator of
    `rank - 1` cone normals that all the normals keep nonpositive."""
    n = polyhedron.rank
    normals = [normal for normal, _ in polyhedron.inequalities]
    lineality = _linalg.rational_kernel_basis(normals, n)
    cone_normals = list(normals)
    rays = set()
    for direction in lineality:
        opposite = tuple(-x for x in direction)
        cone_normals += [direction, opposite]
        rays.update((direction, opposite))
    for subset in combinations(range(len(cone_normals)), n - 1):
        kernel = _linalg.rational_kernel_basis(
            [cone_normals[i] for i in subset], n
        )
        if len(kernel) == 1:
            for candidate in (kernel[0], tuple(-x for x in kernel[0])):
                if all(_linalg.dot(a, candidate) <= 0 for a in cone_normals):
                    rays.add(candidate)
    return tuple(sorted(rays))


def random_unimodular(rng, n):
    """A product of random integer shears: an n x n matrix of determinant
    1, as a list of rows."""
    matrix = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(0, 3)):
        i, j = rng.sample(range(n), 2)
        factor = rng.choice((-2, -1, 1, 2))
        for row in matrix:
            row[j] += factor * row[i]
    return matrix


def test_rays_agree_with_the_cone_route():
    # ranks 2-4; about half the polyhedra get a lineality space: their
    # normals vanish on some coordinates before a unimodular change of
    # basis skews the lineality off the axes
    rng = random.Random(43)
    seen = Counter()
    while seen["nonempty"] < 3_000:
        n = rng.randint(2, 4)
        free = set(rng.sample(range(n), rng.randint(0, n))) \
            if rng.random() < 0.5 else set()
        matrix = random_unimodular(rng, n)
        inequalities = []
        for _ in range(rng.randint(0, 5)):
            normal = [
                0 if i in free else rng.randint(-2, 2) for i in range(n)
            ]
            normal = tuple(
                sum(map(mul, normal, column)) for column in zip(*matrix)
            )
            if any(normal):
                inequalities.append((normal, rng.randint(-2, 4)))
        polyhedron = LatticePolyhedron(n, inequalities)
        if polyhedron.is_empty():
            continue
        seen["nonempty"] += 1
        expected = rays_by_cones(polyhedron)
        assert polyhedron.recession_rays() == expected, polyhedron
        normals = [normal for normal, _ in polyhedron.inequalities]
        seen["lineality"] += bool(_linalg.rational_kernel_basis(normals, n))
        seen["pointed, unbounded"] += bool(expected) and \
            not _linalg.rational_kernel_basis(normals, n)
    assert seen["lineality"] >= 1_000, seen
    assert seen["pointed, unbounded"] >= 500, seen


@pytest.mark.parametrize("rank", [10, 12, 40])
def test_rays_of_the_whole_space_are_quick(rank):
    # the lineality space is everything, so no subset of normals is
    # tried; the cone route would try C(2 * rank, rank - 1) of them
    started = time.perf_counter()
    rays = LatticePolyhedron(rank, []).recession_rays()
    assert time.perf_counter() - started < 1
    assert len(rays) == 2 * rank
    assert sorted(map(abs, map(sum, rays))) == [1] * (2 * rank)


def test_rank_one_rays_are_read_off_the_box(monkeypatch):
    rng = random.Random(29)
    oracle_kernel = _linalg.rational_kernel_basis
    kernel_calls = []
    monkeypatch.setattr(
        _linalg, "rational_kernel_basis",
        lambda *args: kernel_calls.append(args) or oracle_kernel(*args),
    )
    seen = Counter()
    for _ in range(5_000):
        inequalities = [
            ((rng.choice((-2, -1, 1, 3)),),
             Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
            for _ in range(rng.randint(0, 4))
        ]
        polyhedron = LatticePolyhedron(1, inequalities)
        if polyhedron.is_empty():
            seen["empty"] += 1
            with pytest.raises(EmptyPolyhedronError):
                polyhedron.recession_rays()
            continue
        listed = len(kernel_calls)
        rays = polyhedron.recession_rays()
        assert len(kernel_calls) == listed
        assert rays == rays_by_cones(polyhedron)
        assert polyhedron.recession_rays() is rays  # cached
        seen[rays] += 1
    assert seen.keys() == {"empty", (), ((-1,),), ((1,),), ((-1,), (1,))}
    assert min(seen.values()) >= 200, seen


def test_unbounded_error_writes_a_derived_ray_in_full():
    # the recession ray is the cross product of two normals, about 5,000
    # digits long, past Python's int-to-text limit; the message still
    # names it in full instead of failing with a bare ValueError
    big = 10**2500 + 1
    polyhedron = LatticePolyhedron(3, [
        ((big, 10**2499 + 7, 1), 0), ((1, big, 10**2499 + 7), 0),
    ])
    with pytest.raises(UnboundedPolyhedronError) as caught:
        polyhedron.lattice_points()
    ray = caught.value.ray
    assert max(abs(x) for x in ray) > 10**4300
    text = _linalg.exact_text(ray)
    assert str(caught.value).endswith(f"(recession ray {text})")
    assert text == "(" + ", ".join(str(Decimal(x)) for x in ray) + ")"
