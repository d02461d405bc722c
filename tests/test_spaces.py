"""Description parsing, validation and tail geometry."""

import json
import random
from fractions import Fraction
from operator import add

import pytest

from conftest import NEGATIVE_FILES, VALID_B_FILES, corpus_path, raw_description

import bquant
from bquant import (
    BSpaceDescription,
    CompactToricSpace,
    DescriptionKindError,
    DimensionMismatchError,
    HypersurfaceIndexError,
    HypersurfaceRecord,
    LatticePolyhedron,
    NotValidatedError,
    ParseError,
    leaf_embedding_basis,
    load_description,
    local_model,
    parse_description,
    tail_threshold,
    validate_description,
)
from bquant.checks import CheckReport
from bquant.errors import EmptyPolyhedronError, NoVerticesError
from bquant.spaces import TailEnd, cross_section, tail_cut
from bquant import _linalg, spaces


def parse(data):
    return parse_description(json.dumps(data))


SPHERE = {
    "schema": "bquant/1", "kind": "b_toric", "rank": 1,
    "components": [
        {"sign": 1, "polyhedron": {"rank": 1, "inequalities": [
            {"normal": [1], "bound": 2}]}},
        {"sign": -1, "polyhedron": {"rank": 1, "inequalities": [
            {"normal": [1], "bound": -1}]}},
    ],
    "hypersurfaces": [
        {"modular_weight": [1], "splitting": [1],
         "leaf": {"rank": 0, "inequalities": []}, "adjacent": [0, 1]},
    ],
}

SEGMENT = {
    "schema": "bquant/1", "kind": "compact_toric", "rank": 1,
    "polytope": {"rank": 1, "inequalities": [
        {"normal": [1], "bound": 3}, {"normal": [-1], "bound": 0}]},
}


# ----------------------------------------------------------------------
# parsing


def test_parse_compact():
    space = parse(SEGMENT)
    assert isinstance(space, CompactToricSpace)
    assert space.rank == 1
    assert space.polytope.contains_point((3,))


def test_parse_compact_refuses_a_polytope_of_another_rank():
    data = json.loads(json.dumps(SEGMENT))
    data["rank"] = 2
    with pytest.raises(ParseError) as info:
        parse(data)
    assert str(info.value) == "polytope.rank: 1 does not match rank 2"


def test_parse_b_toric():
    d = parse(SPHERE)
    assert isinstance(d, BSpaceDescription)
    assert [sign for sign, _ in d.components] == [1, -1]
    record = d.hypersurfaces[0]
    assert record.modular_weight == (1,)
    assert record.leaf.rank == 0
    assert record.adjacent == (0, 1)


def test_parse_corpus_round_trip():
    for name in VALID_B_FILES + NEGATIVE_FILES:
        description = load_description(corpus_path(name))
        assert description.rank in (1, 2)


def test_float_literals_rejected():
    bad = json.loads(json.dumps(SEGMENT))
    bad["polytope"]["inequalities"][0]["bound"] = 3.0
    with pytest.raises(ParseError) as info:
        parse(bad)
    assert "not exact" in str(info.value)


def test_nonfinite_literals_rejected():
    text = json.dumps(SEGMENT).replace("3", "NaN", 1)
    with pytest.raises(ParseError) as info:
        parse_description(text)
    assert "NaN" in str(info.value)


@pytest.mark.parametrize("old, new, field", [
    ('"rank": 1, "components"', '"rank": 1, "rank": 1, "components"',
     "rank"),
    ('"sign": 1,', '"sign": 1, "sign": -1,', "sign"),
    ('"bound": 2}', '"bound": 2, "bound": 2}', "bound"),
], ids=["top level", "component", "inequality"])
def test_repeated_fields_are_refused(old, new, field):
    # a top-level field, a component's and an inequality's: JSON keeps the
    # last of two equal keys, which would read the sign 1, -1 as -1
    text = json.dumps(SPHERE)
    assert text.count(old) == 1
    with pytest.raises(ParseError) as info:
        parse_description(text.replace(old, new))
    assert str(info.value) == f"duplicate field {field!r}"


def test_syntax_error_reports_position():
    with pytest.raises(ParseError) as info:
        parse_description("{\n  broken")
    assert "line 2" in str(info.value)


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.update(schema="bquant/2"), "schema"),
        (lambda d: d.update(kind="mystery"), "kind"),
        (lambda d: d.update(extra=1), "unknown field"),
        (lambda d: d.update(rank="1"), "expected an integer"),
        (lambda d: d.pop("components"), "components"),
        (lambda d: d["components"].clear(), "nonempty"),
        (lambda d: d["components"][0].update(sign=2), "sign"),
        (lambda d: d["components"][0].pop("polyhedron"), "polyhedron"),
        (lambda d: d["components"][0]["polyhedron"].update(rank=2), "match"),
        (lambda d: d["hypersurfaces"][0].pop("leaf"), "leaf"),
        (lambda d: d["hypersurfaces"][0].update(modular_weight=[1, 0]),
         "length"),
        (lambda d: d["hypersurfaces"][0].update(adjacent=[0, 5]),
         "out of range"),
        (lambda d: d["hypersurfaces"][0].update(adjacent=[0]), "length 2"),
        (lambda d: d["hypersurfaces"][0].update(
            leaf={"rank": 1, "inequalities": [
                {"normal": [1], "bound": 0}]}), "leaf.rank"),
        (lambda d: d["hypersurfaces"][0].update(surprise=3), "unknown field"),
        (lambda d: d["hypersurfaces"].__setitem__(0, 7),
         "hypersurfaces[0]: expected an object"),
        (lambda d: d["components"][0]["polyhedron"]["inequalities"][0].update(
            extra=1), "inequalities[0]: unknown field 'extra'"),
    ],
)
def test_structural_errors(mutate, fragment):
    data = json.loads(json.dumps(SPHERE))
    mutate(data)
    with pytest.raises(ParseError) as info:
        parse(data)
    assert fragment in str(info.value)


COMPONENT = "components[0]"
RECORD = "hypersurfaces[0]"
POLYHEDRON = "components[0].polyhedron"
INEQUALITY = "components[0].polyhedron.inequalities[0]"


def _first_component(d):
    return d["components"][0]


def _first_record(d):
    return d["hypersurfaces"][0]


def _first_polyhedron(d):
    return d["components"][0]["polyhedron"]


def _first_inequality(d):
    return d["components"][0]["polyhedron"]["inequalities"][0]


# (description, mutation, the exact message): each object level of the
# reader, not an object, with an unknown field and without each field
READER_CASES = [
    # the top level: the schema and kind pick the fields it holds
    (SPHERE, lambda d: d.update(extra=1), "top level: unknown field 'extra'"),
    (SPHERE, lambda d: d.pop("schema"),
     "schema: expected 'bquant/1', got None"),
    (SPHERE, lambda d: d.pop("kind"),
     "kind: expected 'compact_toric' or 'b_toric', got None"),
    (SPHERE, lambda d: d.pop("rank"), "top level: needs 'rank'"),
    (SPHERE, lambda d: d.pop("components"), "top level: needs 'components'"),
    (SPHERE, lambda d: d.pop("hypersurfaces"),
     "top level: needs 'hypersurfaces'"),
    (SEGMENT, lambda d: d.pop("rank"), "top level: needs 'rank'"),
    (SEGMENT, lambda d: d.pop("polytope"), "top level: needs 'polytope'"),
    (SEGMENT, lambda d: d.update(components=[]),
     "top level: unknown field 'components'"),
    # a component
    (SPHERE, lambda d: d["components"].__setitem__(0, 7),
     f"{COMPONENT}: expected an object, got int"),
    (SPHERE, lambda d: _first_component(d).update(extra=1),
     f"{COMPONENT}: unknown field 'extra'"),
    (SPHERE, lambda d: _first_component(d).pop("sign"), f"{COMPONENT}: needs 'sign'"),
    (SPHERE, lambda d: _first_component(d).pop("polyhedron"),
     f"{COMPONENT}: needs 'polyhedron'"),
    # a hypersurface record
    (SPHERE, lambda d: d["hypersurfaces"].__setitem__(0, 7),
     f"{RECORD}: expected an object, got int"),
    (SPHERE, lambda d: _first_record(d).update(surprise=3),
     f"{RECORD}: unknown field 'surprise'"),
    (SPHERE, lambda d: _first_record(d).pop("modular_weight"),
     f"{RECORD}: needs 'modular_weight'"),
    (SPHERE, lambda d: _first_record(d).pop("splitting"),
     f"{RECORD}: needs 'splitting'"),
    (SPHERE, lambda d: _first_record(d).pop("leaf"), f"{RECORD}: needs 'leaf'"),
    (SPHERE, lambda d: _first_record(d).pop("adjacent"),
     f"{RECORD}: needs 'adjacent'"),
    (SPHERE, lambda d: _first_record(d).update(leaf={"rank": 1, "inequalities": []}),
     f"{RECORD}.leaf.rank: 1 does not match rank 0"),
    # a polyhedron, here a component's and then the leaf and the polytope
    (SPHERE, lambda d: _first_component(d).update(polyhedron=[]),
     f"{POLYHEDRON}: expected an object, got list"),
    (SPHERE, lambda d: _first_polyhedron(d).update(extra=1),
     f"{POLYHEDRON}: unknown field 'extra'"),
    (SPHERE, lambda d: _first_polyhedron(d).pop("rank"),
     f"{POLYHEDRON}: needs 'rank'"),
    (SPHERE, lambda d: _first_polyhedron(d).pop("inequalities"),
     f"{POLYHEDRON}: needs 'inequalities'"),
    (SPHERE, lambda d: _first_record(d)["leaf"].pop("rank"),
     f"{RECORD}.leaf: needs 'rank'"),
    (SEGMENT, lambda d: d.update(polytope=None),
     "polytope: expected an object, got NoneType"),
    # an inequality
    (SPHERE, lambda d: _first_polyhedron(d)["inequalities"].__setitem__(0, 7),
     f"{INEQUALITY}: expected an object, got int"),
    (SPHERE, lambda d: _first_inequality(d).update(extra=1),
     f"{INEQUALITY}: unknown field 'extra'"),
    (SPHERE, lambda d: _first_inequality(d).pop("normal"),
     f"{INEQUALITY}: needs 'normal'"),
    (SPHERE, lambda d: _first_inequality(d).pop("bound"),
     f"{INEQUALITY}: needs 'bound'"),
    # an unknown field is named before a missing one
    (SPHERE, lambda d: _first_polyhedron(d)["inequalities"].__setitem__(
        0, {"bound": 1, "extra": 1}), f"{INEQUALITY}: unknown field 'extra'"),
]


@pytest.mark.parametrize(
    "base, mutate, message", READER_CASES,
    ids=[message for _, _, message in READER_CASES],
)
def test_every_object_is_checked_by_one_reader(base, mutate, message):
    data = json.loads(json.dumps(base))
    mutate(data)
    with pytest.raises(ParseError) as info:
        parse(data)
    assert str(info.value) == message


def test_top_level_not_an_object_is_named():
    with pytest.raises(ParseError) as info:
        parse_description("[1, 2]")
    assert str(info.value) == "top level: expected an object"


@pytest.mark.parametrize("sign", [True, False])
def test_boolean_sign_is_refused(sign):
    # True == 1 in Python, but a JSON truth value is not a sign
    data = json.loads(json.dumps(SPHERE))
    data["components"][0]["sign"] = sign
    with pytest.raises(ParseError) as info:
        parse(data)
    assert str(info.value) == (
        f"components[0].sign: expected 1 or -1, got {sign!r}"
    )


def test_top_level_must_be_object():
    with pytest.raises(ParseError):
        parse_description("[1, 2]")


def test_load_description_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_description(tmp_path / "absent.json")


# ----------------------------------------------------------------------
# record construction


def test_hypersurface_record_validation():
    leaf0 = LatticePolyhedron(0, [])
    with pytest.raises(DimensionMismatchError):
        HypersurfaceRecord((1,), (1, 0), leaf0, (0, 1))
    with pytest.raises(DimensionMismatchError):
        HypersurfaceRecord((1, 0), (1, 0), leaf0, (0, 1))
    with pytest.raises(ValueError):
        HypersurfaceRecord((1,), (1,), leaf0, (0, 1, 2))


@pytest.mark.parametrize("adjacent", [(False, True), (0, True), (0, 1.0)])
def test_hypersurface_record_refuses_indices_that_are_not_ints(adjacent):
    with pytest.raises(ValueError, match="two component indices"):
        HypersurfaceRecord((1,), (1,), LatticePolyhedron(0, []), adjacent)


def test_description_validation():
    poly = LatticePolyhedron(1, [((1,), 0)])
    with pytest.raises(ValueError):
        BSpaceDescription(1, ((2, poly),), ())
    for sign in (True, False, 1.0):
        with pytest.raises(ValueError, match="component sign"):
            BSpaceDescription(1, ((sign, poly), (-1, poly)), ())
    with pytest.raises(DimensionMismatchError):
        CompactToricSpace(2, poly)
    with pytest.raises(DimensionMismatchError, match="component rank"):
        BSpaceDescription(1, ((1, LatticePolyhedron(2, [])),), ())
    square_record = HypersurfaceRecord(
        (1, 0), (1, 0), LatticePolyhedron(1, []), (0, 1)
    )
    with pytest.raises(DimensionMismatchError, match="record rank"):
        BSpaceDescription(1, ((1, poly), (-1, poly)), (square_record,))
    line_record = HypersurfaceRecord((1,), (1,), LatticePolyhedron(0, []), (0, 5))
    with pytest.raises(ValueError, match="index 5 out of range"):
        BSpaceDescription(1, ((1, poly), (-1, poly)), (line_record,))


# ----------------------------------------------------------------------
# leaf coordinates


def test_leaf_embedding_basis():
    basis = leaf_embedding_basis((1, 1))
    assert len(basis) == 1
    assert _linalg.dot((1, 1), basis[0]) == 0
    assert leaf_embedding_basis((1,)) == ()


# ----------------------------------------------------------------------
# tail geometry


def test_tail_threshold_clears_every_vertex():
    d = parse(SPHERE)
    assert tail_threshold(d, 0) == 3  # vertices at 2 and -1, so extent 2
    torus = load_description(corpus_path("btorus.json"))
    assert tail_threshold(torus, 0) == 1  # full lines have no vertices
    half = load_description(corpus_path("sphere_halfbound.json"))
    assert tail_threshold(half, 0) == 3  # floor(5/2) + 1


def test_tail_cut():
    poly = LatticePolyhedron(1, [((1,), 2)])
    tail = tail_cut(poly, (1,), 3)
    assert tail.set_equals(LatticePolyhedron(1, [((1,), -3)]))
    # the cut divides out the gcd of the splitting, and refuses a zero or
    # wrong-length covector as with_inequality does
    band = LatticePolyhedron(2, [((0, 1), 1), ((0, -1), 0)])
    assert tail_cut(band, (2, 4), 3) == band.with_inequality((2, 4), -3)
    for splitting, error in (((0,), ValueError),
                             ((1, 0), DimensionMismatchError)):
        with pytest.raises(error):
            tail_cut(poly, splitting, 3)
        with pytest.raises(error):
            poly.with_inequality(splitting, -3)


def test_cross_section_recovers_leaf_translate():
    d = load_description(corpus_path("skew.json"))
    record = d.hypersurfaces[0]
    basis = leaf_embedding_basis(record.splitting)
    _, polyhedron = d.components[0]
    section = cross_section(
        polyhedron, record.modular_weight, record.splitting, basis, -5
    )
    # the slice of the sheared strip is a unit segment in leaf coordinates
    assert section.is_bounded()
    assert len(section.lattice_points()) == 2


def test_cross_section_empty_slice_is_none():
    poly = LatticePolyhedron(1, [((1,), 2), ((-1,), 0)])
    assert cross_section(poly, (1,), (1,), (), -5) is None
    section = cross_section(poly, (1,), (1,), (), -0)
    assert section is not None and section.rank == 0


def random_tail_frames(count, seed):
    """`count` (component, modular weight v, splitting s, threshold t) in
    ranks 1-3 with a nonempty component, drawn from `random.Random(seed)`:
    v has an entry +-1 and
    <v, s> = 1; the component is cut by normals n with <n, v> = 0 (the
    sides of a cylinder along v), > 0 (caps that -v moves away from) and,
    now and then, < 0 (walls that -v runs into)."""
    rng = random.Random(seed)
    made = 0
    while made < count:
        rank = rng.randint(1, 3)
        weight = [rng.randint(-2, 2) for _ in range(rank)]
        unit = rng.randrange(rank)
        weight[unit] = rng.choice((-1, 1))
        kernel = _linalg.lattice_kernel_basis(weight)
        splitting = [weight[unit] * (i == unit) for i in range(rank)]
        for row in kernel:
            step = rng.randint(-1, 1)
            splitting = [a + step * b for a, b in zip(splitting, row)]
        inequalities = []
        for _ in range(rng.randint(1, 6)):
            kind = rng.choice(("side", "side", "cap", "wall"))
            if kind == "side" and kernel:
                normal = [0] * rank
                for row in kernel:
                    step = rng.randint(-2, 2)
                    normal = [a + step * b for a, b in zip(normal, row)]
            else:
                normal = [rng.randint(-2, 2) for _ in range(rank)]
                pairing = _linalg.dot(normal, weight)
                if pairing == 0 or (pairing < 0) != (kind == "wall"):
                    normal = [-x for x in normal]
            if any(normal):
                bound = Fraction(rng.randint(-6, 6), rng.randint(1, 2))
                inequalities.append((tuple(normal), bound))
        threshold = rng.randint(1, 5)
        component = LatticePolyhedron(rank, inequalities)
        if _linalg.fm_feasible(component.integer_inequalities, rank):
            made += 1
            yield component, tuple(weight), tuple(splitting), threshold


def test_tail_shortcut_and_nonempty_slice():
    # _product_tail decides a tail's emptiness only when -v is not a
    # recession direction of the component, and never asks whether the
    # slice at -t of a tail passing the translation test is empty; both
    # against elimination on 10,000 tails
    seen = {"recedes": 0, "elimination": 0, "no tail": 0,
            "not invariant": 0, "invariant": 0}
    for component, v, s, t in random_tail_frames(10_000, seed=17):
        tail = tail_cut(component, s, t)
        empty = not _linalg.fm_feasible(
            component.integer_inequalities + ((s, -t, 1),), component.rank
        )
        assert tail.is_empty() == empty
        if all(_linalg.dot(n, v) >= 0 for n, _ in component.inequalities):
            seen["recedes"] += 1
            assert not empty
        else:
            seen["elimination"] += 1
        if empty:
            seen["no tail"] += 1
            continue
        shifted = tail.translate(tuple(-x for x in v))
        deeper = tail.with_inequality(s, Fraction(-t - 1))
        if not shifted.set_equals(deeper):
            seen["not invariant"] += 1
            continue
        seen["invariant"] += 1
        basis = leaf_embedding_basis(s)
        section = cross_section(tail, v, s, basis, -t)
        assert section is not None
        assert _linalg.fm_feasible(section.integer_inequalities, section.rank)
    assert min(seen.values()) >= 1000, seen


def random_tail_descriptions(count, seed):
    """`count` one-hypersurface descriptions built on `random_tail_frames`
    (the threshold is the description's own), skipping most frames with a
    wall that -v runs into, which fail at once.  The leaf is the slice of
    the first adjacent component at the threshold moved by a lattice
    vector, now and then with one more inequality, or a unit box when that
    slice is None or unbounded.  Now and then the first adjacent component
    is empty.  The second is mostly the first, else the first with one
    more inequality (now and then a far wall that -v runs into), one
    fewer, one moved, one side tilted by the splitting (a wedge), moved
    along the leaf, or an empty one.  The two are stored in either
    order."""
    rng = random.Random(seed)
    made = 0
    for component, v, s, _ in random_tail_frames(10 * count, seed):
        if made == count:
            return
        if any(_linalg.dot(n, v) < 0 for n, _ in component.inequalities) \
                and rng.random() < 0.6:
            continue  # a wall that -v runs into fails the first test
        made += 1
        rank = component.rank
        axis = (1,) + (0,) * (rank - 1)
        empty = LatticePolyhedron(
            rank, [(axis, -1), (tuple(-x for x in axis), 0)]
        )
        if rng.random() < 0.03:
            component = empty
        rows = list(component.inequalities)
        basis = leaf_embedding_basis(s)
        sides = [i for i, (n, _) in enumerate(rows) if _linalg.dot(n, v) == 0]
        kind = rng.choice(("same",) * 6 + (
            "extra", "fewer", "moved", "tilted", "along", "empty"
        ))
        partner = component
        if kind == "extra":
            normal = tuple(rng.randint(-2, 2) for _ in range(rank))
            far = _linalg.dot(normal, v) < 0 and rng.random() < 0.5
            if any(normal):
                partner = component.with_inequality(
                    normal, rng.randint(10, 20) if far else rng.randint(-6, 6)
                )
        elif kind == "fewer" and rows:
            del rows[rng.randrange(len(rows))]
            partner = LatticePolyhedron(rank, rows)
        elif kind == "moved" and rows:
            index = rng.randrange(len(rows))
            normal, bound = rows[index]
            rows[index] = (normal, bound + rng.choice((-1, 1)))
            partner = LatticePolyhedron(rank, rows)
        elif kind == "tilted" and sides:
            index = rng.choice(sides)
            normal, bound = rows[index]
            tilted = tuple(map(add, normal, s))
            if any(tilted):
                rows[index] = (tilted, bound)
                partner = LatticePolyhedron(rank, rows)
        elif kind == "along" and basis:
            partner = component.translate(rng.choice(basis))
        elif kind == "empty":
            partner = empty
        unit = LatticePolyhedron(rank - 1, [
            (tuple(int(i == j) * sign for j in range(rank - 1)), int(sign > 0))
            for i in range(rank - 1) for sign in (-1, 1)
        ])
        if rng.random() < 0.5:
            components, adjacent = ((1, component), (-1, partner)), (0, 1)
        else:
            components, adjacent = ((1, partner), (-1, component)), (1, 0)
        draft = BSpaceDescription(rank, components, (
            HypersurfaceRecord(v, s, unit, adjacent),
        ))
        threshold = tail_threshold(draft, 0)
        section = None if component.is_empty() else cross_section(
            component, v, s, basis, -threshold
        )
        leaf = unit
        if section is not None and section.is_bounded() \
                and not section.is_empty():
            leaf = section.translate(
                tuple(rng.randint(-2, 2) for _ in range(rank - 1))
            )
            if rank > 1 and rng.random() < 0.3:
                normal = tuple(rng.randint(-1, 1) for _ in range(rank - 1))
                if any(normal):
                    leaf = leaf.with_inequality(normal, rng.randint(-1, 1))
        yield BSpaceDescription(rank, components, (
            HypersurfaceRecord(v, s, leaf, adjacent),
        ))


def test_tail_product_row_matches_the_set_equality_route():
    # the row proves translation invariance with `implies` alone and cuts
    # the slice from the component; on 10,000 descriptions of ranks 1-3 it
    # gives the set-equality route's verdict, message, witness and tail
    # ends (`_two_sided_tail_product`, defined below)
    seen = {}
    for description in random_tail_descriptions(10_000, seed=53):
        report, ends = spaces._check_tail_product(description)
        assert (report, ends) == _two_sided_tail_product(description)
        key = report.message or "pass"
        if report.witness is not None and len(report.witness) == 2:
            second = description.hypersurfaces[0].adjacent[1]
            side = "second" if report.witness[1] == second else "first"
            key += f" at the {side}"
        seen[key] = seen.get(key, 0) + 1
    messages = (
        "adjacent component is empty",
        "component has no tail beyond the threshold",
        "tail is not translation-invariant along the modular direction",
        "tail cross-section is unbounded",
        "tail cross-section is not a translate of the leaf polytope",
    )
    assert seen.keys() == {"pass", "the two matched tails differ as sets"} | {
        f"{message} at the {side}"
        for message in messages for side in ("first", "second")
    }, sorted(seen.items())
    assert min(seen.values()) >= 10, sorted(seen.items())


def test_slice_of_the_component_is_the_slice_of_its_tail():
    # the cut row s.x <= -t projects to the zero normal with slack >= 0 at
    # level -t, or the component's own tighter row on s makes both None
    seen = {"equal": 0, "none": 0}
    for component, v, s, t in random_tail_frames(3_000, seed=59):
        basis = leaf_embedding_basis(s)
        for cut_level in (t, t + 1):
            tail = tail_cut(component, s, cut_level)
            section = cross_section(component, v, s, basis, -cut_level)
            assert section == cross_section(tail, v, s, basis, -cut_level)
            seen["none" if section is None else "equal"] += 1
    assert min(seen.values()) >= 300, seen


# ----------------------------------------------------------------------
# validation


def test_validate_compact_passes():
    report = validate_description(parse(SEGMENT))
    assert report.passed
    assert [c.name for c in report.checks] == [
        "compactness", "gamma-integrality", "delzant",
    ]


def test_validate_b_row_order():
    report = validate_description(parse(SPHERE))
    assert report.passed
    assert [c.name for c in report.checks] == [
        "modular-dichotomy", "gamma-integrality", "mu-integrality",
        "properness", "orientation", "tail-product", "delzant",
    ]


def test_validate_corpus():
    for name in VALID_B_FILES:
        report = validate_description(load_description(corpus_path(name)))
        assert report.passed, (name, report.lines())


def test_validation_is_memoized():
    d = parse(SPHERE)
    assert validate_description(d) is validate_description(d)


def test_compactness_check_fails_on_unbounded():
    space = CompactToricSpace(1, LatticePolyhedron(1, [((1,), 0)]))
    report = validate_description(space)
    names = {c.name: c for c in report.checks}
    assert not names["compactness"].passed
    assert names["compactness"].witness == (-1,)


def test_empty_polytope_fails_compactness():
    space = CompactToricSpace(
        1, LatticePolyhedron(1, [((1,), -1), ((-1,), 0)])
    )
    report = validate_description(space)
    assert not report.passed
    assert "empty" in report.checks[0].message


def test_orientation_check_rejects_same_component_twice():
    data = json.loads(json.dumps(SPHERE))
    data["components"][1]["sign"] = -1
    data["hypersurfaces"][0]["adjacent"] = [0, 0]
    report = validate_description(parse(data))
    rows = {c.name: c for c in report.checks}
    assert not rows["orientation"].passed
    assert "both sides" in rows["orientation"].message


def test_tail_product_detects_asymmetric_tails():
    data = json.loads(json.dumps(SPHERE))
    # bound the negative component below so its tail stops at -10
    data["components"][1]["polyhedron"]["inequalities"].append(
        {"normal": [-1], "bound": 10}
    )
    report = validate_description(parse(data))
    rows = {c.name: c for c in report.checks}
    assert not rows["tail-product"].passed
    # the first tail passes, so the bounded second one is the witness
    assert rows["tail-product"].witness == (0, 1)
    assert rows["tail-product"].message == (
        "component has no tail beyond the threshold"
    )


def test_tail_product_detects_wrong_leaf():
    raw = raw_description("product_k2.json")
    raw["hypersurfaces"][0]["leaf"]["inequalities"][0]["bound"] = 1  # was 2
    report = validate_description(parse(raw))
    rows = {c.name: c for c in report.checks}
    assert not rows["tail-product"].passed
    assert rows["tail-product"].witness == (0, 0)
    assert rows["tail-product"].message == (
        "tail cross-section is not a translate of the leaf polytope"
    )


def test_tail_product_detects_non_invariant_tail():
    # a wedge narrows forever, so it is not a product beyond any threshold
    wedge = {
        "schema": "bquant/1", "kind": "b_toric", "rank": 2,
        "components": [
            {"sign": 1, "polyhedron": {"rank": 2, "inequalities": [
                {"normal": [1, 2], "bound": 0},
                {"normal": [1, -2], "bound": 0}]}},
            {"sign": -1, "polyhedron": {"rank": 2, "inequalities": [
                {"normal": [1, 2], "bound": 0},
                {"normal": [1, -2], "bound": 0}]}},
        ],
        "hypersurfaces": [
            {"modular_weight": [1, 0], "splitting": [1, 0],
             "leaf": {"rank": 1, "inequalities": [
                 {"normal": [1], "bound": 0}, {"normal": [-1], "bound": 0}]},
             "adjacent": [0, 1]},
        ],
    }
    report = validate_description(parse(wedge))
    rows = {c.name: c for c in report.checks}
    assert not rows["tail-product"].passed
    assert rows["tail-product"].witness == (0, 0)
    assert rows["tail-product"].message == (
        "tail is not translation-invariant along the modular direction"
    )


def _two_sided_tail_product(description):
    """The tail-product row as it was before it certified the second tail
    by set equality: every test on both tails, then their set equality.
    The oracle for `spaces._check_tail_product`."""
    name = "tail-product"
    ends = []
    for index, record in enumerate(description.hypersurfaces):
        if spaces._record_is_degenerate(record):
            continue
        v = record.modular_weight
        splitting = record.splitting
        threshold = tail_threshold(description, index)
        basis = leaf_embedding_basis(splitting)
        leaf = record.leaf
        try:
            leaf_anchor = min(leaf.vertices()) if leaf.is_bounded() else None
        except (EmptyPolyhedronError, NoVerticesError):
            leaf_anchor = None
        if leaf_anchor is None:
            continue
        tails = []
        for side in record.adjacent:
            def fail(message):
                return CheckReport(name, False, (index, side), message), ()

            _, polyhedron = description.components[side]
            if polyhedron.is_empty():
                return fail("adjacent component is empty")
            tail = tail_cut(polyhedron, splitting, threshold)
            if tail.is_empty():
                return fail("component has no tail beyond the threshold")
            shifted = tail.translate(tuple(-x for x in v))
            deeper = tail.with_inequality(
                tuple(splitting), Fraction(-threshold - 1)
            )
            if not shifted.set_equals(deeper):
                return fail("tail is not translation-invariant along the "
                            "modular direction")
            section = cross_section(tail, v, splitting, basis, -threshold)
            if section is None or section.is_empty():
                return fail("tail cross-section is empty")
            if not section.is_bounded():
                return fail("tail cross-section is unbounded")
            anchor = min(section.vertices())
            offset = tuple(a - b for a, b in zip(anchor, leaf_anchor))
            if not section.set_equals(leaf.translate(offset)):
                return fail("tail cross-section is not a translate of the "
                            "leaf polytope")
            tails.append(tail)
        if not tails[0].set_equals(tails[1]):
            return CheckReport(name, False, (index,),
                               "the two matched tails differ as sets"), ()
        plus, minus = record.adjacent
        if description.components[plus][0] == -1:
            plus, minus = minus, plus
        ends.append(TailEnd(index, plus, minus, splitting, threshold))
    return CheckReport(name, True), tuple(ends)


def _mutated(rng, raw):
    """`raw`, a decoded b_toric file, with one drawn mutation: a bound
    shifted or moved by a half, a normal nudged, an inequality added or
    dropped, a leaf bound changed or an `adjacent` pair reversed."""
    move = rng.choice(
        ("shift", "half", "nudge", "add", "drop", "leaf", "reverse")
    )
    if move in ("leaf", "reverse"):
        record = rng.choice(raw["hypersurfaces"])
        inequalities = record["leaf"]["inequalities"]
        if move == "reverse" or not inequalities:
            record["adjacent"].reverse()
            return raw
        move = "shift"
    else:
        component = rng.choice(raw["components"])
        inequalities = component["polyhedron"]["inequalities"]
    if move == "add" or not inequalities:
        # often the opposite of a present inequality, which can bound a
        # tail or empty the component
        if inequalities and rng.random() < 0.6:
            normal = [-x for x in rng.choice(inequalities)["normal"]]
        else:
            normal = [rng.choice((-1, 0, 1)) for _ in range(raw["rank"])]
            normal[rng.randrange(len(normal))] = rng.choice((-1, 1))
        inequalities.append({"normal": normal, "bound": rng.randint(-12, 12)})
        return raw
    item = rng.choice(inequalities)
    if move == "drop":
        inequalities.remove(item)
    elif move == "nudge":
        normal = item["normal"]
        normal[rng.randrange(len(normal))] += rng.choice((-1, 1))
        if not any(normal):
            normal[0] = 1
    else:
        step = rng.choice((-2, -1, 1, 2)) if move == "shift" else Fraction(
            rng.choice((-1, 1)), 2)
        bound = Fraction(str(item["bound"])) + step
        item["bound"] = str(bound)
    return raw


def tail_product_mutants(count, seed):
    """`count` descriptions made from the valid b_toric corpus files by one
    to three mutations each, drawn from `random.Random(seed)`."""
    rng = random.Random(seed)
    files = [raw_description(name) for name in VALID_B_FILES]
    made = 0
    while made < count:
        raw = json.loads(json.dumps(rng.choice(files)))
        for _ in range(rng.randint(1, 3)):
            raw = _mutated(rng, raw)
        try:
            description = parse(raw)
        except ParseError:
            continue
        made += 1
        yield description


def test_tail_product_matches_the_two_sided_row():
    # the one-sided row gives the two-sided row's report and tail ends on
    # every mutant, and the mutants reach each failure on the second tail
    # (the first passing) and the set-equality failure
    reached = set()
    for description in tail_product_mutants(10_000, seed=11):
        expected = _two_sided_tail_product(description)
        assert spaces._check_tail_product(description) == expected
        report = expected[0]
        if report.passed:
            continue
        index, *side = report.witness
        first, second = description.hypersurfaces[index].adjacent
        if side in ([], [second]) and first != second:
            reached.add(report.message)
    # "tail cross-section is empty" cannot follow a passing translation
    # test: a nonempty tail T with T - v = T & {<s, x> <= -t - 1} attains
    # the level -t, so only the other five per-tail failures are reachable
    assert reached == {
        "adjacent component is empty",
        "component has no tail beyond the threshold",
        "tail is not translation-invariant along the modular direction",
        "tail cross-section is unbounded",
        "tail cross-section is not a translate of the leaf polytope",
        "the two matched tails differ as sets",
    }


@pytest.mark.parametrize("name", VALID_B_FILES)
def test_tail_product_slices_one_tail_per_hypersurface(name, monkeypatch):
    # the second tail is certified by set equality, not sliced again; the
    # uncached validation runs, whatever earlier tests validated
    slices = []

    def counting_cross_section(*args):
        slices.append(args)
        return cross_section(*args)

    monkeypatch.setattr(spaces, "cross_section", counting_cross_section)
    description = load_description(corpus_path(name))
    assert validate_description.__wrapped__(description).passed
    assert len(slices) == len(description.hypersurfaces)


def test_validate_rejects_unknown_type():
    with pytest.raises(TypeError):
        validate_description("not a description")


def test_report_payload_shape():
    report = validate_description(parse(SPHERE))
    payload = report.payload()
    assert set(payload) == {"passed", "checks"}  # the tail ends stay internal
    assert len(report.tails) == 1
    assert payload["passed"] is True
    assert len(payload["checks"]) == 7
    assert all(set(c) == {"check", "passed", "witness", "message"}
               for c in payload["checks"])


# ----------------------------------------------------------------------
# local models


def test_local_model_tails():
    model = local_model(parse(SPHERE), 0)
    assert model.threshold == 3
    signs = [sign for sign, _ in model.tails]
    assert signs == [1, -1]
    for _, tail in model.tails:
        assert tail.set_equals(LatticePolyhedron(1, [((1,), -3)]))


def test_hypersurface_indexes_are_checked():
    # an int (not a bool) that names a record, or HypersurfaceIndexError
    chain = load_description(corpus_path("chain3.json"))
    count = len(chain.hypersurfaces)
    for index in (-1, count, True, "0"):
        for function in (tail_threshold, local_model):
            with pytest.raises(HypersurfaceIndexError) as info:
                function(chain, index)
            assert str(info.value) == (
                f"hypersurface index {index!r} out of range (have {count})"
            )


def test_hypersurface_records_need_a_b_toric_description():
    # a compact description has no hypersurface records: both readers of
    # one refuse it with DescriptionKindError, as the command line's
    # `cancel` reports it, not with an AttributeError
    compact = load_description(corpus_path("c_seg_0_3.json"))
    for function, what in (
        (tail_threshold, "tail thresholds"), (local_model, "local models")
    ):
        with pytest.raises(DescriptionKindError) as info:
            function(compact, 0)
        assert str(info.value) == (
            f"{what} exist only for b_toric descriptions"
        )


def test_local_model_errors():
    with pytest.raises(TypeError) as wrong_kind:
        local_model(parse(SEGMENT), 0)
    with pytest.raises(IndexError) as out_of_range:
        local_model(parse(SPHERE), 1)
    # typed, so the command line can tell them from internal bugs
    assert isinstance(wrong_kind.value, DescriptionKindError)
    assert isinstance(out_of_range.value, HypersurfaceIndexError)
    bad = load_description(corpus_path("neg_equal_signs.json"))
    with pytest.raises(NotValidatedError) as info:
        local_model(bad, 0)
    assert info.value.report is not None
    assert info.value.report.tails == ()  # a failing report certifies no end
    assert "orientation" in str(info.value)


def test_negative_corpus_reports_are_surgical():
    expected = {
        "neg_nonprimitive_weight.json": ("mu-integrality", (0, [2])),
        "neg_equal_signs.json": ("orientation", (0, (1, 1))),
        "neg_unmatched_tail.json": ("properness", (0, (1,))),
        "neg_nonlattice_vertex.json":
            ("gamma-integrality", ("polytope", (Fraction(5, 2),))),
        "neg_nondelzant_triangle.json":
            ("delzant", ("polytope", (Fraction(1), Fraction(0)))),
    }
    for name, (check_name, witness) in expected.items():
        report = validate_description(load_description(corpus_path(name)))
        failing = [c for c in report.checks if not c.passed]
        assert len(failing) == 1, (name, report.lines())
        assert failing[0].name == check_name
        assert failing[0].witness == witness
