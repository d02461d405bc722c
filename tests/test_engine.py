"""Quantization engine tests: compact counts, tail cancellation, reduction."""

import dataclasses
import itertools
import json
import math
import random
import threading
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from conftest import (
    COMPACT_FILES,
    VALID_B_FILES,
    address_space_cap,
    benchmark_workloads,
    corpus_path,
    huge_box,
    raw_description,
    raw_multiplicity,
)

import bquant.engine as engine
import bquant.spaces as spaces
from bquant import _linalg
from bquant import (
    BSpaceDescription,
    DescriptionKindError,
    DimensionMismatchError,
    EnumerationBudgetError,
    LatticePolyhedron,
    NotFiniteError,
    NotValidatedError,
    QRReport,
    SelfCheckError,
    TailEnd,
    VirtualCharacter,
    ZeroModularWeightError,
    collapse_signed_tails,
    facet_weights,
    load_description,
    local_model,
    parse_description,
    quantize_b,
    quantize_compact_toric,
    quantize_description,
    quantize_local_model,
    reduced_space_quantization,
    tail_matching,
    validate_description,
    verify_qr_product,
)

from bquant.cli import main
from bquant.polyhedra import ENUMERATION_BUDGET
from bquant.spaces import LocalModel

import make_corpus


def parse(data):
    return parse_description(json.dumps(data))


def load(name):
    return load_description(corpus_path(name))


def signed_terms(description):
    """The (sign, polyhedron) terms of a description's formal character,
    read off it without the engine: its components, or its polytope with
    sign 1."""
    if isinstance(description, BSpaceDescription):
        return description.components
    return ((1, description.polytope),)


def signed_count(description, weight):
    """The formal signed count at `weight`, one contains_point per term."""
    return sum(
        sign for sign, polyhedron in signed_terms(description)
        if polyhedron.contains_point(weight)
    )


# ----------------------------------------------------------------------
# tail matching


def test_tail_matching_sphere():
    (end,) = tail_matching(load("sphere_a2_bm1.json"))
    assert end == TailEnd(
        hypersurface=0,
        plus_component=0,
        minus_component=1,
        cut_normal=(1,),
        threshold=3,
    )


def test_tail_matching_orients_by_sign_not_order():
    data = raw_description("sphere_a2_bm1.json")
    data["components"].reverse()  # minus component now listed first
    ends = tail_matching(parse(data))
    assert ends[0].plus_component == 1
    assert ends[0].minus_component == 0


def test_tail_matching_rejects_zero_weight():
    data = raw_description("sphere_a2_bm1.json")
    data["hypersurfaces"][0]["modular_weight"] = [0]
    with pytest.raises(NotValidatedError, match="modular-dichotomy"):
        tail_matching(parse(data))


def test_tail_matching_rejects_equal_signs():
    d = load("neg_equal_signs.json")
    with pytest.raises(NotValidatedError) as info:
        tail_matching(d)
    (orientation,) = [
        check for check in info.value.report.checks
        if check.name == "orientation"
    ]
    assert not orientation.passed
    assert orientation.witness[0] == 0


def test_tail_matching_requires_b_description():
    with pytest.raises(TypeError):
        tail_matching(load("c_seg_0_3.json"))


def test_quantize_b_requires_b_description():
    with pytest.raises(TypeError, match="expected a BSpaceDescription"):
        quantize_b(load("c_seg_0_3.json"))


@pytest.mark.parametrize(
    "name", ["chain3.json", "btorus_4cycle.json", "chain3_x_seg.json"]
)
def test_tail_facts_are_certified_once(name, monkeypatch):
    # validation computes every threshold and proves tail equality; after
    # it, quantizing, matching and cutting local models derive neither again
    d = load(name)
    assert validate_description(d).passed
    expected = quantize_description(d)

    def refuse(*args, **kwargs):
        raise AssertionError("a tail fact was derived again")

    monkeypatch.setattr(spaces, "tail_threshold", refuse)
    monkeypatch.setattr(LatticePolyhedron, "set_equals", refuse)
    assert quantize_description(d) == expected
    assert len(tail_matching(d)) == len(d.hypersurfaces)
    for index in range(len(d.hypersurfaces)):
        local_model(d, index)


# ----------------------------------------------------------------------
# compact quantization


def test_segment_counts_every_lattice_point():
    character = quantize_compact_toric(load("c_seg_0_3.json"))
    assert character.support() == [(0,), (1,), (2,), (3,)]
    assert character.dimension() == 4
    assert all(m == 1 for _, m in character.items())


def test_triangle_counts():
    character = quantize_compact_toric(load("c_triangle2.json"))
    assert character.dimension() == 6
    assert character.support() == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0),
    ]


def test_point_space():
    character = quantize_compact_toric(load("c_point.json"))
    assert character.dimension() == 1


@pytest.mark.parametrize("threads", [2, 3, 8, 16])
@pytest.mark.parametrize(
    "name", ["c_seg_0_3.json", "c_triangle2.json", "c_box_m3_0_x_m1_0.json"]
)
def test_compact_threading_is_invisible(name, threads):
    space = load(name)
    assert quantize_description(space, threads=threads) == (
        quantize_compact_toric(space)
    )


def test_compact_requires_validation():
    space = load("neg_nonlattice_vertex.json")
    with pytest.raises(NotValidatedError):
        quantize_compact_toric(space)


def test_compact_rejects_b_description():
    with pytest.raises(TypeError):
        quantize_compact_toric(load("btorus.json"))


# ----------------------------------------------------------------------
# singular quantization


def test_sphere_character():
    character = quantize_b(load("sphere_a2_bm1.json"))
    assert character.support() == [(0,), (1,), (2,)]
    assert character.dimension() == 3


def test_chain_character():
    character = quantize_b(load("chain3.json"))
    assert character.support() == [(k,) for k in range(-2, 4)]
    assert character.dimension() == 6


def test_btorus_character_is_zero():
    assert quantize_b(load("btorus.json")).is_zero()
    assert quantize_b(load("btorus_4cycle.json")).is_zero()
    assert quantize_b(load("strip_btorus.json")).is_zero()


def test_quantize_b_matches_signed_membership_everywhere():
    for name in VALID_B_FILES:
        data = raw_description(name)
        character = quantize_b(load(name))
        support = character.support()
        rank = character.rank
        if support:
            columns = list(zip(*support))
            ranges = [
                range(min(c) - 2, max(c) + 3) for c in columns
            ]
        else:
            ranges = [range(-6, 7)] * rank
        points = [()]
        for r in ranges:
            points = [p + (v,) for p in points for v in r]
        for weight in points:
            assert character.multiplicity(weight) == raw_multiplicity(
                data, weight
            ), (name, weight)


def test_collapse_by_hand_equals_quantizer():
    d = load("product_k3.json")
    assert collapse_signed_tails(d) == quantize_b(d)


def inject_matching(monkeypatch, matching):
    """Hand the collapse a matching of the test's own making."""
    monkeypatch.setattr(engine, "tail_matching", lambda description: matching)


def test_collapse_is_threshold_independent(monkeypatch):
    d = load("chain3.json")
    expected = quantize_b(d)
    enlarged = tuple(
        dataclasses.replace(end, threshold=end.threshold + 7)
        for end in tail_matching(d)
    )
    inject_matching(monkeypatch, enlarged)
    assert collapse_signed_tails(d) == expected


@pytest.mark.parametrize("threads", [2, 5])
@pytest.mark.parametrize(
    "name", ["chain3_x_seg.json", "skew.json", "btorus_4cycle.json"]
)
def test_b_threading_is_invisible(name, threads):
    d = load(name)
    assert quantize_description(d, threads=threads) == quantize_b(d)


@pytest.mark.parametrize(
    "name", ["c_box_m3_0_x_m1_0.json", "chain3_x_seg.json"]
)
def test_no_thread_is_ever_started(name, monkeypatch):
    def refuse(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert quantize_description(load(name), threads=8) == (
        quantize_description(load(name))
    )
    argv = ["verify-qr", str(corpus_path(name)),
            str(corpus_path("c_box_m3_0_x_m1_0.json")), "--threads", "8"]
    assert main(argv) == 0


def test_unclaimed_direction_is_refused(monkeypatch):
    # drop the second matched end of the degenerate torus: both full lines
    # keep their positive direction and the collapse must refuse
    d = load("btorus.json")
    inject_matching(monkeypatch, tail_matching(d)[:1])
    with pytest.raises(NotFiniteError) as info:
        collapse_signed_tails(d)
    assert info.value.witness == (("term", 0), (1,))
    assert "no hypersurface end claims it" in str(info.value)


def test_unequal_tails_are_refused():
    # the minus component now stops at x = -10, so the plus tail has no
    # partner to cancel; a collapse trusting the matching would return
    # {0, 1, 2}, and its self-check window [-2, 4] never reaches x <= -3,
    # so only validation can refuse this description
    data = raw_description("sphere_a2_bm1.json")
    data["components"][1]["polyhedron"]["inequalities"].append(
        {"normal": [-1], "bound": 10}
    )
    d = parse(data)
    for attempt in (collapse_signed_tails, quantize_b):
        with pytest.raises(NotValidatedError, match="tail-product") as info:
            attempt(d)
        (row,) = [
            check for check in info.value.report.checks
            if check.name == "tail-product"
        ]
        assert row.witness == (0, 1)  # hypersurface 0, the minus component


def test_overlap_correction_restores_double_counted_points(monkeypatch):
    # shrink one threshold of the torus matching so the two tails of each
    # line overlap on [-5, -1]; the inclusion-exclusion correction must put
    # the cancelled points back, and the total stays zero
    d = load("btorus.json")
    first, second = tail_matching(d)
    inject_matching(
        monkeypatch, (first, dataclasses.replace(second, threshold=-5))
    )
    assert collapse_signed_tails(d) == VirtualCharacter.zero(1)


def test_self_check_catches_corrupted_enumeration(monkeypatch):
    # the self-check reads the formal count off the certified runs of rows
    # (LatticePolyhedron._certified_rows), not off lattice_points
    real = LatticePolyhedron.lattice_points

    def corrupted(self):
        return real(self)[:-1]

    monkeypatch.setattr(LatticePolyhedron, "lattice_points", corrupted)
    with pytest.raises(SelfCheckError):
        quantize_b(load("sphere_a2_bm1.json"))


def test_self_check_catches_shortened_row_certificates(monkeypatch):
    # a row scan that ends every interval one step early shortens the
    # listing and the certificate alike; the upper inequality it names then
    # holds at the claimed end + 1
    real = LatticePolyhedron._rows

    def shortened(self, outer, low, high):
        for head, count, claim in real(self, outer, low, high):
            if len(claim) == 4 and claim[1] <= claim[3]:
                lower, first, upper, final = claim
                claim = lower, first, upper, final - 1
            yield head, count, claim

    monkeypatch.setattr(LatticePolyhedron, "_rows", shortened)
    with pytest.raises(SelfCheckError, match="disagrees with its inequalities"):
        quantize_b(load("sphere_a2_bm1.json"))


def wrong_tables(table, rank):
    """Single faults in a weight -> multiplicity table: each weight dropped,
    bumped, or moved one step along the last coordinate, a weight added
    just past each one, and one far outside any window."""
    step = (0,) * (rank - 1) + (1,)
    for weight, multiplicity in table.items():
        after = tuple(map(sum, zip(weight, step)))
        before = tuple(w - s for w, s in zip(weight, step))
        rest = {w: m for w, m in table.items() if w != weight}
        yield rest
        yield {**table, weight: multiplicity + 1}
        for moved in (after, before):
            if moved not in table:
                yield {**rest, moved: multiplicity}
                yield {**table, moved: 1}
    for weight in [(0,) * rank, (10**6,) * rank]:
        if weight not in table:
            yield {**table, weight: -1}


@pytest.mark.parametrize("name", VALID_B_FILES)
def test_self_check_names_the_first_wrong_weight(name):
    # the run-by-run match must refuse every single fault in the character
    # and name the least weight where it parts from the honest one
    d = load(name)
    honest = quantize_b(d)
    window = engine._verification_box(honest, [])
    engine._self_check(d.components, honest, window)
    table = dict(honest.items())
    for wrong in wrong_tables(table, d.rank):
        weight = min(
            w for w in table.keys() | wrong.keys()
            if table.get(w, 0) != wrong.get(w, 0)
        )
        with pytest.raises(SelfCheckError) as info:
            engine._self_check(
                d.components, VirtualCharacter(d.rank, wrong), window
            )
        assert str(info.value) == (
            f"collapsed character gives {wrong.get(weight, 0)} at weight "
            f"{weight} but the formal signed count is {table.get(weight, 0)}"
        )


def test_empty_support_window_is_the_pieces_vertex_extent(monkeypatch):
    # with an empty support the window falls back to the collapsed pieces'
    # exact boxes; for a bounded piece that is the extent of its vertices,
    # so the window is the one the vertices would give, range for range
    real, seen = engine._verification_box, {}

    def spy(character, pieces):
        seen[name] = character, pieces
        return real(character, pieces)

    monkeypatch.setattr(engine, "_verification_box", spy)
    for name in VALID_B_FILES:
        quantize_b(load(name))
    empty = sorted(name for name, (chi, _) in seen.items() if chi.is_zero())
    assert empty == [
        "btorus.json", "btorus_4cycle.json",
        "strip_btorus.json", "strip_btorus_k2.json",
    ]
    for name in empty:
        character, pieces = seen[name]
        corners = [
            corner for piece in pieces if not piece.is_empty()
            for corner in piece.vertices()
        ]
        expected = []
        for values in zip(*corners):
            low, high = math.floor(min(values)), math.ceil(max(values))
            pad = (high - low) // 2 + 1
            expected.append(range(low - pad, high + pad + 1))
        assert expected and real(character, pieces) == expected


def test_self_check_tests_rank_0_directly():
    point = LatticePolyhedron(0, [])
    terms = ((1, point), (1, point))
    engine._self_check(terms, VirtualCharacter(0, {(): 2}), [])
    with pytest.raises(SelfCheckError, match=(
        r"gives 1 at weight \(\) but the formal signed count is 2"
    )):
        engine._self_check(terms, VirtualCharacter(0, {(): 1}), [])


def first_difference_oracle(rows, items, box):
    """The least weight of `box`, in lexicographic order, where the table
    `items` and the (head, runs) rows give different values, with both
    values; None where they agree on the whole box."""
    found = dict(items)
    for weight in itertools.product(*box):
        expected = sum(
            value for head, runs in rows if head == weight[:-1]
            for a, b, value in runs if a <= weight[-1] < b
        )
        if found.get(weight, 0) != expected:
            return weight, found.get(weight, 0), expected
    return None


def random_rows(rng, rank):
    """Rows of rank `rank` inside [-3, 3]^rank: some with no runs, runs
    that meet end to end, often with equal values, and gaps."""
    heads = sorted(
        rng.sample(list(itertools.product(range(-2, 3), repeat=rank - 1)),
                   rng.randint(0, min(4, 5 ** (rank - 1))))
    )
    rows = []
    for head in heads:
        cuts = sorted(rng.sample(range(-3, 5), rng.randint(0, 5)))
        runs = [
            (a, b, rng.choice([-2, -1, 1, 1, 1, 2]))
            for a, b in zip(cuts, cuts[1:])
            if rng.random() < 0.8
        ]
        rows.append((head, runs))
    return rows


def test_first_difference_matches_the_per_weight_oracle():
    rng = random.Random(43)
    differences = 0
    for _ in range(3000):
        rank = rng.randint(1, 3)
        rows = random_rows(rng, rank)
        table = {
            head + (x,): value
            for head, runs in rows for a, b, value in runs
            for x in range(a, b)
        }
        assert engine._first_difference(rows, sorted(table.items())) is None
        box = [range(-4, 5)] * rank
        weights = list(itertools.product(*box))
        kind = rng.randrange(4)
        if kind == 0:
            table = {}  # an empty table
        elif kind == 1:
            # entries anywhere in the box, inside or outside every row
            for weight in rng.sample(weights, rng.randint(1, 3)):
                table[weight] = table.get(weight, 0) + rng.choice([-1, 1])
        elif kind == 2 and table:
            # one entry dropped, bumped or moved one step along the last axis
            weight = rng.choice(sorted(table))
            value = table.pop(weight)
            change = rng.randrange(3)
            if change == 1:
                table[weight] = value + rng.choice([-1, 1])
            elif change == 2:
                moved = weight[:-1] + (weight[-1] + rng.choice([-1, 1]),)
                table[moved] = table.get(moved, 0) + value
        else:
            # a fresh random table
            table = {
                weight: rng.choice([-1, 1])
                for weight in rng.sample(weights, rng.randint(0, 6))
            }
        items = sorted((w, v) for w, v in table.items() if v)
        expected = first_difference_oracle(rows, items, box)
        assert engine._first_difference(rows, items) == expected
        differences += expected is not None
    assert differences > 2000


def test_point_mismatch_compares_the_one_weight_of_rank_0():
    point = LatticePolyhedron(0, [])
    twice = ((1, point), (1, point))
    assert engine._point_mismatch(twice, VirtualCharacter(0, {(): 2})) is None
    assert engine._point_mismatch(twice, VirtualCharacter(0, {(): 1})) == (
        (), 1, 2
    )
    assert engine._point_mismatch(twice, VirtualCharacter.zero(0)) == (
        (), 0, 2
    )
    cancelled = ((1, point), (-1, point))
    assert engine._point_mismatch(cancelled, VirtualCharacter.zero(0)) is None
    assert engine._point_mismatch(
        cancelled, VirtualCharacter(0, {(): -1})
    ) == ((), -1, 0)


def _report_nonempty_row_empty(polyhedron, claim):
    if len(claim) == 4 and claim[2] is not None and claim[1] <= claim[3]:
        lower, first, upper, _ = claim
        return lower, first, upper, first - 1


def _report_nonempty_row_flat_violated(polyhedron, claim):
    flat = [
        index for index, (normal, _) in enumerate(polyhedron.inequalities)
        if normal[-1] == 0
    ]
    if len(claim) == 4 and claim[1] <= claim[3] and flat:
        return (flat[0],)


def _name_upper_without_positive_slope(polyhedron, claim):
    # the lower inequality fails at first - 1, so it passes the failure
    # test at the claimed end; only its slope gives the forgery away
    if len(claim) == 4 and claim[0] is not None and claim[1] <= claim[3]:
        lower, first, _, _ = claim
        return lower, first, lower, first - 2


def _claim_a_point_on_an_empty_row(polyhedron, claim):
    if len(claim) == 4 and claim[3] < claim[1]:
        lower, first, upper, _ = claim
        return lower, first, upper, first


@pytest.mark.parametrize("name, forge", [
    ("skew.json", _report_nonempty_row_empty),
    ("product_k1.json", _report_nonempty_row_flat_violated),
    ("skew.json", _name_upper_without_positive_slope),
    ("skew.json", _claim_a_point_on_an_empty_row),
])
def test_self_check_refuses_forged_row_certificates(monkeypatch, name, forge):
    # the row scan rewrites the certificate of one run of rows, as a faulty
    # scan would; only the certificate check can object.  lattice_points
    # scans with an open last coordinate, so only the self-check's windowed
    # rows are forged and the collapsed character stays right
    real = LatticePolyhedron._rows
    forged = []

    def rows(self, outer, low, high):
        for head, count, claim in real(self, outer, low, high):
            new = None if forged or low == -math.inf else forge(self, claim)
            if new is not None:
                forged.append((head, count, claim, new))
                claim = new
            yield head, count, claim

    monkeypatch.setattr(LatticePolyhedron, "_rows", rows)
    with pytest.raises(SelfCheckError, match="disagrees with its inequalities"):
        quantize_b(load(name))
    assert len(forged) == 1


@pytest.mark.parametrize("rank", [1, 2])
def test_huge_enumeration_fails_fast(rank):
    # rank 1 lists 10**12 + 1 points on one row; rank 2 scans 10**12 + 1 rows
    description = parse(huge_box(rank))
    started = time.perf_counter()
    with address_space_cap(), pytest.raises(EnumerationBudgetError) as info:
        quantize_description(description)
    assert time.perf_counter() - started < 5
    assert info.value.count == 10**12 + 1 > ENUMERATION_BUDGET


def test_quantize_b_zero_weights_is_other_dichotomy_branch():
    data = raw_description("btorus.json")
    for record in data["hypersurfaces"]:
        record["modular_weight"] = [0]
        record["splitting"] = [0]
    with pytest.raises(ZeroModularWeightError):
        quantize_b(parse(data))


def test_quantize_b_refuses_invalid_descriptions():
    with pytest.raises(NotValidatedError):
        quantize_b(load("neg_nonprimitive_weight.json"))


def test_quantize_b_asks_for_the_report_once(monkeypatch):
    # the collapse's tail matching is the one validation on the way
    calls = []

    def counted(description):
        calls.append(description)
        return spaces.require_validated(description)

    monkeypatch.setattr(engine, "require_validated", counted)
    d = load("chain3.json")
    quantize_b(d)
    assert calls == [d]


def test_quantize_description_dispatch():
    assert quantize_description(load("c_seg_0_3.json")).dimension() == 4
    assert quantize_description(load("sphere_a2_bm1.json")).dimension() == 3
    with pytest.raises(TypeError):
        quantize_description(42)


# ----------------------------------------------------------------------
# local models


def test_local_models_quantize_to_zero():
    for name in ["sphere_a2_bm1.json", "chain3.json", "skew.json"]:
        d = load(name)
        for index in range(len(d.hypersurfaces)):
            character = quantize_local_model(local_model(d, index))
            assert character.is_zero()
            assert character.rank == d.rank


def test_local_model_rejects_equal_signs():
    model = local_model(load("sphere_a2_bm1.json"), 0)
    (s, tail_a), (_, tail_b) = model.tails
    bad = dataclasses.replace(model, tails=((s, tail_a), (s, tail_b)))
    with pytest.raises(NotFiniteError) as info:
        quantize_local_model(bad)
    assert "reinforce" in str(info.value)


def test_local_model_rejects_unequal_tails():
    model = local_model(load("sphere_a2_bm1.json"), 0)
    (sa, tail_a), (sb, tail_b) = model.tails
    shorter = tail_b.with_inequality((-1,), 10)
    bad = dataclasses.replace(model, tails=((sa, tail_a), (sb, shorter)))
    with pytest.raises(NotFiniteError) as info:
        quantize_local_model(bad)
    assert "differ as sets" in str(info.value)


@pytest.mark.parametrize("name", ["sphere_a2_bm1.json", "skew.json", "chain3.json"])
def test_local_model_recheck_finds_uncancelled_points(monkeypatch, name):
    # with the set-equality proof forced through, the row re-check still
    # names the first point of the box, in lexicographic order, where the
    # tails fail to cancel
    model = local_model(load(name), 0)
    (sa, tail_a), (sb, tail_b) = model.tails
    shifted = tail_b.translate((1,) + (0,) * (tail_b.rank - 1))
    ranges = [
        range(math.floor(min(values)) - 1, math.ceil(max(values)) + 2)
        for values in zip(*tail_a.vertices())
    ]
    point, total = next(
        (point, total) for point in itertools.product(*ranges)
        if (total := sa * tail_a.contains_point(point)
            + sb * shifted.contains_point(point))
    )
    bad = dataclasses.replace(model, tails=((sa, tail_a), (sb, shifted)))
    monkeypatch.setattr(LatticePolyhedron, "set_equals", lambda *_: True)
    with pytest.raises(SelfCheckError) as info:
        quantize_local_model(bad)
    assert str(info.value).endswith(
        f"at lattice point {point} (signed count {total})"
    )


def test_local_model_type_check():
    with pytest.raises(TypeError):
        quantize_local_model("nope")


# ----------------------------------------------------------------------
# reduction


def test_reduced_space_counts_sphere():
    d = load("sphere_a2_bm1.json")
    inside = reduced_space_quantization(d, (1,))
    assert inside.count == 1
    assert inside.contributions == (1, 0)
    cancelled = reduced_space_quantization(d, (-1,))
    assert cancelled.count == 0
    assert cancelled.contributions == (1, -1)
    outside = reduced_space_quantization(d, (5,))
    assert outside.count == 0
    assert outside.contributions == (0, 0)
    # the two memberships at 0 and far down the tails, and above both
    for weight, contributions in [
        ((0,), (1, 0)), ((-5,), (1, -1)), ((3,), (0, 0))
    ]:
        result = reduced_space_quantization(d, weight)
        assert result.contributions == contributions
        assert result.count == sum(contributions)


def test_reduced_space_counts_compact():
    result = reduced_space_quantization(load("c_seg_0_3.json"), (2,))
    assert result.count == 1
    assert result.contributions == (1,)


def test_reduced_space_requires_validation():
    with pytest.raises(NotValidatedError):
        reduced_space_quantization(load("neg_equal_signs.json"), (0,))


def test_weight_validation():
    d = load("sphere_a2_bm1.json")
    with pytest.raises(DimensionMismatchError):
        reduced_space_quantization(d, (1, 2))
    with pytest.raises(ValueError):
        reduced_space_quantization(d, (True,))
    with pytest.raises(ValueError):
        reduced_space_quantization(d, ("1",))


def test_pointwise_multiplicity_matches_oracle():
    rng = random.Random(5)
    for name in ["chain3.json", "skew.json", "product_k4.json"]:
        data = raw_description(name)
        d = load(name)
        for _ in range(40):
            weight = tuple(rng.randint(-8, 8) for _ in range(d.rank))
            expected = raw_multiplicity(data, weight)
            assert signed_count(d, weight) == expected
            assert reduced_space_quantization(d, weight).count == expected


def test_facet_boundary_weights_segment():
    space = load("c_seg_0_3.json")
    character = quantize_compact_toric(space)
    assert facet_weights(space, character) == ((0,), (3,))


def test_facet_boundary_weights_sphere():
    d = load("sphere_a2_bm1.json")
    character = quantize_b(d)
    # only the top weight meets a facet of a component containing it
    assert facet_weights(d, character) == ((2,),)


def facet_boundary_oracle(description, character):
    """What facet_weights must return, weight by weight: each
    support weight that some component contains and meets in one of its
    inequalities with equality."""
    out = []
    for weight in character.support():
        for _, polyhedron in signed_terms(description):
            if not polyhedron.contains_point(weight):
                continue
            if any(
                _linalg.dot(normal, weight) * q == p
                for normal, p, q in polyhedron.integer_inequalities
            ):
                out.append(weight)
                break
    return tuple(out)


def test_facet_boundary_weights_match_the_per_weight_oracle():
    rng = random.Random(41)
    descriptions = [parse(RANK_0_POINT)]
    descriptions += [load(name) for name in VALID_B_FILES + COMPACT_FILES]
    descriptions += [
        parse(make_corpus.sphere(a, b))
        for a in range(-20, 21) for b in range(-20, a)
    ]
    descriptions += [
        parse(make_corpus.sphere_times_segment(a, b, k))
        for a, b, k in [(2, -1, 3), (0, -4, 1), (7, 3, 5), (100, -100, 100)]
    ]
    found = 0
    for description in descriptions:
        honest = quantize_description(description)
        characters = [honest]
        if description.rank:
            # seeded extra weights on, beside and off the support
            corrupted = honest
            for _ in range(3):
                weight = tuple(
                    rng.randint(-6, 6) for _ in range(description.rank)
                )
                corrupted += VirtualCharacter.delta(
                    weight, rng.choice([-1, 1])
                )
            characters.append(corrupted)
        for character in characters:
            expected = facet_boundary_oracle(description, character)
            assert facet_weights(description, character) == expected
            found += len(expected)
    assert found > 2000


def test_facet_boundary_weights_refuse_a_character_of_another_rank():
    with pytest.raises(DimensionMismatchError):
        facet_weights(load("c_seg_0_3.json"), VirtualCharacter.delta((0, 0)))


def test_facet_weights_require_validation():
    # the boundary weights are read off certified rows, so they need a
    # validated description
    description = load("neg_equal_signs.json")
    with pytest.raises(NotValidatedError):
        facet_weights(description, VirtualCharacter.delta((0,)))


def test_facet_weights_read_each_component_once(monkeypatch):
    # one certified pass over the support's box gives the boundary weights
    description = parse(make_corpus.sphere_times_segment(7, 3, 5))
    character = quantize_description(description)
    real, calls = LatticePolyhedron._rows, []

    def counted(self, *args):
        calls.append(self)
        return real(self, *args)

    monkeypatch.setattr(LatticePolyhedron, "_rows", counted)
    assert facet_weights(description, character)
    assert calls == [polyhedron for _, polyhedron in description.components]


def test_facet_weights_of_an_empty_support_and_in_rank_0():
    assert facet_weights(load("btorus.json"), VirtualCharacter.zero(1)) == ()
    point = parse(RANK_0_POINT)
    assert facet_weights(point, quantize_description(point)) == ()
    assert facet_weights(point, VirtualCharacter.delta((), 2)) == ()


# ----------------------------------------------------------------------
# quantization commutes with reduction


def test_qr_product_segment_pair():
    report = verify_qr_product(load("c_seg_0_3.json"), load("c_seg_m2_0.json"))
    assert report.matches
    assert report.invariant_from_characters == 3
    assert report.invariant_from_geometry == 3
    assert report.checked_weights == 3
    assert report.first_mismatch is None


def test_qr_product_b_side():
    report = verify_qr_product(
        load("sphere_a2_bm1.json"), load("c_seg_m2_0.json")
    )
    assert report.matches
    assert report.invariant_from_characters == 3


def test_qr_product_catches_corrupted_character():
    d = load("c_seg_0_3.json")
    partner = load("c_seg_m2_0.json")
    honest = quantize_compact_toric(d)
    corrupted = honest + VirtualCharacter.delta((1,))
    report = verify_qr_product(d, partner, character=corrupted)
    assert not report.matches
    assert report.first_mismatch == ((1,), 2, 1)
    # route one reads the character it is given, not a recomputed one
    assert report.invariant_from_characters == 4
    assert report.invariant_from_geometry == 3


def test_qr_product_refuses_a_character_of_another_rank():
    # a rank-2 character against a rank-1 pair is refused, not read as
    # if its weights were the pair's
    character = VirtualCharacter(2, {(0, 0): 1, (1, 0): 2})
    with pytest.raises(DimensionMismatchError):
        verify_qr_product(
            load("c_seg_0_3.json"), load("c_seg_m2_0.json"),
            character=character,
        )


def test_qr_product_never_forms_the_tensor(monkeypatch):
    def refuse(self, other):
        raise AssertionError("verify_qr_product formed the tensor")

    monkeypatch.setattr(VirtualCharacter, "tensor", refuse)
    report = verify_qr_product(
        load("product_k1.json"), load("c_box_m3_0_x_m1_0.json")
    )
    assert report.matches
    assert report.invariant_from_characters == 6
    assert report.invariant_from_geometry == 6


def route_two_oracle(description, partner, character):
    """The report verify_qr_product must give, by the per-weight
    definitions of its routes: route one sums chi(-v) over the lattice
    points v of the partner, and route two takes the formal signed count
    at each lattice point of the reflected partner, in lexicographic
    order."""
    geometry = checked = 0
    first_mismatch = None
    for weight in partner.polytope.reflect_through_origin().lattice_points():
        direct = signed_count(description, weight)
        geometry += direct
        checked += 1
        from_character = character.multiplicity(weight)
        if first_mismatch is None and from_character != direct:
            first_mismatch = (weight, from_character, direct)
    return QRReport(
        invariant_from_characters=sum(
            character.multiplicity(tuple(-x for x in point))
            for point in partner.polytope.lattice_points()
        ),
        invariant_from_geometry=geometry,
        checked_weights=checked,
        first_mismatch=first_mismatch,
    )


RANK_0_POINT = {
    "schema": "bquant/1", "kind": "compact_toric", "rank": 0,
    "polytope": {"rank": 0, "inequalities": []},
}


def rank_0_sum(*signs):
    """A rank-0 b_toric description: one point component per sign."""
    return parse({
        "schema": "bquant/1", "kind": "b_toric", "rank": 0,
        "components": [
            {"sign": sign, "polyhedron": {"rank": 0, "inequalities": []}}
            for sign in signs
        ],
        "hypersurfaces": [],
    })


@pytest.mark.parametrize("signs, count", [((1, 1), 2), ((1, -1), 0)])
def test_rank_0_sums_through_the_public_api(signs, count):
    # the signed count at the one weight () is the number of +1 points
    # less the number of -1 points, by every route
    description = rank_0_sum(*signs)
    point = parse(RANK_0_POINT)
    character = quantize_description(description)
    assert character == VirtualCharacter(0, {(): count})
    assert facet_weights(description, character) == ()
    result = reduced_space_quantization(description, ())
    assert (result.count, result.contributions) == (count, signs)
    assert verify_qr_product(description, point) == QRReport(count, count, 1)
    corrupted = VirtualCharacter(0, {(): 1})
    report = verify_qr_product(description, point, character=corrupted)
    assert report == QRReport(1, count, 1, first_mismatch=((), 1, count))


def qr_pairs():
    """(description, partner) for every quantizable corpus description and
    compact corpus partner of the same rank, and the rank-0 point twice."""
    partners = [load(name) for name in COMPACT_FILES]
    pairs = [(parse(RANK_0_POINT), parse(RANK_0_POINT))]
    for name in VALID_B_FILES + COMPACT_FILES:
        description = load(name)
        pairs.extend(
            (description, partner) for partner in partners
            if partner.rank == description.rank
        )
    return pairs


def test_qr_route_two_matches_the_per_weight_oracle():
    rng = random.Random(31)
    mismatches = 0
    for description, partner in qr_pairs():
        honest = quantize_description(description)
        report = verify_qr_product(description, partner, character=honest)
        assert report == route_two_oracle(description, partner, honest)
        assert report.matches
        # the same pair with 1-3 weights of the character corrupted
        corrupted = honest
        for _ in range(rng.randint(1, 3)):
            weight = tuple(rng.randint(-6, 6) for _ in range(description.rank))
            corrupted += VirtualCharacter.delta(
                weight, rng.choice([-2, -1, 1, 2])
            )
        report = verify_qr_product(description, partner, character=corrupted)
        assert report == route_two_oracle(description, partner, corrupted)
        mismatches += report.first_mismatch is not None
        # and with one seeded multiplicity moved a step along the last axis
        if not honest.is_zero() and description.rank:
            table = dict(honest.items())
            weight = rng.choice(sorted(table))
            moved = weight[:-1] + (weight[-1] + rng.choice([-1, 1]),)
            table[moved] = table.get(moved, 0) + table.pop(weight)
            shifted = VirtualCharacter(description.rank, table)
            report = verify_qr_product(description, partner, character=shifted)
            assert report == route_two_oracle(description, partner, shifted)
            mismatches += report.first_mismatch is not None
    assert mismatches > 40


@pytest.mark.parametrize("seed", [7919, 11, 4242])
def test_qr_route_two_matches_the_oracle_on_benchmark_cases(seed):
    for case in benchmark_workloads().generate("qr_verify", seed):
        description, partner = map(parse_description, case.texts)
        character = quantize_description(description)
        report = verify_qr_product(description, partner)
        assert report == route_two_oracle(description, partner, character)
        assert report.payload() == case.expected()["report"]


def test_qr_product_partner_must_be_compact():
    with pytest.raises(TypeError) as info:
        verify_qr_product(load("c_seg_0_3.json"), load("btorus.json"))
    assert isinstance(info.value, DescriptionKindError)


def test_qr_product_rank_mismatch():
    with pytest.raises(DimensionMismatchError):
        verify_qr_product(load("c_seg_0_3.json"), load("c_square.json"))


def test_qr_report_payload():
    report = QRReport(3, 4, 7, first_mismatch=((1,), 2, 1))
    assert not report.matches
    assert report.payload() == {
        "matches": False,
        "invariant_from_characters": 3,
        "invariant_from_geometry": 4,
        "checked_weights": 7,
        "first_mismatch": {
            "weight": [1],
            "from_characters": 2,
            "from_geometry": 1,
        },
    }


# ----------------------------------------------------------------------
# randomized properties


def test_random_spheres_have_interval_spectra():
    rng = random.Random(17)
    for _ in range(30):
        b = rng.randint(-12, 11)
        a = rng.randint(b + 1, 12)
        d = parse(make_corpus.sphere(a, b))
        character = quantize_b(d)
        assert character.support() == [(k,) for k in range(b + 1, a + 1)]
        assert character.dimension() == a - b
        for _ in range(10):
            weight = (rng.randint(-30, 30),)
            direct = signed_count(d, weight)
            assert character.multiplicity(weight) == direct
            assert reduced_space_quantization(d, weight).count == direct


def test_random_products_match_oracle():
    rng = random.Random(23)
    for _ in range(8):
        b = rng.randint(-6, 5)
        a = rng.randint(b + 1, 6)
        k = rng.randint(1, 4)
        data = make_corpus.sphere_times_segment(a, b, k)
        character = quantize_b(parse(data))
        assert character.dimension() == (a - b) * (k + 1)
        for _ in range(15):
            weight = (rng.randint(-10, 10), rng.randint(-3, k + 3))
            assert character.multiplicity(weight) == raw_multiplicity(
                data, weight
            )


# ----------------------------------------------------------------------
# numbers derived past Python's int-to-text limit


HUGE = 10**4400  # 4,401 digits: str() of it raises ValueError


def test_collapse_messages_write_derived_rays_in_full(monkeypatch):
    # both NotFiniteError messages of the collapse name a recession ray;
    # one far past the digit limit is written in full
    d = load("btorus.json")
    first, second = tail_matching(d)
    ray = (-HUGE,)
    text = "(-" + str(Decimal(HUGE)) + ",)"
    monkeypatch.setattr(LatticePolyhedron, "recession_rays", lambda self: (ray,))
    inject_matching(monkeypatch, (first,))
    with pytest.raises(NotFiniteError) as info:
        collapse_signed_tails(d)
    assert f"keeps unbounded direction {text} after every" in str(info.value)
    assert info.value.witness == (("term", 0), ray)
    # a second end with the first one's cut: the core {0} is bounded, but
    # the two tails overlap on the half-line x <= -1
    inject_matching(
        monkeypatch, (first, second, dataclasses.replace(first, hypersurface=2))
    )
    with pytest.raises(NotFiniteError) as info:
        collapse_signed_tails(d)
    assert str(info.value) == (
        "tails of hypersurfaces (0, 2) overlap in term 0 along unbounded "
        f"direction {text}"
    )


def test_self_check_messages_write_derived_weights_in_full(monkeypatch):
    text = "(" + str(Decimal(HUGE)) + ",)"
    point = LatticePolyhedron(1, [((1,), HUGE), ((-1,), -HUGE)])
    with pytest.raises(SelfCheckError) as info:
        engine._self_check(
            ((1, point),), VirtualCharacter.zero(1), [range(HUGE, HUGE + 1)]
        )
    assert str(info.value) == (
        f"collapsed character gives 0 at weight {text} but the formal "
        "signed count is 1"
    )
    # a row scan that hands on no run at all: the run check refuses the
    # first row at the window's start
    with monkeypatch.context() as patch:
        patch.setattr(LatticePolyhedron, "_rows", lambda *_: iter(()))
        with pytest.raises(SelfCheckError) as info:
            list(point._certified_rows([], HUGE, HUGE))
    assert str(info.value) == (
        f"enumeration of {point} disagrees with its inequalities at weight "
        f"{text}"
    )
    # a local model at a huge level whose second tail is moved by one:
    # with the set-equality proof forced through, the re-check names the
    # first point that fails to cancel
    tail = LatticePolyhedron(1, [((1,), -HUGE)])
    model = LocalModel(0, HUGE, ((1, tail), (-1, tail.translate((1,)))))
    monkeypatch.setattr(LatticePolyhedron, "set_equals", lambda *_: True)
    with pytest.raises(SelfCheckError) as info:
        quantize_local_model(model)
    assert str(info.value).endswith(
        f"at lattice point (-{str(Decimal(HUGE - 1))},) (signed count -1)"
    )


# ----------------------------------------------------------------------
# the fixed cost of one description


def test_one_cold_sphere_has_a_fixed_cost(monkeypatch):
    # a timing-free guard on the per-description work of acceptance
    # criterion 1: one rank-1 sphere, validated from a cold cache and
    # quantized, builds 9 polyhedra and makes 1 feasibility test (the rank-0
    # leaf's), 6 box projections, no kernel computation and no Fraction:
    # box ends and vertices stay integer pairs and tables
    expected = {
        "polyhedra": 9, "fm_feasible": 1, "fm_box": 6,
        "rational_kernel_basis": 0, "Fraction": 0,
    }
    counts = dict.fromkeys(expected, 0)
    for name in ("fm_feasible", "fm_box", "rational_kernel_basis"):
        real = getattr(_linalg, name)

        def counted(*args, _real=real, _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(_linalg, name, counted)
    assign = LatticePolyhedron._assign

    def counted_assign(self, *args):
        counts["polyhedra"] += 1
        return assign(self, *args)

    monkeypatch.setattr(LatticePolyhedron, "_assign", counted_assign)
    build = Fraction.__new__

    def counted_fraction(cls, *args, **kwargs):
        counts["Fraction"] += 1
        return build(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted_fraction)
    validate_description.cache_clear()
    character = quantize_b(parse(make_corpus.sphere(7, -3)))
    assert character.support() == [(k,) for k in range(-2, 8)]
    assert counts == expected


def test_one_cold_verify_qr_has_a_fixed_cost(monkeypatch):
    # a timing-free guard on the rank-2 verify-qr path: once parsed,
    # sphere_times_segment(20, -20, 20) against the box [-20, 0]^2,
    # validated from a cold cache, builds 7 polyhedra, solves 12 vertex
    # systems in integers and builds no Fraction.  It lists lattice points
    # twice, the collapse's two cores: both routes read the partner off
    # its certified rows, never listing it
    expected = {
        "polyhedra": 7, "solve_unique": 12, "lattice_points": 2,
        "Fraction": 0,
    }
    counts = dict.fromkeys(expected, 0)

    def counting(name, real):
        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return counted

    description = parse(make_corpus.sphere_times_segment(20, -20, 20))
    partner = parse(make_corpus.compact(2, make_corpus.polyhedron(
        2, ((1, 0), 0), ((-1, 0), 20), ((0, 1), 0), ((0, -1), 20)
    )))
    monkeypatch.setattr(_linalg, "solve_unique",
                        counting("solve_unique", _linalg.solve_unique))
    monkeypatch.setattr(LatticePolyhedron, "_assign",
                        counting("polyhedra", LatticePolyhedron._assign))
    monkeypatch.setattr(
        LatticePolyhedron, "lattice_points",
        counting("lattice_points", LatticePolyhedron.lattice_points),
    )
    monkeypatch.setattr(Fraction, "__new__",
                        counting("Fraction", Fraction.__new__))
    validate_description.cache_clear()
    report = verify_qr_product(description, partner)
    assert report == QRReport(441, 441, 441)
    assert counts == expected


def test_self_check_reads_a_sphere_product_in_few_runs(monkeypatch):
    # a timing-free guard on the run-length row scan: over the self-check
    # window of sphere_times_segment(20, -20, 20), 80 rows, each term's rows
    # come in 2 runs, the rows it meets in full and the rows past its
    # level inequality x <= a
    real, runs = LatticePolyhedron._rows, []

    def counted(self, outer, low, high):
        scanned = list(real(self, outer, low, high))
        if low != -math.inf:
            runs.append([count for _, count, _ in scanned])
        return iter(scanned)

    monkeypatch.setattr(LatticePolyhedron, "_rows", counted)
    character = quantize_b(parse(make_corpus.sphere_times_segment(20, -20, 20)))
    assert character.dimension() == 40 * 21
    assert runs == [[60, 20], [20, 60]]


def test_validation_memo_is_bounded():
    # validate_description keeps the reports of the last maxsize
    # descriptions only, and a description validated twice inside one
    # verify_qr_product hits the memo the second time
    validate_description.cache_clear()
    size = validate_description.cache_info().maxsize
    assert size is not None
    for a in range(size + 50):
        assert validate_description(parse(make_corpus.sphere(a + 1, a))).passed
    info = validate_description.cache_info()
    assert info.currsize <= size
    assert info.misses == size + 50
    validate_description.cache_clear()
    description = parse(make_corpus.sphere(3, -2))
    partner = parse(make_corpus.compact(1, make_corpus.segment(-2, 0)))
    assert verify_qr_product(description, partner).matches
    info = validate_description.cache_info()
    assert info.misses == 2 and info.hits >= 1
