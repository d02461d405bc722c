"""Virtual characters."""


import pytest

from conftest import (
    COMPACT_FILES,
    VALID_B_FILES,
    benchmark_workloads,
    corpus_path,
)

from bquant import (
    DimensionMismatchError,
    VirtualCharacter,
    load_description,
    parse_description,
    quantize_description,
)


def char(pairs):
    rank = len(next(iter(pairs))[0])
    return VirtualCharacter(rank, pairs)


def test_canonical_form_drops_zeros_and_merges_duplicates():
    c = VirtualCharacter(1, [((0,), 2), ((0,), -2), ((1,), 1), ((1,), 2)])
    assert c.items() == [((1,), 3)]
    assert c.multiplicity((0,)) == 0


def test_items_sorted_lexicographically():
    c = VirtualCharacter(2, {(1, 0): 1, (0, 5): 2, (0, -1): 3})
    assert c.support() == [(0, -1), (0, 5), (1, 0)]


def test_zero_and_delta():
    assert VirtualCharacter.zero(3).is_zero()
    d = VirtualCharacter.delta((1, 2), -4)
    assert d.rank == 2
    assert d.multiplicity((1, 2)) == -4


def test_weight_validation():
    with pytest.raises(DimensionMismatchError):
        VirtualCharacter(1, [((1, 2), 1)])
    with pytest.raises(DimensionMismatchError):
        VirtualCharacter(2, [((1,), 1)])
    with pytest.raises(ValueError):
        VirtualCharacter(1, [((1,), "x")])
    with pytest.raises(ValueError):
        VirtualCharacter(1, {(True,): 1})
    with pytest.raises(ValueError):
        VirtualCharacter(2, {(0, 1.0): 1})
    with pytest.raises(ValueError):
        VirtualCharacter(1, {(0,): True})
    with pytest.raises(ValueError):
        VirtualCharacter(1, {(0,): 1.0})
    with pytest.raises(ValueError):
        VirtualCharacter(True)


def engine_built_characters():
    """(label, character) for every character the engine builds from the
    quantizable corpus and from the benchmark's generated cases: the
    compact ones through quantize_compact_toric, the singular ones through
    collapse_signed_tails."""
    for name in VALID_B_FILES + COMPACT_FILES:
        yield name, quantize_description(load_description(corpus_path(name)))
    workloads = benchmark_workloads()
    for workload in workloads.WORKLOADS:
        for case in workloads.generate(workload, 7919):
            for text in case.texts:
                yield case.label, quantize_description(parse_description(text))


def test_engine_built_characters_are_canonical():
    count = 0
    for label, character in engine_built_characters():
        items = character.items()
        assert items == sorted(items), label
        assert all(multiplicity for _, multiplicity in items), label
        assert character == VirtualCharacter(character.rank, items), label
        count += 1
    assert count == len(VALID_B_FILES + COMPACT_FILES) + 820 + 4 * 2


def test_addition_subtraction_negation():
    a = char([((0,), 1), ((1,), 2)])
    b = char([((1,), -2), ((2,), 5)])
    assert (a + b).items() == [((0,), 1), ((2,), 5)]
    assert (a - a).is_zero()
    assert (-a).multiplicity((1,)) == -2
    assert a.negate() == -a
    with pytest.raises(DimensionMismatchError):
        a + VirtualCharacter.zero(2)


def test_tensor_is_convolution():
    a = char([((0,), 1), ((1,), 1)])
    b = char([((0,), 1), ((1,), 1)])
    # (1 + t)^2 = 1 + 2t + t^2
    assert a.tensor(b).items() == [((0,), 1), ((1,), 2), ((2,), 1)]


def test_tensor_dimension_multiplicative():
    a = char([((0,), 2), ((3,), -1)])
    b = char([((1,), 4), ((2,), 5)])
    assert a.tensor(b).dimension() == a.dimension() * b.dimension()
    assert a.dimension() == 1


def test_invariant_part_reads_zero_weight():
    a = char([((0, 0), 7), ((1, -1), 2)])
    assert a.invariant_part() == 7
    # pairing against the reflected character counts weight coincidences
    b = char([((-1, 1), 3)])
    assert a.tensor(b).invariant_part() == 6


def test_payload_round_trip():
    a = char([((2, -1), 3), ((0, 0), -2)])
    assert a.to_payload()["multiplicities"][0]["weight"] == [0, 0]


def test_equality_and_rank():
    assert VirtualCharacter(1, [((1,), 1)]) == VirtualCharacter(1, {(1,): 1})
    assert VirtualCharacter.zero(1) != VirtualCharacter.zero(2)


def test_weight_multiplicity_alias():
    a = char([((5,), 9)])
    assert a.multiplicity((5,)) == 9
