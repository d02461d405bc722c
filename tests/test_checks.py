"""Unit tests for the individual validation checks."""

from fractions import Fraction

import pytest

from bquant import (
    BSpaceDescription,
    CompactToricSpace,
    HypersurfaceRecord,
    LatticePolyhedron,
)
from bquant.checks import (
    CheckReport,
    check_gamma_integrality,
    check_modular_dichotomy,
    check_mu_integrality,
    check_properness,
)


def segment(low, high):
    return LatticePolyhedron(1, [((1,), high), ((-1,), -low)])


def half_line(bound):
    return LatticePolyhedron(1, [((1,), bound)])


LEAF0 = LatticePolyhedron(0, [])


def record1(weight, splitting, adjacent=(0, 1)):
    return HypersurfaceRecord((weight,), (splitting,), LEAF0, adjacent)


def sphere_like(a=2, b=-1):
    return BSpaceDescription(
        1,
        ((1, half_line(a)), (-1, half_line(b))),
        (record1(1, 1),),
    )


# ----------------------------------------------------------------------
# report formatting


def test_report_line_pass():
    assert CheckReport("x", True).line() == "x PASS"


def test_report_line_fail_with_witness_and_message():
    report = CheckReport("x", False, witness=(0, (1, 2)), message="boom")
    assert report.line() == "x FAIL witness=[0,[1,2]] (boom)"


def test_report_line_fail_bare():
    assert CheckReport("x", False).line() == "x FAIL"


def test_report_payload_serializes_fractions():
    report = CheckReport("g", False, witness=("p", (Fraction(5, 2),)))
    assert report.payload() == {
        "check": "g",
        "passed": False,
        "witness": ["p", ["5/2"]],
        "message": "",
    }


# ----------------------------------------------------------------------
# modular dichotomy


def test_dichotomy_passes_when_all_nonzero():
    assert check_modular_dichotomy(sphere_like()).passed


def test_dichotomy_passes_for_compact():
    report = check_modular_dichotomy(CompactToricSpace(1, segment(0, 3)))
    assert report.passed


def test_dichotomy_all_zero_lists_every_index():
    d = BSpaceDescription(
        1,
        ((1, half_line(2)), (-1, half_line(-1))),
        (record1(0, 0), record1(0, 0)),
    )
    report = check_modular_dichotomy(d)
    assert not report.passed
    assert report.witness == [0, 1]
    assert "dichotomy" in report.message
    assert "zero case" in report.message


def test_dichotomy_mixed_flags_first_zero():
    d = BSpaceDescription(
        1,
        ((1, half_line(2)), (-1, half_line(-1))),
        (record1(0, 0), record1(1, 1)),
    )
    report = check_modular_dichotomy(d)
    assert not report.passed
    assert report.witness == 0
    assert "for all hypersurfaces or for none" in report.message


# ----------------------------------------------------------------------
# gamma integrality


def test_gamma_accepts_lattice_polytope():
    assert check_gamma_integrality(CompactToricSpace(1, segment(0, 3))).passed


def test_gamma_rejects_fractional_vertex():
    poly = LatticePolyhedron(
        1, [((1,), Fraction(5, 2)), ((-1,), 0)]
    )
    report = check_gamma_integrality(CompactToricSpace(1, poly))
    assert not report.passed
    assert report.witness == ("polytope", (Fraction(5, 2),))


def test_gamma_checks_leaves_before_components():
    bad_leaf = LatticePolyhedron(
        1, [((1,), Fraction(1, 2)), ((-1,), 0)]
    )
    d = BSpaceDescription(
        2,
        ((1, LatticePolyhedron(2, [((1, 0), 2), ((0, 1), 1), ((0, -1), 0)])),
         (-1, LatticePolyhedron(2, [((1, 0), -1), ((0, 1), 1), ((0, -1), 0)]))),
        (HypersurfaceRecord((1, 0), (1, 0), bad_leaf, (0, 1)),),
    )
    report = check_gamma_integrality(d)
    assert not report.passed
    assert report.witness == ("hypersurface[0].leaf", (Fraction(1, 2),))


def test_gamma_rejects_unbounded_leaf_with_ray_witness():
    unbounded_leaf = LatticePolyhedron(1, [((-1,), 0)])
    d = BSpaceDescription(
        2,
        ((1, LatticePolyhedron(2, [((1, 0), 2)])),
         (-1, LatticePolyhedron(2, [((1, 0), -1)]))),
        (HypersurfaceRecord((1, 0), (1, 0), unbounded_leaf, (0, 1)),),
    )
    report = check_gamma_integrality(d)
    assert not report.passed
    assert report.witness == ("hypersurface[0].leaf", (1,))
    assert "unbounded" in report.message


def test_gamma_rejects_empty_leaf():
    empty_leaf = LatticePolyhedron(1, [((1,), -1), ((-1,), 0)])
    d = BSpaceDescription(
        2,
        ((1, LatticePolyhedron(2, [((1, 0), 2)])),
         (-1, LatticePolyhedron(2, [((1, 0), -1)]))),
        (HypersurfaceRecord((1, 0), (1, 0), empty_leaf, (0, 1)),),
    )
    report = check_gamma_integrality(d)
    assert not report.passed
    assert report.witness == "hypersurface[0].leaf"
    assert "empty" in report.message


def test_gamma_checks_bounded_components():
    fractional = LatticePolyhedron(
        1, [((1,), Fraction(1, 2)), ((-1,), 0)]
    )
    d = BSpaceDescription(
        1,
        ((1, fractional), (-1, half_line(-1))),
        (record1(1, 1),),
    )
    report = check_gamma_integrality(d)
    assert not report.passed
    assert report.witness == ("component[0]", (Fraction(1, 2),))


def test_gamma_skips_unbounded_components():
    d = sphere_like()
    assert check_gamma_integrality(d).passed


# ----------------------------------------------------------------------
# mu integrality


def test_mu_accepts_unit_pairing():
    assert check_mu_integrality(sphere_like()).passed


def test_mu_rejects_non_primitive_weight():
    d = BSpaceDescription(
        1,
        ((1, half_line(2)), (-1, half_line(-1))),
        (record1(2, 1),),
    )
    report = check_mu_integrality(d)
    assert not report.passed
    assert report.witness == (0, [2])
    assert "primitive" in report.message


def test_mu_rejects_bad_pairing():
    d = BSpaceDescription(
        2,
        ((1, LatticePolyhedron(2, [((1, 0), 2)])),
         (-1, LatticePolyhedron(2, [((1, 0), -1)]))),
        (HypersurfaceRecord(
            (1, 1), (1, 1),
            LatticePolyhedron(1, [((1,), 0), ((-1,), 0)]), (0, 1)),),
    )
    report = check_mu_integrality(d)
    assert not report.passed
    assert report.witness == (0, 2)
    assert "expected 1" in report.message


def test_mu_passes_for_compact():
    assert check_mu_integrality(CompactToricSpace(1, segment(0, 3))).passed


# ----------------------------------------------------------------------
# properness


def test_properness_passes_on_matched_ends():
    assert check_properness(sphere_like()).passed


def test_properness_passes_on_compact_spaces():
    report = check_properness(CompactToricSpace(1, segment(0, 3)))
    assert report.passed
    assert report.message == "no unbounded directions"


def test_properness_flags_empty_component():
    empty = LatticePolyhedron(1, [((1,), -1), ((-1,), 0)])
    d = BSpaceDescription(
        1, ((1, empty), (-1, half_line(-1))), (record1(1, 1),)
    )
    report = check_properness(d)
    assert not report.passed
    assert report.witness == ("component", 0)


def test_properness_flags_double_claim():
    d = BSpaceDescription(
        1,
        ((1, half_line(2)), (-1, half_line(-1))),
        (record1(1, 1), record1(1, 1)),
    )
    report = check_properness(d)
    assert not report.passed
    assert report.witness == (0, (-1,))
    assert "same unbounded direction" in report.message


def test_properness_flags_claim_on_bounded_component():
    d = BSpaceDescription(
        1,
        ((1, segment(0, 2)), (-1, half_line(-1))),
        (record1(1, 1),),
    )
    report = check_properness(d)
    assert not report.passed
    assert report.witness == (0, (-1,))
    assert "not an unbounded direction" in report.message


def test_properness_flags_unclaimed_ray():
    line = LatticePolyhedron(1, [])
    d = BSpaceDescription(
        1,
        ((1, line), (-1, half_line(-1))),
        (record1(1, 1),),
    )
    report = check_properness(d)
    assert not report.passed
    assert report.witness == (0, (1,))
    assert "not matched" in report.message


def test_properness_ignores_zero_weight_claims():
    # zero weights cannot absorb ends, so the segment stays clean while the
    # dichotomy check reports the real problem
    d = BSpaceDescription(
        1,
        ((1, segment(0, 2)), (-1, segment(-3, -1))),
        (record1(0, 0),),
    )
    assert check_properness(d).passed
    assert not check_modular_dichotomy(d).passed
