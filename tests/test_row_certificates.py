"""Property tests of the row scan and the certificates it hands the
self-check.

`LatticePolyhedron._scan` reads each row's interval of the last coordinate
off the inequalities and, when asked, names the inequalities that bound it;
`engine._row_mismatch` checks those claims with single-inequality tests and
contains_point, never with the scan's own arithmetic.  On random polyhedra
of ranks 1-3 (empty, unbounded and lower-dimensional ones included) over
random windows, the scan must agree with a brute-force contains_point filter
and pass the check, and the check must refuse a listing with a point or a
row missing, a certificate with one entry changed, and a point added to a
row's listing and certificate together.
"""

from fractions import Fraction
from itertools import product

from hypothesis import given, settings, strategies as st

from bquant import LatticePolyhedron
from bquant.engine import _row_mismatch

BOUNDS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 3))


@st.composite
def polyhedra_in_windows(draw):
    rank = draw(st.integers(1, 3))
    normals = st.tuples(*[st.integers(-3, 3)] * rank).filter(any)
    inequalities = draw(st.lists(st.tuples(normals, BOUNDS), max_size=5))
    if draw(st.booleans()):
        # a hyperplane, a slab one step thick, or nothing (bounds crossed)
        normal, bound = draw(normals), draw(BOUNDS)
        inequalities.append((normal, bound))
        inequalities.append(
            (tuple(-x for x in normal), -bound + draw(st.integers(-1, 1)))
        )
    window = [
        range(start, start + size)
        for start, size in draw(
            st.lists(
                st.tuples(st.integers(-5, 5), st.integers(1, 6)),
                min_size=rank, max_size=rank,
            )
        )
    ]
    return LatticePolyhedron(rank, inequalities), window


def certified_scan(polyhedron, window):
    *outer, last = window
    certificates = {}
    points = polyhedron._scan(outer, last.start, last.stop - 1, certificates)
    return points, certificates


def tamperings(polyhedron, points, certificates, window):
    """(label, points, certificates) for every single change the check must
    refuse: one point dropped, one row's points or certificate dropped, one
    certificate entry changed so that its claim is false, or one point
    added to a row and to its certificate together."""
    low, high = window[-1].start, window[-1].stop - 1
    slopes = [normal[-1] for normal, _ in polyhedron.inequalities]
    for point in points:
        yield f"drop {point}", [p for p in points if p != point], certificates
    for head, claim in certificates.items():
        kept = [p for p in points if p[:-1] != head]
        if len(kept) < len(points):
            yield f"drop row {head}", kept, certificates
        claims = {h: c for h, c in certificates.items() if h != head}
        yield f"drop certificate {head}", points, claims

        def swap(label, new):
            return label, points, {**certificates, head: new}

        if len(claim) == 1:
            yield swap(f"{head}: whole row", (None, low, None, high))
            yield swap(f"{head}: unknown index", (len(slopes),))
            for index, slope in enumerate(slopes):
                if slope:
                    yield swap(f"{head}: sloped index {index}", (index,))
            continue
        lower, first, upper, final = claim
        # a point past the row's end, listed and claimed alike
        extra = final + 1 if final >= first else first
        yield (
            f"{head}: add {extra}",
            sorted(points + [head + (extra,)]),
            {**certificates, head: (lower, min(first, extra), upper, extra)},
        )
        if final >= first:
            # the row's points dropped and the row claimed empty, bounded
            # on both sides by one inequality that really fails there
            if lower is not None:
                yield (f"{head}: upper {lower} against the slope", kept,
                       {**certificates, head: (lower, first, lower, first - 2)})
            if upper is not None:
                yield (f"{head}: lower {upper} against the slope", kept,
                       {**certificates, head: (upper, final + 2, upper, final)})
        yield swap(f"{head}: final - 1", (lower, first, upper, final - 1))
        yield swap(f"{head}: first + 1", (lower, first + 1, upper, final))
        if upper is not None:
            yield swap(f"{head}: upper is the window", (lower, first, None, final))
        if lower is not None:
            yield swap(f"{head}: lower is the window", (None, first, upper, final))
        for index, slope in enumerate(slopes):
            if slope <= 0:
                yield swap(f"{head}: upper {index}", (lower, first, index, final))
            if slope >= 0:
                yield swap(f"{head}: lower {index}", (index, first, upper, final))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(polyhedra_in_windows())
def test_scan_agrees_with_brute_force_and_passes_the_check(case):
    polyhedron, window = case
    points, certificates = certified_scan(polyhedron, window)
    assert points == [
        point for point in product(*window) if polyhedron.contains_point(point)
    ]
    assert polyhedron.points_in_box(window) == points
    assert set(certificates) == set(product(*window[:-1]))
    assert _row_mismatch(polyhedron, points, certificates, window) is None


@settings(derandomize=True, deadline=None, max_examples=150)
@given(polyhedra_in_windows())
def test_check_refuses_every_single_tampering(case):
    polyhedron, window = case
    points, certificates = certified_scan(polyhedron, window)
    accepted = [
        label
        for label, bad_points, bad_certificates in tamperings(
            polyhedron, points, certificates, window
        )
        if _row_mismatch(polyhedron, bad_points, bad_certificates, window)
        is None
    ]
    assert accepted == []
