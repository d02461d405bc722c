"""Property tests of the row scan and of its one reader, the run check.

`LatticePolyhedron._rows` hands on runs of rows with one certificate;
`LatticePolyhedron._certified_rows`, whose docstring states the
certificate format and why a run's two end rows prove every row between,
checks each run and hands on its nonempty interval.  On random polyhedra
of ranks 1-3 (empty, unbounded and lower-dimensional ones included) over
random windows, the check must pass and its intervals agree with a
brute-force contains_point filter, and the scan must agree with a scan
of each row alone and end each run where the certificate changes.  The
check must refuse runs with a point or a row missing, a certificate
missing or with one entry changed, a point added to a certificate, an
index that names no inequality, a run extended one row past a
certificate change, a gap, an overlap, an overrun, a run carried into
the next row prefix, and a count of 0 or -1.
"""

from fractions import Fraction
from itertools import product
from math import inf

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import corpus_path

from bquant import (
    LatticePolyhedron,
    SelfCheckError,
    load_description,
    quantize_b,
)

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


def run_rows(head, count):
    """The heads of the `count` rows of the run that starts at row `head`
    (in rank 1, the one head ())."""
    if not head:
        return [()]
    return [head[:-1] + (y,) for y in range(head[-1], head[-1] + count)]


def steps_of(polyhedron, window, rows=None):
    """The (heads, first, final) intervals `polyhedron._certified_rows`
    yields over `window`, with its row scan replaced by the (head, count,
    certificate) runs `rows` when given; None when the check refuses."""
    *outer, last = window
    with pytest.MonkeyPatch.context() as patch:
        if rows is not None:
            patch.setattr(LatticePolyhedron, "_rows", lambda *_: iter(rows))
        try:
            return list(
                polyhedron._certified_rows(outer, last.start, last.stop - 1)
            )
        except SelfCheckError:
            return None


def tamperings(polyhedron, rows, window):
    """(label, runs) for every single change of one run's certificate the
    check must refuse: one point dropped from its interval, the run or its
    certificate dropped, one certificate entry changed so that its claim is
    false, or one point added to its interval; then every tiling fault of
    tiling_faults."""
    low, high = window[-1].start, window[-1].stop - 1
    slopes = [normal[-1] for normal, _ in polyhedron.inequalities]
    for at, (head, count, claim) in enumerate(rows):
        def swap(label, *new):
            return label, (
                rows[:at] + [(head, count, c) for c in new] + rows[at + 1:]
            )

        yield swap(f"drop certificate {head}", ())
        if len(claim) == 1:
            yield swap(f"{head}: whole row", (None, low, None, high))
            yield swap(f"{head}: unknown index", (len(slopes),))
            for index, slope in enumerate(slopes):
                if slope:
                    yield swap(f"{head}: sloped index {index}", (index,))
            continue
        lower, first, upper, final = claim
        for x in range(first, final + 1):
            # the interval's pieces on either side of x, each as a run of
            # the same rows
            pieces = [(lower, first, None, x - 1)] if x > first else []
            if x < final:
                pieces.append((None, x + 1, upper, final))
            yield swap(f"drop {head + (x,)}", *pieces)
        if final >= first:
            yield swap(f"drop run {head}")
        # a point past the row's end
        extra = final + 1 if final >= first else first
        yield swap(f"{head}: add {extra}", (lower, min(first, extra), upper, extra))
        if final >= first:
            # the row claimed empty, bounded on both sides by one inequality
            # that really fails there
            if lower is not None:
                yield swap(f"{head}: upper {lower} against the slope",
                           (lower, first, lower, first - 2))
            if upper is not None:
                yield swap(f"{head}: lower {upper} against the slope",
                           (upper, final + 2, upper, final))
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
    yield from tiling_faults(polyhedron, rows, window)


def tiling_faults(polyhedron, runs, window):
    """(label, runs) for every single change of the runs' tiling the check
    must refuse, each label "<fault> at <head>": a count of 0 or -1, an
    empty run put first, a run dropped (a gap), a run named one row late
    or early, whatever rows its certificate holds on, its first row skipped,
    its last row given again (an overlap), one row too many at the end of
    a prefix (an overrun), a prefix's last run carried across the next
    prefix's first run, a run extended one row past a certificate change
    where the row's true interval differs from the claimed one, and a run
    after the last row."""
    *outer, last = window
    for at, (head, count, claim) in enumerate(runs):
        before, after = runs[:at], runs[at + 1:]
        rows = run_rows(head, count)
        for bad in (0, -1):
            yield f"count {bad} at {head}", before + [(head, bad, claim)] + after
        yield f"empty run first at {head}", (
            before + [(head, 0, claim), (head, count, claim)] + after
        )
        yield f"gap at {head}", before + after
        if head:
            for step, fault in ((1, "named a row late"), (-1, "named a row early")):
                named = head[:-1] + (head[-1] + step,)
                yield f"{fault} at {head}", before + [(named, count, claim)] + after
        if count > 1:
            yield f"first row skipped at {head}", (
                before + [(rows[1], count - 1, claim)] + after
            )
        yield f"last row again at {head}", (
            before + [(head, count, claim), (rows[-1], 1, claim)] + after
        )
        if not head or head[-1] + count == outer[-1].stop:
            yield f"overrun at {head}", before + [(head, count + 1, claim)] + after
            if after:
                yield f"prefix crossed at {head}", (
                    before + [(head, count + after[0][1], claim)] + after[1:]
                )
        else:
            # the next run starts the next row of this prefix
            next_head, next_count, next_claim = after[0]
            claimed = range(claim[1], claim[3] + 1) if len(claim) == 4 else ()
            if list(claimed) != [
                x for x in last if polyhedron.contains_point(next_head + (x,))
            ]:
                extended = before + [(head, count + 1, claim)]
                if next_count > 1:
                    after_next = next_head[:-1] + (next_head[-1] + 1,)
                    extended.append((after_next, next_count - 1, next_claim))
                yield f"extended past a change at {head}", extended + after[1:]
    yield "run after the last at end", runs + runs[-1:]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(polyhedra_in_windows())
# unbounded and fractional polyhedra too: the window alone makes them finite
@example((LatticePolyhedron(2, [((-1, 0), 0), ((0, -1), 0), ((1, 1), 2)]),
          [range(-3, 4), range(-2, 5)]))
@example((LatticePolyhedron(2, [((1, 2), Fraction(7, 2)), ((-3, 1), 2)]),
          [range(-3, 4), range(-2, 5)]))
@example((LatticePolyhedron(2, [((1, 0), 1), ((-1, 0), -1)]),
          [range(-3, 4), range(-2, 5)]))
@example((LatticePolyhedron(3, [((1, 1, 1), 2), ((0, -1, 2), Fraction(1, 3))]),
          [range(-3, 4), range(-2, 5), range(-4, 3)]))
def test_scan_agrees_with_brute_force_and_passes_the_check(case):
    polyhedron, window = case
    *outer, last = window
    low, high = last.start, last.stop - 1
    steps = steps_of(polyhedron, window)
    assert steps is not None
    assert [
        head + (x,)
        for heads, first, final in steps
        for head in heads
        for x in range(first, final + 1)
    ] == [
        point for point in product(*window) if polyhedron.contains_point(point)
    ]
    runs = list(polyhedron._rows(outer, low, high))
    assert [
        row for head, count, _ in runs for row in run_rows(head, count)
    ] == list(product(*outer))
    # every row of a run has the certificate a scan of that row alone
    # finds, and a run ends where the certificate changes
    for head, count, claim in runs:
        assert count >= 1
        for row in run_rows(head, count):
            alone = [range(y, y + 1) for y in row]
            assert list(polyhedron._rows(alone, low, high)) == [(row, 1, claim)]
    for (head, _, claim), (next_head, _, next_claim) in zip(runs, runs[1:]):
        assert next_head[:-1] != head[:-1] or next_claim != claim


@settings(derandomize=True, deadline=None, max_examples=150)
@given(polyhedra_in_windows())
def test_check_refuses_every_single_tampering(case):
    polyhedron, window = case
    *outer, last = window
    rows = list(polyhedron._rows(outer, last.start, last.stop - 1))
    assert steps_of(polyhedron, window, rows) is not None
    accepted = [
        label
        for label, bad_rows in tamperings(polyhedron, rows, window)
        if steps_of(polyhedron, window, bad_rows) is not None
    ]
    assert accepted == []


def test_check_refuses_every_tiling_fault_on_long_runs():
    # 0 <= z <= 2 where y <= 1 and x <= 0: each prefix x <= 0 has a run of
    # full rows and a run of empty ones (y <= 1 fails), and x = 1 two runs
    # of empty rows, as the first inequality that fails there is x <= 0 or
    # y <= 1; so every kind of tiling fault occurs, a run extended past a
    # certificate change included
    polyhedron = LatticePolyhedron(3, [
        ((0, 0, 1), 2), ((0, 0, -1), 0), ((0, 1, 0), 1), ((1, 0, 0), 0),
    ])
    window = [range(-1, 2), range(-2, 4), range(-1, 4)]
    *outer, last = window
    runs = list(polyhedron._rows(outer, last.start, last.stop - 1))
    assert [(head, count) for head, count, _ in runs] == [
        ((-1, -2), 4), ((-1, 2), 2), ((0, -2), 4), ((0, 2), 2), ((1, -2), 4),
        ((1, 2), 2),
    ]
    assert steps_of(polyhedron, window, runs) is not None
    faults = list(tiling_faults(polyhedron, runs, window))
    assert {label.split(" at ")[0] for label, _ in faults} == {
        "count 0", "count -1", "empty run first", "gap", "named a row late",
        "named a row early", "first row skipped",
        "last row again", "overrun", "prefix crossed",
        "extended past a change", "run after the last",
    }
    assert [
        label for label, bad_runs in faults
        if steps_of(polyhedron, window, bad_runs) is not None
    ] == []


def index_forgeries(polyhedron, rows):
    """(label, runs) with one inequality index of one run's certificate
    replaced by one that names no inequality: -1, len(inequalities), and the
    honest index minus len(inequalities), which list indexing would wrap
    back onto the honest inequality."""
    count = len(polyhedron.inequalities)
    for at, (head, rows_in_run, claim) in enumerate(rows):
        for position in (0,) if len(claim) == 1 else (0, 2):
            honest = claim[position]
            forged = {-1, count}
            if honest is not None:
                forged.add(honest - count)
            for index in sorted(forged):
                new = claim[:position] + (index,) + claim[position + 1:]
                yield (
                    f"{head}: index {position} of {claim} is {index}",
                    rows[:at] + [(head, rows_in_run, new)] + rows[at + 1:],
                )


@settings(derandomize=True, deadline=None, max_examples=150)
@given(polyhedra_in_windows())
def test_check_refuses_indices_that_name_no_inequality(case):
    polyhedron, window = case
    *outer, last = window
    low, high = last.start, last.stop - 1
    rows = list(polyhedron._rows(outer, low, high))
    for label, bad_rows in index_forgeries(polyhedron, rows):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(LatticePolyhedron, "_rows", lambda *_: iter(bad_rows))
            with pytest.raises(
                SelfCheckError, match="disagrees with its inequalities"
            ):
                list(polyhedron._certified_rows(outer, low, high))
                pytest.fail(f"accepted {label}")


@pytest.mark.parametrize("name", ["skew.json", "product_k1.json"])
@pytest.mark.parametrize("position", [0, 2])
@pytest.mark.parametrize("index", ["-1", "len", "wrapped"])
def test_self_check_refuses_indices_that_name_no_inequality(
    monkeypatch, name, position, index
):
    # one run's certificate of the self-check's windowed rows names an
    # index past either end of the inequalities; "wrapped" is the honest
    # index minus their number, which a list lookup would wrap onto the
    # honest inequality.  lattice_points scans with an open last
    # coordinate, so the collapsed character stays right
    real = LatticePolyhedron._rows
    forged = []

    def rows(self, outer, low, high):
        count = len(self.inequalities)
        for head, rows_in_run, claim in real(self, outer, low, high):
            honest = claim[position] if len(claim) == 4 else None
            if not forged and low != -inf and honest is not None:
                new = {"-1": -1, "len": count, "wrapped": honest - count}
                claim = claim[:position] + (new[index],) + claim[position + 1:]
                forged.append(claim)
            yield head, rows_in_run, claim

    monkeypatch.setattr(LatticePolyhedron, "_rows", rows)
    with pytest.raises(SelfCheckError, match="disagrees with its inequalities"):
        quantize_b(load_description(corpus_path(name)))
    assert len(forged) == 1
