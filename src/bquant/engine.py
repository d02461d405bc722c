"""Quantization engines.

Compact case: the character is the lattice-point indicator of the moment
polytope.

Singular case: the description's formal character is the signed sum of the
component indicators, an infinite object.  Each hypersurface contributes two
truncated tails of opposite sign which agree as sets beyond an integer
threshold, so they cancel exactly; what survives is the signed sum of the
bounded cores plus bounded inclusion-exclusion corrections where tails of
distinct hypersurfaces overlap inside one component.  Validation certifies
the cancellation and hands over the tail ends; the collapse certifies that
every surviving piece is bounded, raising NotFiniteError with the offending
piece otherwise.

Characters stay in runs of rows from the collapse to their last reader:
(head, [(a, b, value), ...]) for each row, the value holding at
head + (x,) for a <= x < b.  _box_rows sums signed polyhedra into that
form off their certified runs of rows (LatticePolyhedron._certified_rows),
so the collapse, the self-check and verify-qr's second route all read
rows only as that reader hands them on.  The collapse is re-checked
against the formal character, run for run, on a window twice the size of
its support; _first_difference names the least weight where two run
lists part, and facet_weights reads a support's rows once for its
facet-boundary weights.  _character_rows is the one place a description
becomes its character in runs, and _character the one place it becomes a
VirtualCharacter, listed once, in order (VirtualCharacter._from_rows);
verify-qr compares runs with runs and lists no weight.
"""

from dataclasses import dataclass
from itertools import combinations
from math import ceil, floor, inf
from operator import mul

from . import _linalg
from .characters import VirtualCharacter, _as_weight
from .errors import (
    DescriptionKindError,
    DimensionMismatchError,
    NotFiniteError,
    NoVerticesError,
    SelfCheckError,
    ZeroModularWeightError,
)
from .spaces import (
    BSpaceDescription,
    CompactToricSpace,
    LocalModel,
    TailEnd,
    require_validated,
)

__all__ = [
    "TailEnd",
    "ReducedSpaceResult",
    "QRReport",
    "tail_matching",
    "collapse_signed_tails",
    "quantize_compact_toric",
    "quantize_b",
    "quantize_description",
    "quantize_local_model",
    "reduced_space_quantization",
    "facet_weights",
    "verify_qr_product",
]


@dataclass(frozen=True)
class ReducedSpaceResult:
    """Signed point count of the reduced space at one weight."""

    weight: tuple
    count: int
    contributions: tuple  # per component, sign if the weight lies inside else 0


@dataclass(frozen=True)
class QRReport:
    """Two-route comparison of quantization and reduction on a product.

    `invariant_from_characters` is the invariant part of chi (x) P, the
    sum over w of chi(w) * P(-w): chi's runs of rows summed over the
    weights of the reflected partner -P, read off its certified runs of
    rows (LatticePolyhedron._certified_rows) without forming the tensor
    or listing a weight; `invariant_from_geometry` sums the reduced-space
    counts over the same weights, read off the components' certified runs
    of rows, never forming a character.
    `checked_weights` is the number of those weights.  `first_mismatch`,
    when not None, is (weight, character multiplicity, reduced-space count)
    at the lexicographically first of them where the routes disagree.
    """

    invariant_from_characters: int
    invariant_from_geometry: int
    checked_weights: int
    first_mismatch: tuple = None

    @property
    def matches(self):
        return (
            self.first_mismatch is None
            and self.invariant_from_characters == self.invariant_from_geometry
        )

    def payload(self):
        mismatch = None
        if self.first_mismatch is not None:
            weight, from_character, from_geometry = self.first_mismatch
            mismatch = {
                "weight": list(weight),
                "from_characters": from_character,
                "from_geometry": from_geometry,
            }
        return {
            "matches": self.matches,
            "invariant_from_characters": self.invariant_from_characters,
            "invariant_from_geometry": self.invariant_from_geometry,
            "checked_weights": self.checked_weights,
            "first_mismatch": mismatch,
        }


# ----------------------------------------------------------------------
# formal terms and tail matching


def _terms(description):
    """The formal character's (sign, polyhedron) terms, the components
    (compact: the polytope, with sign 1)."""
    if isinstance(description, CompactToricSpace):
        return ((1, description.polytope),)
    return description.components


def tail_matching(description):
    """One TailEnd per hypersurface, as validation certified it: the
    orientation and tail-product rows prove that the two tails of each end
    are set-equal beyond its threshold with opposite signs.  A description
    that fails validation raises NotValidatedError."""
    if not isinstance(description, BSpaceDescription):
        raise TypeError("tail matching applies to b_toric descriptions only")
    return require_validated(description).tails


# ----------------------------------------------------------------------
# runs of rows


def _box_rows(terms, box):
    """(head, runs) for each row of `box` where the signed count of the
    (sign, polyhedron) `terms` is not zero, in _step_rows's form.  `box`
    has one range per coordinate (rank at least 1); its last may be None
    when every term is bounded, and the terms' own inequalities then end
    each row.  Each term's sign holds on its certified interval of a row
    (LatticePolyhedron._certified_rows)."""
    *outer, last = box
    low, high = (-inf, inf) if last is None else (last.start, last.stop - 1)
    return _step_rows((
        (head, first, final, sign)
        for sign, polyhedron in terms
        for heads, first, final in polyhedron._certified_rows(
            outer, low, high
        )
        for head in heads
    ), low, high + 1)


def _step_rows(intervals, start=-inf, stop=inf):
    """(head, runs) for each row where the sum of the (head, first, final,
    value) `intervals`, each `value` on head + (x,) for first <= x <=
    final, is not zero, in order, with the runs of start..stop-1 _runs
    gives: value jumps in at first and out just past final."""
    steps = {}
    for head, first, final, value in intervals:
        jumps = steps.setdefault(head, {})
        jumps[first] = jumps.get(first, 0) + value
        jumps[final + 1] = jumps.get(final + 1, 0) - value
    rows = []
    for head in sorted(steps):
        runs = _runs(steps[head], start, stop)
        if runs:
            rows.append((head, runs))
    return rows


def _runs(jumps, start, stop):
    """(a, b, value) for each longest stretch a..b-1 of start..stop-1 on
    which the step function with `jumps` is a nonzero constant `value`, in
    order.  Jumps that sum to zero at a point are no jump, so adjacent runs
    differ in value and one step function has one list of runs."""
    runs = []
    value = previous = 0
    for x in sorted(jumps):
        step = jumps[x]
        if not step:
            continue
        if value:
            a, b = max(previous, start), min(x, stop)
            if a < b:
                runs.append((a, b, value))
        value += step
        previous = x
    return runs


def _hull_rows(terms):
    """_box_rows of the bounded (sign, polyhedron) `terms` (rank at least
    1) over the hull of their nonempty members' `_vertex_box()`, each row
    ended by the terms' own inequalities."""
    live = [term for term in terms if term[1]._box() is not None]
    if not live:
        return []
    boxes = [polyhedron._vertex_box() for _, polyhedron in live]
    hull = [
        range(min(r.start for r in ranges), max(r.stop for r in ranges))
        for ranges in zip(*boxes)
    ]
    return _box_rows(live, hull[:-1] + [None])


def _character_runs(character):
    """The entries of `character` (rank at least 1) as (head, runs) rows in
    _step_rows's form."""
    return _step_rows(
        (weight[:-1], weight[-1], weight[-1], value)
        for weight, value in character.items()
    )


def _first_difference(found, expected):
    """(weight, value in `found`, value in `expected`) at the least weight
    where two lists of (head, runs) rows in _step_rows's form differ; None
    where they agree.  Equal lists and equal rows are passed over whole.
    On a row that differs both sides are constant between consecutive run
    ends of either, so the least differing weight is at one of those ends,
    and only they are read: no weight is listed."""
    if found == expected:
        return None
    found_at, expected_at = dict(found), dict(expected)
    for head in sorted(found_at.keys() | expected_at.keys()):
        mine, theirs = found_at.get(head, []), expected_at.get(head, [])
        if mine == theirs:
            continue
        for x in sorted({end for a, b, _ in mine + theirs for end in (a, b)}):
            here, there = (
                next((value for a, b, value in runs if a <= x < b), 0)
                for runs in (mine, theirs)
            )
            if here != there:
                return head + (x,), here, there
    return None


# ----------------------------------------------------------------------
# compact case


def quantize_compact_toric(space):
    """Character of a compact toric space: each lattice point of the moment
    polytope contributes one weight with multiplicity 1, listed once from
    the polytope's certified runs of rows (_character)."""
    if not isinstance(space, CompactToricSpace):
        raise TypeError("expected a CompactToricSpace")
    return _character(space)


# ----------------------------------------------------------------------
# singular case


def collapse_signed_tails(description, self_check=True):
    """Cancel the matched opposite tails of a singular description exactly.

    Validation's orientation and tail-product rows certify that the two
    tails of each end (:func:`tail_matching`) are set-equal with opposite
    signs, so they cancel without enumeration.  Each term's cuts at its ends
    leave a core, and overlaps of tails from distinct ends are restored by
    inclusion-exclusion; the collapse certifies that every core and overlap
    is bounded (NotFiniteError with the term and direction otherwise).

    The signed sum of these pieces is kept in runs of rows
    (_character_rows) and re-checked against the formal character run for
    run on a window twice the size of its support (_self_check,
    SelfCheckError otherwise).  Only then are its weights listed, once, in
    order (_character, which raises EnumerationBudgetError over the
    budget).
    """
    if not isinstance(description, BSpaceDescription):
        raise TypeError("expected a BSpaceDescription")
    return _character(description, self_check)


def _pieces(description):
    """The bounded (coefficient, piece) pairs whose signed sum is the
    character of a compact or singular description, in a fixed order: a
    compact description's polytope with coefficient 1; a singular one's
    collapse, each term's core with the term's sign, then the
    inclusion-exclusion overlaps of its tails.  Raises NotValidatedError
    when the description fails validation, and NotFiniteError when a core
    or an overlap is unbounded."""
    if isinstance(description, CompactToricSpace):
        require_validated(description)
        return list(_terms(description))
    matching = tail_matching(description)
    ends_at = {}
    for end in matching:
        ends_at.setdefault(end.plus_component, []).append(end)
        ends_at.setdefault(end.minus_component, []).append(end)
    pieces = []
    for index, (sign, polyhedron) in enumerate(_terms(description)):
        ends = ends_at.get(index, [])
        core = polyhedron
        for end in ends:
            # keep <cut_normal, x> >= -threshold + 1; exact on lattice points
            core = core.with_inequality(
                tuple(-x for x in end.cut_normal), end.threshold - 1
            )
        if not core.is_bounded():
            ray = core.recession_rays()[0]
            raise NotFiniteError(
                f"term {index} keeps unbounded direction "
                f"{_linalg.exact_text(ray)} after every "
                "matched tail is cut off; no hypersurface end claims it",
                witness=(("term", index), ray),
            )
        pieces.append((sign, core))
        for size in range(2, len(ends) + 1):
            for subset in combinations(ends, size):
                overlap = polyhedron
                for end in subset:
                    overlap = overlap.with_inequality(
                        end.cut_normal, -end.threshold
                    )
                if overlap.is_empty():
                    continue
                if not overlap.is_bounded():
                    ray = overlap.recession_rays()[0]
                    labels = tuple(end.hypersurface for end in subset)
                    raise NotFiniteError(
                        f"tails of hypersurfaces {labels} overlap in term "
                        f"{index} along unbounded direction "
                        f"{_linalg.exact_text(ray)}",
                        witness=(("term", index) + labels, ray),
                    )
                pieces.append((sign * (-1) ** (size + 1), overlap))
    return pieces


def _character_rows(description, self_check=True):
    """The character of a compact or singular description of rank at
    least 1 in _step_rows's form, listing no weight: its pieces (_pieces)
    summed over their hull (_hull_rows).  With `self_check`, a singular
    description's runs are compared with the formal count's (_self_check)
    before they are handed on; a compact one's one piece is its polytope."""
    pieces = _pieces(description)
    rows = _hull_rows(pieces)
    if self_check and isinstance(description, BSpaceDescription):
        _self_check(
            _terms(description), rows,
            _verification_box(rows, pieces, description.rank),
        )
    return rows


def _character(description, self_check=True):
    """The character of a compact or singular description as a
    VirtualCharacter: _character_rows, its weights listed once
    (VirtualCharacter._from_rows).  Rank 0 has no rows: the one weight ()
    carries the coefficients of the nonempty pieces, re-checked with
    `self_check` like the runs (_self_check)."""
    if description.rank:
        return VirtualCharacter._from_rows(
            description.rank, _character_rows(description, self_check)
        )
    character = VirtualCharacter(0, {(): sum(
        coefficient for coefficient, piece in _pieces(description)
        if not piece.is_empty()
    )})
    if self_check:
        _self_check(_terms(description), character, [])
    return character


def _self_check(terms, found, window):
    """Raise SelfCheckError unless the collapse's runs of rows `found`
    equal the signed count of the (sign, polyhedron) `terms` at every
    point of `window` (one range per coordinate) and hold no weight
    outside it.

    The formal count is never listed point by point: _box_rows reads it
    off every term's certified runs of rows
    (LatticePolyhedron._certified_rows), and _first_difference compares
    its runs with the collapse's, run for run; only a mismatch is named,
    at the least weight where the two differ.  This tests the collapse's
    pieces and signs, and validation's cancellation, against the formal
    count.  In rank 0 the window is empty, `found` is the character, and
    _point_mismatch tests its one weight.
    """
    mismatch = (
        _first_difference(found, _box_rows(terms, window))
        if window else _point_mismatch(terms, found)
    )
    if mismatch is not None:
        weight, found, expected = mismatch
        raise SelfCheckError(
            f"collapsed character gives {found} at weight "
            f"{_linalg.exact_text(weight)} but the "
            f"formal signed count is {expected}"
        )


def _point_mismatch(terms, character):
    """Rank 0: ((), multiplicity in `character`, signed number of the
    (sign, polyhedron) `terms` that contain ()) when the two differ, else
    None."""
    found = character.multiplicity(())
    expected = sum(sign for sign, term in terms if term.contains_point(()))
    return None if found == expected else ((), found, expected)


def _verification_box(rows, pieces, rank):
    """Lattice window for the self-check, one range per coordinate: the
    extent of the collapse's support, read off the heads and run ends of
    its `rows`, widened by half its size (plus margin) on each side;
    falling back to the extent of the (coefficient, piece) `pieces`' exact
    boxes (`_box`, which the collapse's boundedness tests have cached; for
    a bounded nonempty piece, its vertices' extent), falling back to a box
    around the origin."""
    if rows:
        extents = [
            (min(values), max(values))
            for values in zip(*(head for head, _ in rows))
        ]
        extents.append((
            min(runs[0][0] for _, runs in rows),
            max(runs[-1][1] for _, runs in rows) - 1,
        ))
    else:
        extents = [
            (min(p // q for (p, q), _ in ends),
             max(-(-p // q) for _, (p, q) in ends))
            for ends in zip(*filter(None, (
                piece._box() for _, piece in pieces
            )))
        ]
    if not extents:
        return [range(-2, 3)] * rank
    return [
        range(low - (high - low) // 2 - 1, high + (high - low) // 2 + 2)
        for low, high in extents
    ]


def quantize_b(description):
    """Finite character of a validated singular description.

    Validation certifies that the tails at each hypersurface are set-equal
    with opposite signs, the collapse that the cores and overlaps left are
    bounded, and the self-check (_self_check) re-checks the result.

    Raises ZeroModularWeightError before validation when every modular
    weight vanishes: that is the other branch of the modular-weight
    dichotomy, where this engine does not apply.
    """
    if not isinstance(description, BSpaceDescription):
        raise TypeError("expected a BSpaceDescription")
    records = description.hypersurfaces
    if records and all(not any(r.modular_weight) for r in records):
        raise ZeroModularWeightError(
            "every modular weight vanishes; by the modular-weight dichotomy "
            "this description is not of singular type and has no tails to "
            "cancel"
        )
    return collapse_signed_tails(description)


def quantize_description(description, threads=1):
    """Character of a compact or singular description.  `threads` is
    accepted and ignored: enumeration is one sequential pass."""
    if isinstance(description, CompactToricSpace):
        return quantize_compact_toric(description)
    if isinstance(description, BSpaceDescription):
        return quantize_b(description)
    raise TypeError(
        f"cannot quantize {type(description).__name__}; expected "
        "CompactToricSpace or BSpaceDescription"
    )


def quantize_local_model(model):
    """Character of a two-tail local model; the certified answer is zero.

    The two tails must agree as sets and carry opposite signs; anything else
    leaves an unbounded remainder and raises NotFiniteError.  The signed
    count is additionally re-checked on a box around the truncation face,
    from the tails' certified runs of rows (_box_rows), so a long tail
    costs its runs and rows, not its points.
    """
    if not isinstance(model, LocalModel):
        raise TypeError("expected a LocalModel")
    (sign_a, tail_a), (sign_b, tail_b) = model.tails
    if sign_a + sign_b != 0:
        raise NotFiniteError(
            "local model tails carry equal signs; their contributions "
            "reinforce instead of cancelling",
            witness=("hypersurface", model.hypersurface),
        )
    if not tail_a.set_equals(tail_b):
        raise NotFiniteError(
            "local model tails differ as sets, leaving an uncancelled "
            "unbounded remainder",
            witness=("hypersurface", model.hypersurface),
        )
    corners = ()
    if not tail_a.is_empty():
        try:
            corners = tail_a.vertices()
        except NoVerticesError:
            corners = ()
    if corners and tail_a.rank > 0:
        rows = _box_rows(model.tails, [
            range(floor(min(values)) - 1, ceil(max(values)) + 2)
            for values in zip(*corners)
        ])
        if rows:
            head, ((start, _, total), *_) = rows[0]
            raise SelfCheckError(
                f"local model tails fail to cancel at lattice point "
                f"{_linalg.exact_text(head + (start,))} (signed count {total})"
            )
    return VirtualCharacter.zero(tail_a.rank)


# ----------------------------------------------------------------------
# reduction and the product verifier


def reduced_space_quantization(description, weight):
    """Quantization of the reduced space at one weight, counted directly."""
    require_validated(description)
    weight = _as_weight(weight, description.rank)
    contributions = tuple(
        sign * int(polyhedron.contains_point(weight))
        for sign, polyhedron in _terms(description)
    )
    return ReducedSpaceResult(
        weight=weight, count=sum(contributions), contributions=contributions
    )


def _check_rank(description, character):
    """DimensionMismatchError unless `character` has `description`'s rank."""
    if character.rank != description.rank:
        raise DimensionMismatchError(
            f"rank {character.rank} character checked against rank "
            f"{description.rank} description"
        )


def facet_weights(description, character):
    """The support weights of `character` on a facet hyperplane of a
    component containing them, in order, from one read of every
    component's certified rows over the support's box: only these are
    sensitive to the closed-boundary convention.  On a row, an inequality
    <normal, x> * q <= p of last-coordinate slope 0 is tight on the whole
    interval or nowhere; any other at most at the one x where slope * x
    equals the room the leading coordinates leave.  In rank 0 no weight is
    on a facet (a normal is nonzero).  Raises EnumerationBudgetError when
    the box has more rows than the budget.
    """
    require_validated(description)
    _check_rank(description, character)
    support = character.support()
    if not support or not character.rank:
        return ()
    *outer, last = [
        range(min(values), max(values) + 1) for values in zip(*support)
    ]
    heads = {weight[:-1] for weight in support}
    spans, points = {}, set()  # tight: whole intervals; weights
    for _, polyhedron in _terms(description):
        tests = polyhedron.integer_inequalities
        for run, first, final in polyhedron._certified_rows(
            outer, last.start, last.stop - 1
        ):
            for head in heads.intersection(run):
                for normal, p, q in tests:
                    room = p - q * sum(map(mul, normal, head))
                    slope = normal[-1] * q
                    if not slope:
                        if not room:
                            spans.setdefault(head, []).append((first, final))
                    elif not room % slope and \
                            first <= (x := room // slope) <= final:
                        points.add(head + (x,))
    return tuple(
        weight for weight in support
        if weight in points
        or any(a <= weight[-1] <= b for a, b in spans.get(weight[:-1], ()))
    )


def verify_qr_product(description, partner, character=None):
    """Check that quantization commutes with reduction against a compact
    partner space.

    Both routes run over the weights of the reflected partner polytope
    -P, read off its certified runs of rows
    (LatticePolyhedron._certified_rows); P's points are never listed.
    Route one is the invariant part of chi (x) P, where chi is the
    character of `description` and P that of `partner`: the sum over w of
    chi(w) * P(-w), that is, chi's runs of rows clipped to -P's interval
    on each row and summed.  With no `character` given, chi's runs come
    straight from the engine (_character_rows: the self-checked collapse,
    or the polytope's certified rows) and no character is listed.  Route two
    never forms the first character: it counts reduced-space points of
    `description` directly on the same weights, from the components'
    certified runs of rows (_box_rows, as in the self-check), clipped to
    -P in the same way.  The two clipped run lists are compared run for
    run (_first_difference) to pin down the first disagreement, if any.
    Rank 0 has the one weight (): route one reads chi(()) and route two
    counts the components that contain it, once.

    `character` substitutes a precomputed character for `description`
    (route one and the comparison then test that value, grouped into runs
    of rows first), so a stale or corrupted cache is caught rather than
    silently trusted.  A character of another rank raises
    DimensionMismatchError.
    """
    if not isinstance(partner, CompactToricSpace):
        raise DescriptionKindError(
            "the partner space must be a CompactToricSpace"
        )
    if description.rank != partner.rank:
        raise DimensionMismatchError(
            f"rank {description.rank} space paired with rank {partner.rank}"
        )
    require_validated(description)
    require_validated(partner)
    if character is not None:
        _check_rank(description, character)
    elif not description.rank:
        character = _character(description)

    terms = _terms(description)
    reflected = partner.polytope.reflect_through_origin()
    if not reflected.rank:
        found = invariant_from_characters = character.multiplicity(())
        expected = invariant_from_geometry = (
            reduced_space_quantization(description, ()).count)
        checked = 1
        first_mismatch = None if found == expected else ((), found, expected)
    else:
        runs_of_chi = dict(
            _character_rows(description) if character is None
            else _character_runs(character)
        )
        # the reflected box is the partner's, negated
        box = [
            range(1 - values.stop, 1 - values.start)
            for values in partner.polytope._vertex_box()
        ]
        runs_at = dict(_box_rows(terms, box))
        *outer, last = box
        found, expected, checked = [], [], 0
        for heads, first, final in reflected._certified_rows(
            outer, last.start, last.stop - 1
        ):
            checked += (final + 1 - first) * len(heads)
            for head in heads:
                for rows, source in (
                    (found, runs_of_chi), (expected, runs_at)
                ):
                    rows.append((head, [
                        (max(a, first), min(b, final + 1), value)
                        for a, b, value in source.get(head, ())
                        if a <= final and b > first
                    ]))
        invariant_from_characters, invariant_from_geometry = (
            sum(value * (b - a) for _, runs in rows for a, b, value in runs)
            for rows in (found, expected)
        )
        first_mismatch = _first_difference(found, expected)
    return QRReport(
        invariant_from_characters=invariant_from_characters,
        invariant_from_geometry=invariant_from_geometry,
        checked_weights=checked,
        first_mismatch=first_mismatch,
    )
