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
piece otherwise.  The final character is re-checked against the formal
character on a window twice the size of its support.  Every check reads
rows only as LatticePolyhedron._certified_rows hands them on, certified
run by run: _box_rows folds a box's rows into runs of the formal count,
_first_difference (in rank 0, _point_mismatch) names the least weight
where a character parts from them, and facet_weights reads a support's
rows once for its facet-boundary weights.
"""

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
from math import ceil, floor
from operator import itemgetter, mul

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
    sum over w of chi(w) * P(-w): chi summed over the weights of the
    reflected partner -P, read off its certified runs of rows
    (LatticePolyhedron._certified_rows) without forming the tensor;
    `invariant_from_geometry` sums the reduced-space counts over the same
    weights, read off the components' certified runs of rows, never
    forming a character.
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
# lattice enumeration


def _accumulate(table, points, coefficient):
    for point in points:
        total = table.get(point, 0) + coefficient
        if total:
            table[point] = total
        else:
            del table[point]


# ----------------------------------------------------------------------
# compact case


def quantize_compact_toric(space):
    """Character of a compact toric space: each lattice point of the moment
    polytope contributes one weight with multiplicity 1."""
    if not isinstance(space, CompactToricSpace):
        raise TypeError("expected a CompactToricSpace")
    require_validated(space)
    points = space.polytope.lattice_points()
    return VirtualCharacter._from_table(space.rank, dict.fromkeys(points, 1))


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

    The result is then re-checked against the formal character on a
    window twice the size of its support (SelfCheckError otherwise).  The
    re-check reads the formal count off every term's certified runs of
    rows and lists no points; see _self_check.
    """
    matching = tail_matching(description)
    terms = _terms(description)
    ends_at = {}
    for end in matching:
        ends_at.setdefault(end.plus_component, []).append(end)
        ends_at.setdefault(end.minus_component, []).append(end)

    # assemble the surviving bounded pieces in a fixed order
    pieces = []
    coefficients = []
    for index, (sign, polyhedron) in enumerate(terms):
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
        pieces.append(core)
        coefficients.append(sign)
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
                pieces.append(overlap)
                coefficients.append(sign * (-1) ** (size + 1))

    table = {}
    for coefficient, piece in zip(coefficients, pieces):
        _accumulate(table, piece.lattice_points(), coefficient)
    character = VirtualCharacter._from_table(description.rank, table)

    if self_check:
        _self_check(terms, character, _verification_box(character, pieces))
    return character


def _self_check(terms, character, window):
    """Raise SelfCheckError unless `character` equals the signed count of
    the (sign, polyhedron) `terms` at every point of `window` (one range
    per coordinate) and has no weight outside it.

    The formal count is never listed point by point: _box_rows reads it
    off every term's certified runs of rows
    (LatticePolyhedron._certified_rows), and _first_difference matches the
    count's runs along each row against the character's sorted entries a
    run at a time.  The collapse's points are certified where they are
    listed, so this tests the collapse's pieces and signs, and
    validation's cancellation, against the formal count.  In rank 0 the
    window is empty and _point_mismatch tests the one weight.
    """
    mismatch = (
        _first_difference(_box_rows(terms, window), character.items())
        if window else _point_mismatch(terms, character)
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


def _box_rows(terms, box):
    """(head, runs) for each row of `box` (one range per coordinate, rank
    at least 1) where the signed count of the (sign, polyhedron) `terms`
    is not zero, in order: each term's sign jumps in at the first weight of
    its certified interval on a row (LatticePolyhedron._certified_rows) and
    out just past the last, and _runs cuts the jumps into runs."""
    *outer, last = box
    steps = {}
    for sign, polyhedron in terms:
        for heads, first, final in polyhedron._certified_rows(
            outer, last.start, last.stop - 1
        ):
            for head in heads:
                jumps = steps.setdefault(head, {})
                jumps[first] = jumps.get(first, 0) + sign
                jumps[final + 1] = jumps.get(final + 1, 0) - sign
    rows = []
    for head in sorted(steps):
        runs = _runs(steps[head], last.start, last.stop)
        if runs:
            rows.append((head, runs))
    return rows


def _runs(jumps, start, stop):
    """(a, b, value) for each stretch a..b-1 of start..stop-1 on which the
    step function with `jumps` is a nonzero constant `value`, in order."""
    runs = []
    value = previous = 0
    for x in sorted(jumps):
        if value:
            a, b = max(previous, start), min(x, stop)
            if a < b:
                runs.append((a, b, value))
        value += jumps[x]
        previous = x
    return runs


def _first_difference(rows, items):
    """(weight, value in `items`, value of `rows`) at the least weight where
    the sorted (weight, nonzero value) `items` and (head, runs) rows in
    _box_rows's form differ; None where they agree.  Between a run's first
    and last weight the sorted entries can hold no other weight, so two
    lookups and a count check a whole run; only a failure is named weight
    by weight."""
    weights = list(map(itemgetter(0), items))
    values = list(map(itemgetter(1), items))
    at = 0
    for head, a, b, value in (
        (head, *run) for head, runs in rows for run in runs
    ):
        end = at + b - a
        if (end > len(weights) or weights[at] != head + (a,)
                or weights[end - 1] != head + (b - 1,)
                or values[at:end].count(value) != b - a):
            break
        at = end
    else:
        if at == len(weights):
            return None
    found = dict(items)
    expected = {
        head + (x,): value
        for head, runs in rows
        for a, b, value in runs
        for x in range(a, b)
    }
    weight = min(
        weight for weight in found.keys() | expected.keys()
        if found.get(weight, 0) != expected.get(weight, 0)
    )
    return weight, found.get(weight, 0), expected.get(weight, 0)


def _verification_box(character, pieces):
    """Lattice window for the self-check, one range per coordinate:
    the character support widened by its own extent (plus margin), falling
    back to the extent of the collapsed pieces' exact boxes (`_box`, which
    the collapse's boundedness tests have cached; for a bounded nonempty
    piece, its vertices' extent), falling back to a box around the origin."""
    support = character.support()
    if support:
        extents = [(min(values), max(values)) for values in zip(*support)]
    else:
        extents = [
            (min(p // q for (p, q), _ in ends),
             max(-(-p // q) for _, (p, q) in ends))
            for ends in zip(*filter(None, (piece._box() for piece in pieces)))
        ]
    if not extents:
        return [range(-2, 3)] * character.rank
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
    chi(w) * P(-w), that is, of chi's entries at the weights of -P, found
    on each row by bisection.  Route two never forms the first character:
    it counts reduced-space points of `description` directly on the same
    weights.  The components' certified runs of rows (_box_rows, as in the
    self-check) give the signed count on each row as runs, which are
    clipped to -P's interval on that row, summed, and compared once with
    chi's entries inside -P (_first_difference) to pin down the first
    disagreement, if any.  Rank 0 has the one weight (): route one reads
    chi(()) and route two counts the components that contain it, once.

    `character` substitutes a precomputed character for `description`
    (route one and the row comparison then test that value), so a stale or
    corrupted cache is caught rather than silently trusted.  A character
    of another rank raises DimensionMismatchError.
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
    if character is None:
        character = quantize_description(description)
    else:
        _check_rank(description, character)

    terms = _terms(description)
    reflected = partner.polytope.reflect_through_origin()
    if not reflected.rank:
        found = invariant_from_characters = character.multiplicity(())
        expected = invariant_from_geometry = (
            reduced_space_quantization(description, ()).count)
        checked = 1
        first_mismatch = None if found == expected else ((), found, expected)
    else:
        # the reflected box is the partner's, negated
        box = [
            range(1 - values.stop, 1 - values.start)
            for values in partner.polytope._vertex_box()
        ]
        runs_at = dict(_box_rows(terms, box))
        *outer, last = box
        weights, items = character.support(), character.items()
        rows, inside, checked = [], [], 0
        for heads, first, final in reflected._certified_rows(
            outer, last.start, last.stop - 1
        ):
            checked += (final + 1 - first) * len(heads)
            for head in heads:
                start = bisect_left(weights, head + (first,))
                end = bisect_left(weights, head + (final + 1,), start)
                inside += items[start:end]
                rows.append((head, [
                    (max(a, first), min(b, final + 1), value)
                    for a, b, value in runs_at.get(head, ())
                    if a <= final and b > first
                ]))
        invariant_from_characters = sum(map(itemgetter(1), inside))
        invariant_from_geometry = sum(
            value * (b - a) for _, runs in rows for a, b, value in runs
        )
        first_mismatch = _first_difference(rows, inside)
    return QRReport(
        invariant_from_characters=invariant_from_characters,
        invariant_from_geometry=invariant_from_geometry,
        checked_weights=checked,
        first_mismatch=first_mismatch,
    )
