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
piece otherwise.  The final character is re-checked pointwise against the
formal character on a window twice the size of its support.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product as iter_product, repeat
from math import ceil, floor

from . import _linalg
from .characters import PolyhedralCharacter, VirtualCharacter
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
    "formal_character",
    "tail_matching",
    "collapse_signed_tails",
    "quantize_compact_toric",
    "quantize_b",
    "quantize_description",
    "quantize_local_model",
    "reduced_space_quantization",
    "pointwise_multiplicity",
    "facet_boundary_weights",
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

    `invariant_from_characters` is the invariant part of chi (x) P, read off
    as the pairing sum over w of chi(w) * P(-w) without forming the tensor;
    `invariant_from_geometry` counts reduced-space points directly, never
    forming a character.  `first_mismatch`, when not None, is (weight,
    character multiplicity, reduced-space count) at the lexicographically
    first weight where the routes disagree.
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
# formal characters and tail matching


def formal_character(description):
    """The signed sum of component indicators (compact: one positive term)."""
    if isinstance(description, CompactToricSpace):
        return PolyhedralCharacter(description.rank, ((1, description.polytope),))
    return PolyhedralCharacter(description.rank, description.components)


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
    return VirtualCharacter(space.rank, ((point, 1) for point in points))


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

    The result is then re-checked pointwise against the formal character
    on a window twice the size of its support (SelfCheckError otherwise).
    """
    matching = tail_matching(description)
    formal = formal_character(description)
    rank = formal.rank
    ends_at = {}
    for end in matching:
        ends_at.setdefault(end.plus_component, []).append(end)
        ends_at.setdefault(end.minus_component, []).append(end)

    # assemble the surviving bounded pieces in a fixed order
    pieces = []
    coefficients = []
    for index, (sign, polyhedron) in enumerate(formal.terms):
        ends = ends_at.get(index, [])
        core = polyhedron
        for end in ends:
            # keep <cut_normal, x> >= -threshold + 1; exact on lattice points
            core = core.with_inequality(
                tuple(-x for x in end.cut_normal), Fraction(end.threshold - 1)
            )
        if not core.is_bounded():
            ray = core.recession_rays()[0]
            raise NotFiniteError(
                f"term {index} keeps unbounded direction {ray} after every "
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
                        end.cut_normal, Fraction(-end.threshold)
                    )
                if overlap.is_empty():
                    continue
                if not overlap.is_bounded():
                    ray = overlap.recession_rays()[0]
                    labels = tuple(end.hypersurface for end in subset)
                    raise NotFiniteError(
                        f"tails of hypersurfaces {labels} overlap in term "
                        f"{index} along unbounded direction {ray}",
                        witness=(("term", index) + labels, ray),
                    )
                pieces.append(overlap)
                coefficients.append(sign * (-1) ** (size + 1))

    table = {}
    for coefficient, piece in zip(coefficients, pieces):
        _accumulate(table, piece.lattice_points(), coefficient)
    character = VirtualCharacter(rank, table)

    if self_check:
        _self_check(formal, character, _verification_box(character, pieces))
    return character


def _self_check(formal, character, window):
    """Raise SelfCheckError unless `character` equals the formal signed
    count at every point of `window` (one range per coordinate).

    Each term is enumerated over the window by the row scan that
    lattice_points uses, which also hands over a certificate per row: the
    inequalities that bound the row's interval.  _row_mismatch checks the
    listed points against those certificates with exact single-inequality
    tests and contains_point, never with the scan's own arithmetic, so a
    fault in the scan shows up here even though both sides of the final
    comparison come from it.
    """
    if window:
        *outer, last = window
    counts = {}
    for index, (sign, polyhedron) in enumerate(formal.terms):
        certificates = {}
        if window:
            points = polyhedron._scan(
                outer, last.start, last.stop - 1, certificates
            )
        else:
            points = polyhedron.points_in_box(window)
        bad = _row_mismatch(polyhedron, points, certificates, window)
        if bad is not None:
            raise SelfCheckError(
                f"enumeration of term {index} over the check window "
                f"disagrees with its inequalities at weight {bad}"
            )
        _accumulate(counts, points, sign)
    found = dict(character.items())
    if found != counts:
        # neither table holds a zero, so some weight differs
        weight = min(
            w for w in found.keys() | counts.keys()
            if found.get(w, 0) != counts.get(w, 0)
        )
        raise SelfCheckError(
            f"collapsed character gives {found.get(weight, 0)} at "
            f"weight {weight} but the formal signed count is "
            f"{counts.get(weight, 0)}"
        )


def _row_mismatch(polyhedron, points, certificates, window):
    """None when `points` are exactly the points of `polyhedron` in
    `window`, row by row in the scan's order; otherwise the weight where a
    row certificate fails, or the first weight where `points` and the
    certified rows part.

    A row fixes every coordinate but the last and meets the polyhedron in
    an interval.  Its certificate from _scan is checked with exact
    single-inequality tests, never with the scan's floor division:
    - (index,): inequality `index` has last-coordinate slope 0 and fails
      on the row, so the row is empty;
    - (lower, first, upper, final): inequality `upper` has positive slope
      and fails at final + 1, hence at every x > final (None: final is at
      or past the window's end), and `lower` has negative slope and fails
      at first - 1, hence at every x < first (None: first is at or before
      the window's start).  When final < first the row is empty: by
      Helly's theorem in dimension 1, every integer fails one of the two.
      Otherwise first and final lie in the window and, by contains_point,
      in the polyhedron, so the row is exactly first..final.
    An empty row thus costs at most two single-inequality tests, not one
    contains_point per window weight.
    """
    if not window:
        return None if (points == [()]) == polyhedron.contains_point(()) else ()
    *outer, last = window
    low, high = last.start, last.stop - 1
    slopes = {
        index: normal[-1]
        for index, (normal, _) in enumerate(polyhedron.inequalities)
    }
    violates, contains = polyhedron.violates, polyhedron.contains_point
    certified = []
    for head in iter_product(*outer):
        claim = certificates.get(head, ())
        if len(claim) == 1:
            (index,) = claim
            if slopes.get(index) != 0 or not violates(index, head + (low,)):
                return head + (low,)
            continue
        if len(claim) != 4:
            return head + (low,)
        lower, first, upper, final = claim
        if (final < high if upper is None else slopes.get(upper, 0) <= 0
                or not violates(upper, head + (final + 1,))):
            return head + (final + 1,)
        if (first > low if lower is None else slopes.get(lower, 0) >= 0
                or not violates(lower, head + (first - 1,))):
            return head + (first - 1,)
        if final < first:
            continue
        for x in (first, final):
            if not (low <= x <= high and contains(head + (x,))):
                return head + (x,)
        certified.extend(zip(*map(repeat, head), range(first, final + 1)))
    if points == certified:
        return None
    for listed, true in zip(points, certified):
        if listed != true:
            return min(listed, true)
    return max(points, certified, key=len)[min(len(points), len(certified))]


def _verification_box(character, pieces):
    """Lattice window for the pointwise re-check, one range per coordinate:
    the character support widened by its own extent (plus margin), falling
    back to the bounding box of the collapsed pieces, falling back to a box
    around the origin."""
    rank = character.rank
    support = character.support()
    columns = None
    if support:
        columns = list(zip(*support))
    else:
        corner_pool = []
        for piece in pieces:
            if not piece.is_empty():
                corner_pool.extend(piece.vertices())
        if corner_pool:
            columns = list(zip(*corner_pool))
    if columns is None:
        ranges = [range(-2, 3)] * rank
    else:
        ranges = []
        for values in columns:
            low, high = floor(min(values)), ceil(max(values))
            pad = (high - low) // 2 + 1
            ranges.append(range(low - pad, high + pad + 1))
    return ranges


def quantize_b(description, self_check=True):
    """Finite character of a validated singular description.

    Validation certifies that the tails at each hypersurface are set-equal
    with opposite signs, the collapse that the cores and overlaps left are
    bounded, and the self-check re-checks the result pointwise.

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
    require_validated(description)
    return collapse_signed_tails(description, self_check=self_check)


def quantize_description(description, threads=1, self_check=True):
    """Character of a compact or singular description.  `threads` is
    accepted and ignored: enumeration is one sequential pass."""
    if isinstance(description, CompactToricSpace):
        return quantize_compact_toric(description)
    if isinstance(description, BSpaceDescription):
        return quantize_b(description, self_check=self_check)
    raise TypeError(
        f"cannot quantize {type(description).__name__}; expected "
        "CompactToricSpace or BSpaceDescription"
    )


def quantize_local_model(model):
    """Character of a two-tail local model; the certified answer is zero.

    The two tails must agree as sets and carry opposite signs; anything else
    leaves an unbounded remainder and raises NotFiniteError.  Lattice points
    in a box around the truncation face are additionally re-checked one by
    one.
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
        ranges = []
        for values in zip(*corners):
            ranges.append(range(floor(min(values)) - 1, ceil(max(values)) + 2))
        for point in iter_product(*ranges):
            total = sign_a * tail_a.contains_point(point) + (
                sign_b * tail_b.contains_point(point)
            )
            if total:
                raise SelfCheckError(
                    f"local model tails fail to cancel at lattice point "
                    f"{point} (signed count {total})"
                )
    return VirtualCharacter.zero(tail_a.rank)


# ----------------------------------------------------------------------
# reduction and the product verifier


def _as_integer_weight(weight, rank):
    weight = tuple(weight)
    if len(weight) != rank:
        raise DimensionMismatchError(
            f"weight of length {len(weight)} against rank {rank}"
        )
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in weight):
        raise ValueError(f"weight {weight!r} must have integer entries")
    return weight


def pointwise_multiplicity(description, weight):
    """Signed membership count of a weight in the moment data; the direct
    definition of the character multiplicity, no cancellation involved."""
    return formal_character(description).multiplicity(
        _as_integer_weight(weight, description.rank)
    )


def reduced_space_quantization(description, weight):
    """Quantization of the reduced space at one weight, counted directly."""
    require_validated(description)
    weight = _as_integer_weight(weight, description.rank)
    if isinstance(description, CompactToricSpace):
        contributions = (int(description.polytope.contains_point(weight)),)
    else:
        contributions = tuple(
            sign * int(polyhedron.contains_point(weight))
            for sign, polyhedron in description.components
        )
    return ReducedSpaceResult(
        weight=weight, count=sum(contributions), contributions=contributions
    )


def facet_boundary_weights(description, character):
    """Support weights lying on a facet hyperplane of some component they
    belong to.  Only these weights are sensitive to the closed-boundary
    membership convention, so they are reported for audit."""
    if isinstance(description, CompactToricSpace):
        terms = ((1, description.polytope),)
    else:
        terms = description.components
    out = []
    for weight in character.support():
        for _, polyhedron in terms:
            if not polyhedron.contains_point(weight):
                continue
            if any(
                _linalg.dot(normal, weight) == bound
                for normal, bound in polyhedron.inequalities
            ):
                out.append(weight)
                break
    return tuple(out)


def verify_qr_product(description, partner, character=None):
    """Check that quantization commutes with reduction against a compact
    partner space.

    Route one is the invariant part of chi (x) P, where chi is the
    character of `description` and P that of `partner`.  It is computed as
    the pairing sum over w of chi(w) * P(-w), one lookup per weight, without
    forming the tensor.  Route two never forms the first character: it counts
    reduced-space points of `description` directly at each weight of the
    reflected partner polytope.  The per-weight comparison pins down the
    first disagreement, if any.

    `character` substitutes a precomputed character for `description`
    (route one and the per-weight scan then test that value), so a stale or
    corrupted cache is caught rather than silently trusted.
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
    partner_character = quantize_compact_toric(partner)
    invariant_from_characters = character.invariant_pairing(partner_character)

    formal = formal_character(description)
    reflected = partner.polytope.reflect_through_origin()
    invariant_from_geometry = 0
    checked = 0
    first_mismatch = None
    for weight in reflected.lattice_points():
        direct = formal.multiplicity(weight)
        invariant_from_geometry += direct
        checked += 1
        from_character = character.multiplicity(weight)
        if first_mismatch is None and from_character != direct:
            first_mismatch = (weight, from_character, direct)
    return QRReport(
        invariant_from_characters=invariant_from_characters,
        invariant_from_geometry=invariant_from_geometry,
        checked_weights=checked,
        first_mismatch=first_mismatch,
    )
