"""Combinatorial descriptions of compact toric and b-toric spaces.

A compact toric space is presented by its moment polytope.  A b-toric space
is presented by the moment image of its open symplectic part: a list of
signed component polyhedra together with one record per singular
hypersurface (its modular weight, splitting, leaf polytope and adjacent
components).  The ``bquant/1`` file format, with every field, is described
in README's "File format" section.

Validation certifies, with exact arithmetic, that beyond the computed
integer threshold the first adjacent tail is a product of a half-line with
a lattice translate of the leaf polytope and the second tail is set-equal
to it, so a product too, and that every unbounded direction of every
component is claimed by exactly one hypersurface end.  Those are
precisely the facts the quantization engine's tail cancellation consumes:
a passing report carries one :class:`TailEnd` per hypersurface, and the
engine reads its tail ends from there.
"""

import json
from dataclasses import dataclass
from functools import lru_cache

from . import _linalg
from .checks import (
    CheckReport,
    check_delzant,
    check_gamma_integrality,
    check_modular_dichotomy,
    check_mu_integrality,
    check_properness,
)
from .errors import (
    DescriptionKindError,
    DimensionMismatchError,
    HypersurfaceIndexError,
    NotValidatedError,
    ParseError,
)
from .polyhedra import LatticePolyhedron, _expect_int_list, _fields

__all__ = [
    "CompactToricSpace",
    "HypersurfaceRecord",
    "BSpaceDescription",
    "LocalModel",
    "TailEnd",
    "ValidationReport",
    "parse_description",
    "load_description",
    "validate_description",
    "local_model",
    "leaf_embedding_basis",
    "tail_threshold",
    "tail_cut",
    "cross_section",
]

SCHEMA = "bquant/1"


@dataclass(frozen=True)
class CompactToricSpace:
    rank: int
    polytope: LatticePolyhedron

    def __post_init__(self):
        if self.polytope.rank != self.rank:
            raise DimensionMismatchError(
                f"polytope rank {self.polytope.rank} != space rank {self.rank}"
            )


@dataclass(frozen=True)
class HypersurfaceRecord:
    modular_weight: tuple
    splitting: tuple
    leaf: LatticePolyhedron
    adjacent: tuple  # the two glued component indices, in either order

    def __post_init__(self):
        object.__setattr__(self, "modular_weight", tuple(self.modular_weight))
        object.__setattr__(self, "splitting", tuple(self.splitting))
        object.__setattr__(self, "adjacent", tuple(self.adjacent))
        n = len(self.modular_weight)
        if len(self.splitting) != n:
            raise DimensionMismatchError(
                "modular weight and splitting have different lengths"
            )
        if self.leaf.rank != n - 1:
            raise DimensionMismatchError(
                f"leaf rank {self.leaf.rank} != {n - 1} for a rank-{n} record"
            )
        if len(self.adjacent) != 2 or not all(
            type(side) is int for side in self.adjacent
        ):
            raise ValueError("adjacent must list exactly two component indices")


@dataclass(frozen=True)
class BSpaceDescription:
    rank: int
    components: tuple  # ((sign, LatticePolyhedron), ...)
    hypersurfaces: tuple  # (HypersurfaceRecord, ...)

    def __post_init__(self):
        object.__setattr__(
            self, "components", tuple((s, p) for s, p in self.components)
        )
        object.__setattr__(self, "hypersurfaces", tuple(self.hypersurfaces))
        for sign, polyhedron in self.components:
            if type(sign) is not int or sign not in (1, -1):
                raise ValueError(f"component sign must be +1 or -1, got {sign!r}")
            if polyhedron.rank != self.rank:
                raise DimensionMismatchError(
                    f"component rank {polyhedron.rank} != space rank {self.rank}"
                )
        for record in self.hypersurfaces:
            if len(record.modular_weight) != self.rank:
                raise DimensionMismatchError(
                    "hypersurface record rank does not match the space"
                )
            for side in record.adjacent:
                if not 0 <= side < len(self.components):
                    raise ValueError(
                        f"adjacent component index {side} out of range"
                    )


@dataclass(frozen=True)
class LocalModel:
    """The two signed truncated tails at one hypersurface."""

    hypersurface: int
    threshold: int
    tails: tuple  # ((sign, polyhedron), (sign, polyhedron)) in adjacent order


@dataclass(frozen=True)
class TailEnd:
    """One hypersurface's certified pair of signed tails, ready for
    cancellation."""

    hypersurface: int
    plus_component: int
    minus_component: int
    cut_normal: tuple  # splitting covector; tails satisfy <cut_normal, x> <= -threshold
    threshold: int


# ----------------------------------------------------------------------
# parsing


def _reject_float(literal):
    raise ParseError(
        f"floating-point literal {literal!r} is not exact; "
        "use integers or 'p/q' strings"
    )


def _reject_constant(literal):
    raise ParseError(f"non-finite literal {literal!r} is not allowed")


def _reject_duplicate(pairs):
    data = dict(pairs)
    if len(data) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for at, key in enumerate(keys) if key in keys[:at])
        raise ParseError(f"duplicate field {repeated!r}")
    return data


def _trusted(cls, **fields):
    """An instance of the frozen dataclass `cls` holding `fields` as given,
    without the re-checks of its __post_init__: for parse_description,
    which has made each of them already and reported a failure as a
    ParseError naming the field."""
    instance = object.__new__(cls)
    instance.__dict__.update(fields)
    return instance


def _polyhedron(data, where, rank):
    """The polyhedron of the payload `data` at `where`, of rank `rank`."""
    polyhedron = LatticePolyhedron.from_payload(data, where)
    if polyhedron.rank != rank:
        raise ParseError(
            f"{where}.rank: {polyhedron.rank} does not match rank {rank}"
        )
    return polyhedron


def parse_description(text):
    """Parse a description from JSON text.  Structural checks only; geometric
    validation is a separate, explicit step (:func:`validate_description`)."""
    try:
        data = json.loads(
            text, parse_float=_reject_float, parse_constant=_reject_constant,
            object_pairs_hook=_reject_duplicate,
        )
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ParseError:
        raise  # a float, non-finite literal or repeated field, named by a hook
    except ValueError as exc:  # an integer over Python's int-string digit limit
        raise ParseError(f"integer literal: {str(exc).split(';')[0]}") from None
    except RecursionError:  # arrays or objects nested past the recursion limit
        raise ParseError("JSON nested too deeply to decode") from None
    if not isinstance(data, dict):
        raise ParseError("top level: expected an object")
    if data.get("schema") != SCHEMA:
        raise ParseError(
            f"schema: expected {SCHEMA!r}, got {data.get('schema')!r}"
        )
    kind = data.get("kind")
    if kind not in ("compact_toric", "b_toric"):
        raise ParseError(
            f"kind: expected 'compact_toric' or 'b_toric', got {kind!r}"
        )
    compact = kind == "compact_toric"
    names = ("polytope",) if compact else ("components", "hypersurfaces")
    _, _, rank, *rest = _fields(
        data, "top level", ("schema", "kind", "rank", *names)
    )
    if not isinstance(rank, int) or isinstance(rank, bool):
        raise ParseError("rank: expected an integer")
    if compact:
        polytope = _polyhedron(rest[0], "polytope", rank)
        return _trusted(CompactToricSpace, rank=rank, polytope=polytope)
    raw_components, raw_hypersurfaces = rest
    if not isinstance(raw_components, list) or not raw_components:
        raise ParseError("components: expected a nonempty list")
    components = []
    for index, item in enumerate(raw_components):
        where = f"components[{index}]"
        sign, polyhedron = _fields(item, where, ("sign", "polyhedron"))
        if type(sign) is not int or sign not in (1, -1):
            raise ParseError(f"{where}.sign: expected 1 or -1, got {sign!r}")
        components.append(
            (sign, _polyhedron(polyhedron, f"{where}.polyhedron", rank))
        )
    if not isinstance(raw_hypersurfaces, list):
        raise ParseError("hypersurfaces: expected a list (may be empty)")
    records = []
    for index, item in enumerate(raw_hypersurfaces):
        where = f"hypersurfaces[{index}]"
        modular_weight, splitting, leaf, adjacent = _fields(
            item, where, ("modular_weight", "splitting", "leaf", "adjacent")
        )
        modular_weight = _expect_int_list(
            modular_weight, f"{where}.modular_weight", rank
        )
        splitting = _expect_int_list(splitting, f"{where}.splitting", rank)
        leaf = _polyhedron(leaf, f"{where}.leaf", rank - 1)
        adjacent = _expect_int_list(adjacent, f"{where}.adjacent", 2)
        for side in adjacent:
            if not 0 <= side < len(components):
                raise ParseError(
                    f"{where}.adjacent: component index {side} out of range"
                )
        records.append(_trusted(
            HypersurfaceRecord, modular_weight=modular_weight,
            splitting=splitting, leaf=leaf, adjacent=adjacent,
        ))
    return _trusted(
        BSpaceDescription, rank=rank, components=tuple(components),
        hypersurfaces=tuple(records),
    )


def load_description(path):
    """Read and parse a description file, which must be UTF-8 text; its
    line ends are read as in text mode (universal newlines)."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"byte offset {exc.start}: not UTF-8 text ({exc.reason}: "
            f"{data[exc.start]:#04x})"
        ) from None
    return parse_description(text.replace("\r\n", "\n").replace("\r", "\n"))


# ----------------------------------------------------------------------
# tail geometry helpers


def leaf_embedding_basis(splitting):
    """Canonical lattice basis of the annihilator of the splitting direction.

    Leaf polytopes are presented in these coordinates: a leaf point u embeds
    as level * modular_weight + sum_j u_j * basis_j.  The basis is the
    row-HNF lattice kernel of the splitting covector, so it is deterministic.
    """
    return tuple(_linalg.lattice_kernel_basis(tuple(splitting)))


def _record(description, index, what):
    """The record of hypersurface `index`; DescriptionKindError, naming
    `what`, unless `description` is a BSpaceDescription and
    HypersurfaceIndexError unless `index` is an int (not a bool) that names
    one."""
    if not isinstance(description, BSpaceDescription):
        raise DescriptionKindError(
            f"{what} exist only for b_toric descriptions"
        )
    count = len(description.hypersurfaces)
    if type(index) is not int or not 0 <= index < count:
        raise HypersurfaceIndexError(
            f"hypersurface index {index!r} out of range (have {count})"
        )
    return description.hypersurfaces[index]


def tail_threshold(description, index):
    """Integer cut level for the tails of hypersurface `index`: strictly
    beyond the extent of every adjacent component's vertices along the
    splitting coordinate, read in integers off each vertex table."""
    record = _record(description, index, "tail thresholds")
    extent = 0  # the floor of the largest |<splitting, vertex>| so far
    for side in record.adjacent:
        _, polyhedron = description.components[side]
        if polyhedron.is_empty():
            continue
        for point, scale, _ in polyhedron._vertex_table():
            extent = max(extent, abs(_linalg.dot(record.splitting, point)) // scale)
    return extent + 1


def tail_cut(polyhedron, splitting, threshold):
    """The tail {x in polyhedron : <splitting, x> <= -threshold}."""
    return polyhedron.with_inequality(tuple(splitting), -threshold)


def cross_section(polyhedron, modular_weight, splitting, basis, level):
    """Slice {x : <splitting, x> = level} in leaf coordinates, or None if empty.

    Points at the given level are level * modular_weight + basis @ u; the
    returned polyhedron constrains u.  Requires <modular_weight, splitting>
    = 1, which makes (modular_weight, basis) a lattice basis of Z^rank, so
    integer u correspond exactly to weight-lattice points of the slice.
    """
    n = polyhedron.rank
    inequalities = []
    for normal, p, q in polyhedron.integer_inequalities:
        # <normal, x> * q <= p on the slice, with integer coefficients
        projected = tuple(q * _linalg.dot(normal, d) for d in basis)
        shifted = p - q * level * _linalg.dot(normal, modular_weight)
        if any(projected):
            inequalities.append((projected, shifted))
        elif shifted < 0:
            return None  # the whole slice is infeasible
    return LatticePolyhedron(n - 1, inequalities)


# ----------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple
    tails: tuple = ()  # one TailEnd per hypersurface, set only if every row passes

    @property
    def passed(self):
        return all(check.passed for check in self.checks)

    def lines(self):
        return [check.line() for check in self.checks]

    def payload(self):
        return {
            "passed": self.passed,
            "checks": [check.payload() for check in self.checks],
        }


def _record_is_degenerate(record):
    """True when (modular weight, splitting) cannot define a tail frame;
    the mu-integrality row reports these, so structural rows skip them."""
    v = record.modular_weight
    return (
        not any(v)
        or _linalg.vector_gcd(v) != 1
        or _linalg.dot(v, record.splitting) != 1
    )


def _check_orientation(description):
    name = "orientation"
    for index, record in enumerate(description.hypersurfaces):
        first, second = record.adjacent
        if first == second:
            return CheckReport(
                name,
                False,
                witness=(index, first),
                message="hypersurface adjoins the same component on both sides",
            )
        first_sign = description.components[first][0]
        second_sign = description.components[second][0]
        if first_sign != -second_sign:
            return CheckReport(
                name,
                False,
                witness=(index, (first_sign, second_sign)),
                message="adjacent components must carry opposite signs",
            )
    return CheckReport(name, True)


def _product_tail(polyhedron, record, threshold, basis):
    """The tail of `polyhedron` beyond `threshold` if it is a half-line times
    a lattice translate of the record's leaf, else the first failed test's
    message.  Each test reads the tail only as a set, given the record and
    threshold (emptiness, the shifted versus the deeper tail, the slice at
    the threshold, its boundedness and least vertex), and a component with
    a nonempty tail is nonempty: a tail set-equal to a passing one passes.

    Write P for the component, v for the modular weight, s for the
    splitting (<v, s> = 1), t for the threshold, T for the tail P &
    {s.x <= -t} and D for the deeper tail T & {s.x <= -t-1}.  The
    translation test is T - v = D, decided without building T - v:
    - If <n, v> < 0 for some inequality of P, a nonempty T fails the
      test.  A nonempty T with T - v = D, a subset of T, holds x - kv for
      every k, so -v is a recession direction of T, and <n, -v> <= 0 for
      every inequality of T, which holds P's.  So an empty T fails "no
      tail" and a nonempty one "not translation-invariant", with no
      elimination but T's emptiness.
    - Otherwise -v is a recession direction of P, which therefore reaches
      every level of s, so T is nonempty.  T - v lies in D: for x in T,
      <n, x - v> <= b - <n, v> <= b and s.(x - v) <= -t-1.  And D lies in
      T - v iff D + v lies in T, that is iff D implies <n, x> <= b - <n, v>
      for each inequality <n, x> <= b of T; D does for <n, v> = 0, and for
      the cut row n = s with b = -t, since D holds s.x <= -t-1.  Each
      other row costs one `implies`, and D is built only when one is left.

    The slice at level -t is cut from P, not T, and the two are
    structurally equal.  P and T differ at most in the row of normal s,
    which projects to the zero normal with slack b + t for its bound b.
    When P has no such row or its bound is at least -t, T's bound is -t
    and both slices drop the row; otherwise both bounds are P's, below -t,
    and both slices are None.  The slice is never None once T passes
    the translation test: then T - v lies in T, so s is unbounded below on
    T and takes every level up to its supremum sigma <= -t; the supremum of
    s on T - v is sigma - 1 and on D min(sigma, -t-1), so sigma = -t, and a
    linear function bounded above on a nonempty polyhedron attains its
    supremum."""
    if polyhedron.is_empty():
        return "adjacent component is empty"
    splitting, weight = record.splitting, record.modular_weight
    tail = tail_cut(polyhedron, splitting, threshold)
    not_invariant = (
        "tail is not translation-invariant along the modular direction"
    )
    if any(_linalg.dot(normal, weight) < 0
           for normal, _, _ in polyhedron.integer_inequalities):
        if tail.is_empty():
            return "component has no tail beyond the threshold"
        return not_invariant
    deeper = None
    for normal, p, q in tail.integer_inequalities:
        step = _linalg.dot(normal, weight)
        if step == 0 or (normal == splitting and (p, q) == (-threshold, 1)):
            continue
        if deeper is None:
            deeper = tail_cut(tail, splitting, threshold + 1)
        # <normal, x> <= p/q - step, times q
        if not deeper.implies(tuple(q * n for n in normal), p - q * step):
            return not_invariant
    section = cross_section(polyhedron, weight, splitting, basis, -threshold)
    if not section.is_bounded():
        return "tail cross-section is unbounded"
    if not section._is_translate_of(record.leaf):
        return "tail cross-section is not a translate of the leaf polytope"
    return tail


def _check_tail_product(description):
    """The tail-product row and, when it passes, each hypersurface's TailEnd.

    The first adjacent tail is tested on its own, and the second is
    certified by one `set_equals` against it (see `_product_tail`).  Only
    when they differ is the second tested on its own, so its failures keep
    their witness, and "differ as sets" means that both tails pass."""
    name = "tail-product"
    components = description.components
    ends = []
    for index, record in enumerate(description.hypersurfaces):
        if _record_is_degenerate(record):
            continue
        leaf = record.leaf
        if not leaf.is_bounded() or leaf.is_empty():
            continue  # a broken leaf polytope is the integrality row's business
        splitting = record.splitting
        threshold = tail_threshold(description, index)
        frame = (record, threshold, leaf_embedding_basis(splitting))
        first, second = record.adjacent
        verdict = _product_tail(components[first][1], *frame)
        witness = (index, first)
        if not isinstance(verdict, str):
            partner = components[second][1]
            if not verdict.set_equals(tail_cut(partner, splitting, threshold)):
                verdict, witness = _product_tail(partner, *frame), (index, second)
                if not isinstance(verdict, str):
                    verdict = "the two matched tails differ as sets"
                    witness = (index,)
        if isinstance(verdict, str):
            return CheckReport(name, False, witness=witness, message=verdict), ()
        sign = components[first][0]
        plus, minus = (first, second) if sign == 1 else (second, first)
        ends.append(TailEnd(index, plus, minus, splitting, threshold))
    return CheckReport(name, True), tuple(ends)


def _check_compactness(space):
    name = "compactness"
    polytope = space.polytope
    if polytope.is_empty():
        return CheckReport(name, False, message="moment polytope is empty")
    if not polytope.is_bounded():
        return CheckReport(
            name,
            False,
            witness=polytope.recession_rays()[0],
            message="moment polytope is unbounded",
        )
    return CheckReport(name, True)


@lru_cache(maxsize=64)
def validate_description(description):
    """Run every geometric check; the description is immutable, so the
    report is cached per value, for the 64 descriptions validated last.  A
    passing b_toric report also carries the tail ends its tail-product row
    certified."""
    if isinstance(description, CompactToricSpace):
        reports = (
            _check_compactness(description),
            check_gamma_integrality(description),
            check_delzant(description),
        )
        return ValidationReport(checks=reports)
    if isinstance(description, BSpaceDescription):
        leading = (
            check_modular_dichotomy(description),
            check_gamma_integrality(description),
            check_mu_integrality(description),
            check_properness(description),
            _check_orientation(description),
        )
        tail_product, tails = _check_tail_product(description)
        reports = leading + (tail_product, check_delzant(description))
        passed = all(check.passed for check in reports)
        return ValidationReport(checks=reports, tails=tails if passed else ())
    raise TypeError(
        f"expected CompactToricSpace or BSpaceDescription, got "
        f"{type(description).__name__}"
    )


def require_validated(description):
    report = validate_description(description)
    if not report.passed:
        failing = [check.name for check in report.checks if not check.passed]
        raise NotValidatedError(
            f"description fails validation: {', '.join(failing)}", report
        )
    return report


# ----------------------------------------------------------------------
# models


def local_model(description, index):
    """The two signed truncated tails at hypersurface `index`, in adjacent
    order, cut at the threshold validation certified."""
    record = _record(description, index, "local models")
    threshold = require_validated(description).tails[index].threshold
    tails = []
    for side in record.adjacent:
        sign, polyhedron = description.components[side]
        tails.append((sign, tail_cut(polyhedron, record.splitting, threshold)))
    return LocalModel(index, threshold, tuple(tails))
