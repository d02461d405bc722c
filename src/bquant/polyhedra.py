"""Rational polyhedra in H-representation with exact lattice-point machinery.

A `LatticePolyhedron` is a finite set of inequalities <normal, x> <= p/q,
interpreted as a closed subset of R^rank.  It stores them in one form,
`integer_inequalities`: one row ``(normal, p, q)`` per normal, with a
primitive int normal and a reduced bound p/q, q > 0, sorted by normal;
every kernel reads the rows as <normal, x> * q <= p.  `inequalities`, the
``(normal, Fraction bound)`` pairs, is a view built for the public API.
Boundary points count as inside everywhere; the quantization layer reports
which support weights sit on facet boundaries so that sensitivity to this
convention can be audited.

All predicates are decided exactly.  Emptiness and inclusion go through
Fourier-Motzkin feasibility.  Boundedness, the box a lattice-point scan
runs over and, in rank 1, the vertices and the recession rays come from
one exact bounding box per instance (`_box`): the range of each
coordinate, read off the Fourier-Motzkin projection of the polyhedron onto
that axis, each finite end a reduced integer pair (p, q) for p/q, so the
polyhedron is bounded iff every range is.  The projection is exact, so it
also decides emptiness: a box asked for before `is_empty` costs one
elimination, not a feasibility test and then an elimination.  The box,
emptiness and boundedness are cached together.

Each instance also keeps one vertex table (`_vertex_table`): every vertex
as an integer point over a positive integer scale, with the rows tight
there, in the order `vertices` lists them.  The lattice-polytope test
reads the scales, the Delzant test the tight rows, the tail threshold
the integer extent and the translate test the least vertices; `vertices`
builds its Fractions from the table only when it is called.  The table's
points come from the box in rank 1, are the one point () in rank 0 and
come from exhaustive facet-subset intersection, solved in integers, in
rank >= 2.  Recession rays come from cone analysis over the lineality
space; rays are listed only where they are asked for, never to decide
boundedness.

Rows of a box (all coordinates but the last fixed) are read off the
inequalities in runs of rows with one certificate by one scan (`_rows`),
whose one reader, `_certified_rows`, checks every run before handing it
on; `lattice_points` and the engine read rows only from it.
Instances are immutable and safe to share across threads.
"""

from fractions import Fraction
from itertools import combinations, product as iter_product, repeat
from math import gcd, inf, lcm, prod
from numbers import Number
from operator import mul
import re

from . import _linalg
from .errors import (
    ENUMERATION_BUDGET,
    DimensionMismatchError,
    EmptyPolyhedronError,
    EnumerationBudgetError,
    NoVerticesError,
    ParseError,
    SelfCheckError,
    UnboundedPolyhedronError,
)

__all__ = ["LatticePolyhedron"]

_FRACTION_TOKEN = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _fields(data, where, names):
    """`data`'s values at `names`, in order, when `data` is an object that
    holds exactly those fields; otherwise a ParseError naming `where`,
    which reports a field outside `names` before a missing one.  The one
    object check of every bquant/1 reader."""
    if not isinstance(data, dict):
        raise ParseError(f"{where}: expected an object, got {type(data).__name__}")
    if len(data) == len(names):
        try:
            return [data[name] for name in names]
        except KeyError:
            pass  # as many fields as names, so one of them is unknown
    unknown = sorted(set(data).difference(names))
    if unknown:
        raise ParseError(f"{where}: unknown field {unknown[0]!r}")
    missing = next(name for name in names if name not in data)
    raise ParseError(f"{where}: needs {missing!r}")


def _expect_int_list(value, where, length=None):
    if not isinstance(value, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in value
    ):
        raise ParseError(f"{where}: expected a list of integers")
    if length is not None and len(value) != length:
        raise ParseError(f"{where}: expected length {length}, got {len(value)}")
    return tuple(value)


def _parse_exact_number(value, where):
    """The reduced pair (p, q), q > 0, of an int or a 'p/q' string;
    reject anything inexact."""
    if isinstance(value, bool):
        raise ParseError(f"{where}: expected an exact number, got a boolean")
    if isinstance(value, int):
        return value, 1
    if isinstance(value, str):
        if not _FRACTION_TOKEN.fullmatch(value):
            raise ParseError(
                f"{where}: {value!r} is not an exact rational literal 'p/q'"
            )
        numerator, _, denominator = value.partition("/")
        try:
            numerator, denominator = int(numerator), int(denominator or "1")
        except ValueError as exc:  # over Python's int-string digit limit
            raise ParseError(f"{where}: {str(exc).split(';')[0]}") from None
        if denominator == 0:
            raise ParseError(f"{where}: zero denominator in {value!r}")
        common = gcd(numerator, denominator)
        return numerator // common, denominator // common
    raise ParseError(
        f"{where}: expected an integer or 'p/q' string, got {type(value).__name__}"
    )


def _reduced_row(normal, p, q):
    """The row ``(normal, p, q)`` of <normal, x> * q <= p, for a nonzero
    int tuple ``normal`` and a reduced p/q with q > 0, divided by the gcd g
    of the normal's entries: a primitive normal and p/q / g, reduced."""
    g = gcd(*normal)
    if g > 1:
        normal = tuple(entry // g for entry in normal)
        common = gcd(p, g)
        p, q = p // common, q * (g // common)
    return normal, p, q


def _integer_row(rank, normal, bound):
    """The reduced row (`_reduced_row`) of <normal, x> <= bound, for a
    nonzero int ``normal`` of length ``rank`` and an exact ``bound``."""
    normal = tuple(normal)
    if len(normal) != rank:
        raise DimensionMismatchError(
            f"normal {normal} has length {len(normal)}, expected rank {rank}"
        )
    if not all(isinstance(entry, int) and not isinstance(entry, bool)
               for entry in normal):
        raise ValueError(f"normal {normal!r} must have integer entries")
    bound = _linalg.exact(bound)
    if not any(normal):
        raise ValueError("inequality normals must be nonzero")
    return _reduced_row(normal, bound.numerator, bound.denominator)


def _merge_row(merged, row):
    """Add a reduced row to ``merged`` (primitive normal -> row), keeping
    the tightest bound per normal."""
    normal, p, q = row
    held = merged.get(normal)
    if held is None or p * held[2] < held[1] * q:
        merged[normal] = row


def _implied(rows, rank, row):
    """True iff every point of {x : <normal, x> * q <= p for each of
    ``rows``} satisfies the reduced ``row``: its violation set, where
    <-normal, x> < -p/q, is infeasible."""
    normal, p, q = row
    return not _linalg.fm_feasible(rows, rank, (tuple(-x for x in normal), -p, q))


def _as_pairs(rows):
    """``(normal, Fraction bound)`` pairs of integer rows."""
    return tuple((normal, Fraction(p, q)) for normal, p, q in rows)


class LatticePolyhedron:
    """Closed rational polyhedron {x in R^rank : <normal_i, x> <= bound_i}."""

    __slots__ = ("rank", "integer_inequalities", "_cache")

    def __init__(self, rank, inequalities):
        if not isinstance(rank, int) or isinstance(rank, bool) or rank < 0:
            raise ValueError(f"rank must be a nonnegative integer, got {rank!r}")
        merged = {}
        for normal, bound in inequalities:
            _merge_row(merged, _integer_row(rank, normal, bound))
        self._assign(rank, merged.values())

    @classmethod
    def _from_rows(cls, rank, rows):
        """Instance from reduced rows with pairwise distinct normals."""
        self = object.__new__(cls)
        self._assign(rank, rows)
        return self

    def _assign(self, rank, rows):
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "integer_inequalities", tuple(sorted(rows)))
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("LatticePolyhedron is immutable")

    @property
    def inequalities(self):
        """The inequalities as ``(normal, Fraction bound)`` pairs, sorted by
        normal: a view built from `integer_inequalities` on each call."""
        return _as_pairs(self.integer_inequalities)

    # ------------------------------------------------------------------
    # basics

    def __eq__(self, other):
        """Structural equality of canonical forms; see set_equals for set equality."""
        if not isinstance(other, LatticePolyhedron):
            return NotImplemented
        return self.rank == other.rank and \
            self.integer_inequalities == other.integer_inequalities

    def __hash__(self):
        return hash((self.rank, self.integer_inequalities))

    def __repr__(self):
        return f"LatticePolyhedron(rank={self.rank}, inequalities={self.inequalities!r})"

    def __str__(self):
        if not self.integer_inequalities:
            return f"{{x in R^{self.rank}}}"
        return "{" + "; ".join(
            _inequality_text(*row) for row in self.integer_inequalities
        ) + "}"

    def _check_rank(self, other):
        if self.rank != other.rank:
            raise DimensionMismatchError(
                f"rank {self.rank} polyhedron combined with rank {other.rank}"
            )

    # ------------------------------------------------------------------
    # membership and feasibility

    def contains_point(self, point):
        """True iff ``point`` lies in self, decided in integers for any
        exact number or float: <normal, x * scale> * q <= p * scale."""
        point = tuple(point)
        if len(point) != self.rank:
            raise DimensionMismatchError(
                f"point of length {len(point)} tested against rank {self.rank}"
            )
        scale = 1
        if not all(type(x) is int for x in point):
            if not all(isinstance(x, Number) for x in point):
                raise TypeError(f"point entries must be numbers, got {point!r}")
            point, scale = _linalg.integer_scaled(point)
        return self._holds(point, scale)

    def _holds(self, point, scale):
        """True iff the int ``point`` over the positive int ``scale`` lies
        in self: <normal, point> * q <= p * scale for every row."""
        for normal, p, q in self.integer_inequalities:
            if sum(map(mul, normal, point)) * q > p * scale:
                return False
        return True

    def is_empty(self):
        cached = self._cache.get("empty")
        if cached is None:
            cached = not _linalg.fm_feasible(self.integer_inequalities, self.rank)
            self._cache["empty"] = cached
        return cached

    def _box(self):
        """The exact range of each coordinate over self, as one ``(low,
        high)`` pair per coordinate, each finite end the reduced pair
        ``(p, q)`` of p/q and None for an unbounded end, or None when self
        is empty (`_linalg.fm_box`).  For a bounded nonempty self the
        ranges are the extent of its vertices.

        `fm_box` returns None iff self is empty, so a box asked for first
        also settles `is_empty` without a separate feasibility test; the
        box, emptiness and boundedness are cached together."""
        cache = self._cache
        if "box" not in cache:
            box = None if cache.get("empty") else _linalg.fm_box(
                self.integer_inequalities, self.rank
            )
            cache["box"], cache["empty"] = box, box is None
            cache["bounded"] = box is None or all(
                None not in ends for ends in box
            )
        return cache["box"]

    def implies(self, normal, bound):
        """True iff every point of self satisfies <normal, x> <= bound."""
        row = _integer_row(self.rank, normal, bound)
        return _implied(self.integer_inequalities, self.rank, row)

    def contains_polyhedron(self, other):
        """True iff other is a subset of self."""
        self._check_rank(other)
        return all(_implied(other.integer_inequalities, self.rank, row)
                   for row in self.integer_inequalities)

    def set_equals(self, other):
        """Exact set equality, invariant under reordering/duplication of inequalities."""
        return self == other or (
            other.contains_polyhedron(self) and self.contains_polyhedron(other)
        )

    # ------------------------------------------------------------------
    # vertices, rays, boundedness

    def vertices(self):
        """All vertices, sorted, as tuples of Fractions built from the
        vertex table; empty tuple iff the polyhedron contains a line."""
        cached = self._cache.get("vertices")
        if cached is None:
            cached = tuple(
                tuple(Fraction(x, scale) for x in point)
                for point, scale, _ in self._vertex_table()
            )
            self._cache["vertices"] = cached
        return cached

    def _vertex_table(self):
        """The vertices in the order `vertices` lists them, each as
        ``(point, scale, active)``: the vertex is the int tuple ``point``
        over the least positive int ``scale`` that makes it integral, and
        ``active`` lists the rows of `integer_inequalities` tight there.
        Empty iff self contains a line; raises EmptyPolyhedronError when
        self is empty.

        Rank 0 has the one vertex (); in rank 1 the vertices are the finite
        ends of the range (`_box`), already reduced pairs; in rank >= 2 every
        `rank` rows are solved in integers (`_linalg.solve_unique`) and the
        solutions in self kept."""
        cached = self._cache.get("table")
        if cached is not None:
            return cached
        if self.is_empty():
            raise EmptyPolyhedronError("empty polyhedron has no vertices")
        tests = self.integer_inequalities
        if self.rank == 0:
            corners = [((), 1)]
        elif self.rank == 1:
            # equal ends are equal pairs, so a point is listed once
            (ends,) = self._box()
            corners = [
                ((end[0],), end[1])
                for end in dict.fromkeys(ends) if end is not None
            ]
        else:
            # the rows (q * normal | p) of the bounds p/q; equal vertices
            # solve to equal pairs, sorted on their points at one scale
            rows = [tuple(q * n for n in normal) for normal, _, q in tests]
            sides = [p for _, p, _ in tests]
            found = set()
            for subset in combinations(range(len(rows)), self.rank):
                solved = _linalg.solve_unique(
                    [rows[i] for i in subset], [sides[i] for i in subset]
                )
                if solved is not None and self._holds(*solved):
                    found.add(solved)
            common = lcm(1, *(scale for _, scale in found))
            corners = sorted(found, key=lambda corner: tuple(
                x * (common // corner[1]) for x in corner[0]
            ))
        table = tuple(
            (point, scale, tuple(
                row for row in tests
                if sum(map(mul, row[0], point)) * row[2] == row[1] * scale
            ))
            for point, scale in corners
        )
        self._cache["table"] = table
        return table

    def recession_rays(self):
        """Primitive generators of the recession cone, sorted.

        For a pointed cone these are exactly the extreme rays.  When the cone
        has a lineality space (a full line of unbounded directions, as with
        torus-type components) the result is +-(a basis of that space) plus
        the extreme rays of the pointed remainder, which still generates the
        cone.  Empty iff the polyhedron is bounded.

        In rank 1 the rays are read off the exact range (`_box`): (-1,) for
        a missing lower end and (1,) for a missing upper end, since the
        recession cone of a nonempty interval is the set of directions in
        which it is unbounded.
        """
        cached = self._cache.get("rays")
        if cached is not None:
            return cached
        if self.is_empty():
            raise EmptyPolyhedronError("empty polyhedron has no recession cone")
        n = self.rank
        if n == 1:
            ((low, high),) = self._box()
            result = ((-1,),) * (low is None) + ((1,),) * (high is None)
            self._cache["rays"] = result
            return result
        normals = [normal for normal, _, _ in self.integer_inequalities]
        lineality = _linalg.rational_kernel_basis(normals, n)
        rays = set(lineality)
        rays.update(tuple(-x for x in direction) for direction in lineality)
        # an extreme ray of the pointed remainder is orthogonal to the
        # lineality space and spans the kernel of its basis together with
        # n - 1 - l of the normals
        size = n - 1 - len(lineality)
        for subset in combinations(normals, size) if size >= 0 else ():
            kernel = _linalg.rational_kernel_basis(lineality + list(subset), n)
            if len(kernel) != 1:
                continue
            generator = kernel[0]
            for candidate in (generator, tuple(-x for x in generator)):
                if all(_linalg.dot(a, candidate) <= 0 for a in normals):
                    rays.add(candidate)
        result = tuple(sorted(rays))
        self._cache["rays"] = result
        return result

    def is_bounded(self):
        bounded = self._cache.get("bounded")
        if bounded is None:
            self._box()
            bounded = self._cache["bounded"]
        return bounded

    # ------------------------------------------------------------------
    # lattice points

    def lattice_points(self):
        """All integer points, in lexicographic order, listed from the
        certified runs of rows (`_certified_rows`) over the exact bounding
        box (`_box`) in all but the last coordinate; the inequalities alone
        bound the last coordinate on every row because self is bounded.

        Raises UnboundedPolyhedronError, with a recession ray as witness,
        when self is unbounded and EnumerationBudgetError when the scan
        would go over ENUMERATION_BUDGET rows or points; returns [] for the
        empty polyhedron.
        """
        if self._box() is None:
            return []
        if not self.is_bounded():
            ray = self.recession_rays()[0]
            raise UnboundedPolyhedronError(
                f"cannot enumerate lattice points of an unbounded polyhedron "
                f"(recession ray {_linalg.exact_text(ray)})",
                ray=ray,
            )
        if self.rank == 0:
            return [()]
        points = []
        for heads, first, final in self._certified_rows(
            self._vertex_box()[:-1], -inf, inf
        ):
            for head in heads:
                total = len(points) + final - first + 1
                if total > ENUMERATION_BUDGET:
                    raise EnumerationBudgetError(
                        f"enumeration would list at least {total} lattice "
                        f"points, over the budget of {ENUMERATION_BUDGET}",
                        count=total,
                    )
                points.extend(zip(*map(repeat, head), range(first, final + 1)))
        return points

    def _vertex_box(self):
        """One range per coordinate, from the least to the greatest integer
        in its exact range (`_box`), which for a bounded nonempty self is
        the vertices' extent; it holds every lattice point of self."""
        return [
            range(-(-low[0] // low[1]), high[0] // high[1] + 1)
            for low, high in self._box()
        ]

    def _certified_rows(self, outer, low, high):
        """Yield ``(heads, first, final)`` for each run of rows of ``outer``
        x [low, high] that self meets, in lexicographic order: self meets
        each row ``head`` of ``heads``, consecutive along the last range of
        ``outer``, exactly in first..final (rank 1 has the one row ()).
        This is the one reader of the row scan (`_rows`): each run it hands
        on is checked here against `integer_inequalities`, never with the
        scan's floor division, so every row a caller reads is certified.

        Runs.  The scan hands on ``(head, count, certificate)`` for each run
        of ``count`` consecutive rows, from row ``head`` on along the last
        range, that have one certificate.  A row's certificate says which
        inequalities set its interval of the last coordinate within [low,
        high]: ``(lower, first, upper, final)`` for [first, final] (empty
        when final < first), where ``upper`` is the index of the first
        inequality that sets ``final`` and ``lower`` that of the first one
        that sets ``first``, None where ``high`` or ``low`` did; or
        ``(index,)`` when inequality ``index`` is the first that does not
        involve the last coordinate and fails on the whole row.  A run ends
        where the certificate changes: the scan compares the next row, then
        rows 2, 4, 8, ... further on, then bisects between the last equal
        row and the first different one, whose certificate starts the next
        run; rows that all differ cost one certificate each.

        Tiling.  For each choice of the leading coordinates but the last, in
        order, the runs must start at the start of the last range and follow
        each other with no gap, no overlap and no overrun, each of count >= 1,
        and no run may follow the last row; in rank 1 the one run is
        ((), 1, certificate).  So whatever the scan computed, every row gets
        exactly one certificate, or the check fails.

        Certificate.  The tests are filed by index 0..m-1 and by the sign of
        their last-coordinate slope, so an index that names no inequality
        (negative or out of range) or one of the wrong slope finds no test and
        is refused; each test below is made at the run's first row and, when
        the run has more than one, at its last row:
        - (index,): inequality `index` has last-coordinate slope 0 and fails
          on the row, so the row is empty;
        - (lower, first, upper, final): inequality `upper` has positive slope
          and fails at final + 1, hence at every x > final (None: final is at
          or past `high`), and `lower` has negative slope and fails at
          first - 1, hence at every x < first (None: first is at or before
          `low`).  When final < first the row is empty: by Helly's theorem in
          dimension 1, every integer fails one of the two.  Otherwise first
          and final lie in [low, high] and pass every test, so the row is
          exactly first..final.

        The two end rows prove every row between, which also makes the
        scan's bisection sound.  Along a run of rows h, the points
        (h, final + 1), (h, first - 1), (h, first) and (h, final) move on
        segments, since first and final are the run's.  A closed half-space
        that holds at both ends of a segment holds along all of it, and so
        does an open one, the failure of an inequality; [low, high], the
        None cases and the slope-0 inequalities, which do not read the last
        coordinate, do not depend on it.  So each interior row's certificate
        holds exactly as at the ends, whatever the scan did to find the run.

        An empty run costs at most four single-inequality tests.  A run that
        fails raises SelfCheckError naming self and a weight where it fails.
        """
        def refused(weight):
            return SelfCheckError(
                f"enumeration of {self} disagrees with its inequalities at "
                f"weight {_linalg.exact_text(weight)}"
            )

        if outer:
            *leading, inner = outer
        else:
            leading, inner = (), range(1)  # rank 1: one row, head ()
        tests = self.integer_inequalities
        level, rising, falling = {}, {}, {}
        for number, test in enumerate(tests):
            slope = test[0][-1]
            filed = rising if slope > 0 else falling if slope < 0 else level
            filed[number] = test
        runs = self._rows(outer, low, high)
        for prefix in iter_product(*leading):
            y = inner.start
            while y < inner.stop:
                row = prefix + (y,) if outer else ()
                head, count, claim = next(runs, (None, 0, ()))
                if head != row or not 1 <= count <= inner.stop - y:
                    raise refused(row + (low,))
                if count == 1:
                    heads = ends = [row]
                else:
                    heads = [prefix + (x,) for x in range(y, y + count)]
                    ends = heads[0], heads[-1]
                y += count
                if len(claim) == 1:
                    test = level.get(claim[0])
                    for end in ends:
                        # slope 0: the head alone decides the row
                        if test is None or \
                                sum(map(mul, test[0], end)) * test[2] <= test[1]:
                            raise refused(end + (low,))
                    continue
                if len(claim) != 4:
                    raise refused(row + (low,))
                lower, first, upper, final = claim
                for end in ends:
                    point = end + (final + 1,)
                    if upper is None:
                        if final < high:
                            raise refused(point)
                    elif (test := rising.get(upper)) is None or \
                            sum(map(mul, test[0], point)) * test[2] <= test[1]:
                        raise refused(point)
                    point = end + (first - 1,)
                    if lower is None:
                        if first > low:
                            raise refused(point)
                    elif (test := falling.get(lower)) is None or \
                            sum(map(mul, test[0], point)) * test[2] <= test[1]:
                        raise refused(point)
                if final < first:
                    continue
                for x in (first, final):
                    if not low <= x <= high:
                        raise refused(row + (x,))
                for end in ends:
                    for normal, p, q in tests:
                        # <normal, x> * q <= p on the row: slope * x <= room
                        # (map stops at the end of the head, so room takes
                        # the leading part)
                        room = p - q * sum(map(mul, normal, end))
                        slope = normal[-1] * q
                        if slope * first > room:
                            raise refused(end + (first,))
                        if slope * final > room:
                            raise refused(end + (final,))
                yield heads, first, final
        extra = next(runs, None)
        if extra is not None:
            raise refused(tuple(extra[0]) + (low,))

    def _rows(self, outer, low, high):
        """Yield ``(head, count, certificate)`` for each run of rows of
        ``outer`` x [low, high], in the form and order `_certified_rows`,
        its one reader, states and checks.

        Raises EnumerationBudgetError before the first row when the ranges
        hold more than ENUMERATION_BUDGET rows.
        """
        rows = prod(max(values.stop - values.start, 0) for values in outer)
        if rows > ENUMERATION_BUDGET:
            raise EnumerationBudgetError(
                f"enumeration would scan {rows} rows, over the budget of "
                f"{ENUMERATION_BUDGET}",
                count=rows,
            )
        inner = outer[-1] if outer else range(1)  # rank 1: one row, head ()
        if not inner:
            return
        for prefix in iter_product(*outer[:-1]):
            # on the rows of this prefix, <normal, x> * q <= p reads
            # slope * x_last <= base - lead * y at last leading coordinate y
            level, rising, falling = [], [], []
            for index, (normal, base, q) in enumerate(
                self.integer_inequalities
            ):
                if prefix:
                    base -= q * sum(map(mul, normal, prefix))
                lead = q * normal[-2] if outer else 0
                slope = normal[-1] * q
                if slope > 0:
                    rising.append((index, base, lead, slope))
                elif slope < 0:
                    falling.append((index, base, lead, -slope))
                else:
                    level.append((index, base, lead))
            split = level, rising, falling, low, high
            y, stop = inner.start, inner.stop
            claim = _row_certificate(split, y)
            while True:
                good, bad, step = y, stop, 1
                while good + 1 < stop:
                    probe = min(good + step, stop - 1)
                    after = _row_certificate(split, probe)
                    if after != claim:
                        bad = probe
                        break
                    good, step = probe, 2 * step
                while bad - good > 1:
                    middle = (good + bad) // 2
                    found = _row_certificate(split, middle)
                    if found == claim:
                        good = middle
                    else:
                        bad, after = middle, found
                yield prefix + (y,) if outer else (), good + 1 - y, claim
                if bad == stop:
                    break
                y, claim = bad, after

    def is_lattice_polytope(self):
        if self.is_empty():
            raise EmptyPolyhedronError("empty polyhedron is not a lattice polytope")
        if not self.is_bounded():
            raise UnboundedPolyhedronError(
                "lattice-polytope test requires a bounded polyhedron",
                ray=self.recession_rays()[0],
            )
        return all(scale == 1 for _, scale, _ in self._vertex_table())

    # ------------------------------------------------------------------
    # smoothness

    def irredundant_inequalities(self):
        """Subset of inequalities defining the same set, none implied by the rest.

        One pass drops, in order, each inequality that the others still
        kept imply.  An inequality kept once is never implied later: some
        point meets all the others and breaks it, and that point still
        meets every subset of the others.  So one pass keeps what
        restarting from the first inequality after each deletion would.
        """
        kept = list(self.integer_inequalities)
        index = 0
        while index < len(kept):
            rest = kept[:index] + kept[index + 1:]
            if _implied(rest, self.rank, kept[index]):
                del kept[index]
            else:
                index += 1
        return _as_pairs(kept)

    def delzant_failure(self):
        """None when every vertex is smooth, else (vertex, reason).

        A vertex is smooth when it lies on exactly `rank` facets whose
        primitive normals form a basis of the integer lattice (determinant
        +-1).  A bounded polyhedron whose vertex set is a single point *is*
        that point; it counts as smooth (the moment image of a fixed point
        with trivial action), which keeps degenerate point factors
        quantizable.  The inequalities tight at each vertex are read off
        the vertex table.
        """
        if self.is_empty():
            raise EmptyPolyhedronError("empty polyhedron cannot be tested")
        table = self._vertex_table()
        if not table:
            raise NoVerticesError(
                "polyhedron contains a line, so the vertex test is undefined"
            )
        if len(table) == 1 and self.is_bounded():
            return None
        actives = [[row[0] for row in active] for _, _, active in table]
        # A vertex on exactly `rank` inequalities has independent normals,
        # and near it self is the cone they cut out, so each of them defines
        # a facet and `irredundant_inequalities` keeps it.  Only when some
        # vertex is on more are the facets needed to tell which count.
        if any(len(active) != self.rank for active in actives):
            facets = {normal for normal, _ in self.irredundant_inequalities()}
            actives = [
                [normal for normal in active if normal in facets]
                for active in actives
            ]
        for index, active in enumerate(actives):
            if len(active) != self.rank:
                return self.vertices()[index], \
                    f"vertex lies on {len(active)} facets, expected {self.rank}"
            det = _linalg.determinant(active)
            if abs(det) != 1:
                return self.vertices()[index], (
                    f"vertex cone has determinant "
                    f"{_linalg.exact_text(det)}, expected +-1")
        return None

    # ------------------------------------------------------------------
    # constructions

    def translate(self, shift):
        shift = tuple(shift)
        if len(shift) != self.rank:
            raise DimensionMismatchError(
                f"shift of length {len(shift)} applied to rank {self.rank}"
            )
        return LatticePolyhedron._from_rows(
            self.rank, self._shifted_rows(*_linalg.integer_scaled(shift))
        )

    def _shifted_rows(self, shift, scale):
        """The rows of self moved by the int vector ``shift`` over the
        positive int ``scale``, in the same order: the bound p/q moves to
        (p * scale + q * <normal, shift>) / (q * scale), reduced."""
        rows = []
        for normal, p, q in self.integer_inequalities:
            p, q = p * scale + q * sum(map(mul, normal, shift)), q * scale
            common = gcd(p, q)
            rows.append((normal, p // common, q // common))
        return tuple(rows)

    def _is_translate_of(self, other):
        """True iff self equals, as a set, other moved so that its least
        vertex lands on self's least vertex, for nonempty polyhedra of one
        rank that have vertices.  The offset a/s - b/t of the least
        vertices is moved as the int vector a * t - b * s over s * t."""
        anchor, scale, _ = self._vertex_table()[0]
        other_anchor, other_scale, _ = other._vertex_table()[0]
        offset = tuple(
            a * other_scale - b * scale for a, b in zip(anchor, other_anchor)
        )
        return self.set_equals(LatticePolyhedron._from_rows(
            self.rank, other._shifted_rows(offset, scale * other_scale)
        ))

    def product(self, other):
        left = [
            (normal + (0,) * other.rank, p, q)
            for normal, p, q in self.integer_inequalities
        ]
        right = [
            ((0,) * self.rank + normal, p, q)
            for normal, p, q in other.integer_inequalities
        ]
        return LatticePolyhedron._from_rows(self.rank + other.rank, left + right)

    def with_inequality(self, normal, bound):
        merged = {row[0]: row for row in self.integer_inequalities}
        _merge_row(merged, _integer_row(self.rank, normal, bound))
        return LatticePolyhedron._from_rows(self.rank, merged.values())

    def reflect_through_origin(self):
        """The set {-x : x in self}."""
        return LatticePolyhedron._from_rows(self.rank, [
            (tuple(-n for n in normal), p, q)
            for normal, p, q in self.integer_inequalities
        ])

    # ------------------------------------------------------------------
    # serialization

    def to_payload(self):
        return {
            "rank": self.rank,
            "inequalities": [
                {"normal": list(normal),
                 "bound": _linalg.exact_text(Fraction(p, q))}
                for normal, p, q in self.integer_inequalities
            ],
        }

    @classmethod
    def from_payload(cls, data, where="polyhedron"):
        """The polyhedron of a bquant/1 payload, refused with a ParseError
        naming the JSON path of its first fault.  A rank whose square is
        over ENUMERATION_BUDGET raises EnumerationBudgetError: checking the
        polyhedron eliminates rank * (rank - 1) times even with no rows."""
        rank, raw = _fields(data, where, ("rank", "inequalities"))
        if not isinstance(rank, int) or isinstance(rank, bool) or rank < 0:
            raise ParseError(f"{where}.rank: expected a nonnegative integer")
        if rank * rank > ENUMERATION_BUDGET:
            raise EnumerationBudgetError(
                f"{where}.rank: rank {rank} squared is {rank * rank}, over "
                f"the budget of {ENUMERATION_BUDGET}",
                count=rank * rank,
            )
        if not isinstance(raw, list):
            raise ParseError(f"{where}.inequalities: expected a list")
        merged = {}
        for index, item in enumerate(raw):
            spot = f"{where}.inequalities[{index}]"
            normal, bound = _fields(item, spot, ("normal", "bound"))
            normal = _expect_int_list(normal, f"{spot}.normal")
            p, q = _parse_exact_number(bound, f"{spot}.bound")
            if len(normal) != rank:
                raise ParseError(
                    f"{spot}.normal: length {len(normal)} does not match rank {rank}"
                )
            if not any(normal):
                raise ParseError(f"{spot}.normal: must be nonzero")
            _merge_row(merged, _reduced_row(normal, p, q))
        return cls._from_rows(rank, merged.values())


def _row_certificate(split, y):
    """The certificate LatticePolyhedron._rows hands on for the row at last
    leading coordinate y, from the inequalities `split` into those free of
    the last coordinate and those rising and falling in it, each with its
    index, base and lead (and slope, positive), and the window's ends."""
    level, rising, falling, first, last = split
    for index, base, lead in level:
        if base < lead * y:
            return (index,)
    lower = upper = None
    for index, base, lead, slope in rising:
        if (bound := (base - lead * y) // slope) < last:
            last, upper = bound, index
    for index, base, lead, slope in falling:
        if (bound := -((base - lead * y) // slope)) > first:
            first, lower = bound, index
    return lower, first, upper, last


def _inequality_text(normal, p, q):
    terms = []
    for index, coefficient in enumerate(normal):
        if coefficient == 0:
            continue
        name = f"x{index + 1}"
        if coefficient == 1:
            piece = name
        elif coefficient == -1:
            piece = f"-{name}"
        else:
            piece = f"{coefficient}*{name}"
        if terms and not piece.startswith("-"):
            piece = "+ " + piece
        elif terms:
            piece = "- " + piece[1:]
        terms.append(piece)
    return f"{' '.join(terms)} <= {_linalg.exact_text(Fraction(p, q))}"
