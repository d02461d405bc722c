"""Exact rational linear algebra helpers.

Everything here works over Python ints and fractions.Fraction; nothing is
ever rounded.  The eliminations are fraction-free: row reduction, the
determinant and Fourier-Motzkin work on integer rows and divide only where
the quotient is exact.  A Fraction is built only by exact, for a number
handed in: solve_unique gives its solution as an int point over a scale,
and fm_box each finite end of a range as its reduced pair (p, q) for p/q.
Both Fourier-Motzkin entry points, fm_feasible and fm_box, take a
polyhedron's stored rows ``(normal, p, q)`` for <normal, x> * q <= p.
Scales are small (rank <= 3, handfuls of rows), so the algorithms favour
clarity over asymptotics.
"""

from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm
from operator import mul

__all__ = [
    "vector_gcd",
    "make_primitive",
    "exact",
    "exact_text",
    "integer_scaled",
    "dot",
    "solve_unique",
    "determinant",
    "rational_kernel_basis",
    "lattice_kernel_basis",
    "hnf_rows",
    "fm_feasible",
    "fm_box",
]


def vector_gcd(vec):
    """The nonnegative gcd of the entries of an int vector; 0 for a zero or
    empty one."""
    return gcd(*vec)


def make_primitive(vec):
    """Divide an integer vector by the gcd of its entries (direction kept)."""
    g = vector_gcd(vec)
    if g == 0:
        return tuple(vec)
    return tuple(entry // g for entry in vec)


def exact(value):
    """``value`` as an int or a Fraction; those are returned as they are.
    A str or a bool raises TypeError: text is parsed only by the file
    reader, and a truth value is not a number.  An infinity or a NaN
    raises ValueError naming it."""
    if type(value) in (int, Fraction):
        return value
    if isinstance(value, (str, bool)):
        raise TypeError(f"expected an exact number, got {value!r}")
    try:
        return Fraction(value)
    except (OverflowError, ValueError):
        raise ValueError(f"expected a finite number, got {value!r}") from None


def exact_text(value):
    """``str(value)`` for an int, a Fraction or a tuple of ints, also past
    Python's limit on int-to-decimal conversion
    (``sys.get_int_max_str_digits``), which a number derived from literals
    under the limit can pass: there the digits come from decimal.Decimal,
    which converts exactly and has no such limit."""
    try:
        return str(value)
    except ValueError:
        if type(value) is tuple:
            inner = ", ".join(map(exact_text, value))
            return f"({inner},)" if len(value) == 1 else f"({inner})"
        if type(value) is Fraction and value.denominator != 1:
            return f"{exact_text(value.numerator)}/{exact_text(value.denominator)}"
        return str(Decimal(int(value)))


def integer_scaled(vec):
    """(ints, scale): the rational vector times the least positive integer
    ``scale`` that makes every entry an integer."""
    if all(type(x) is int for x in vec):
        return list(vec), 1
    entries = [exact(x) for x in vec]
    scale = lcm(*[x.denominator for x in entries])
    return [x.numerator * (scale // x.denominator) for x in entries], scale


def dot(a, b):
    return sum(map(mul, a, b))


def _row_reduce(rows):
    """Fraction-free Gauss-Jordan elimination.

    Returns (integer rows, pivot column list).  Dividing each of the first
    len(pivots) rows by its entry in its pivot column gives the reduced row
    echelon form of `rows`; the remaining rows are zero.
    """
    mat = [integer_scaled(row)[0] for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        pivot = mat[r]
        p = pivot[c]
        for i in range(len(mat)):
            a = mat[i][c]
            if i != r and a != 0:
                # p * row - a * pivot keeps each row a nonzero multiple of
                # the corresponding row of the rational elimination
                row = [p * x - a * y for x, y in zip(mat[i], pivot)]
                g = vector_gcd(row)
                mat[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def solve_unique(rows, rhs):
    """The solution of rows * x = rhs as ``(point, scale)``, the int tuple
    ``point`` over the least positive int ``scale``; None unless it is
    unique, that is, unless the pivots of the augmented rows
    (`_row_reduce`) are the coefficient columns, each pivot row reading
    x_c = b / pivot."""
    if not rows:
        return ((), 1) if not rhs else None
    ncols = len(rows[0])
    mat, pivots = _row_reduce([list(row) + [b] for row, b in zip(rows, rhs)])
    if pivots != list(range(ncols)):
        return None
    pivot_rows = mat[:ncols]
    scale = lcm(1, *(row[c] for c, row in enumerate(pivot_rows)))
    point = [row[-1] * (scale // row[c]) for c, row in enumerate(pivot_rows)]
    common = gcd(scale, *point)  # scale // common is the least scale
    return tuple(x // common for x in point), scale // common


def determinant(rows):
    """Exact determinant of a square integer matrix, as an int.

    Fraction-free Bareiss elimination: after step k, entry (i, j) with
    i, j > k is the minor on rows 0..k, i and columns 0..k, j of the
    row-swapped matrix, so each division by the previous pivot is exact,
    every entry stays an int, and the last entry is the determinant up to
    the sign of the swaps.
    """
    mat = [list(row) for row in rows]
    n = len(mat)
    sign, previous = 1, 1
    for c in range(n - 1):
        pivot_row = next((i for i in range(c, n) if mat[i][c]), None)
        if pivot_row is None:
            return 0
        if pivot_row != c:
            mat[c], mat[pivot_row] = mat[pivot_row], mat[c]
            sign = -sign
        pivot = mat[c]
        p = pivot[c]
        for i in range(c + 1, n):
            a = mat[i][c]
            mat[i] = [(p * x - a * y) // previous
                      for x, y in zip(mat[i], pivot)]
        previous = p
    return sign * mat[-1][-1] if n else 1


def rational_kernel_basis(rows, ncols):
    """Primitive integer vectors spanning {x : rows @ x = 0} over the rationals.

    The basis is the standard free-column one from reduced row echelon form,
    so it is deterministic; it need not generate the integer kernel lattice.
    """
    mat, pivots = _row_reduce(rows)
    pivot_set = set(pivots)
    # common multiple of the pivots: scaling every vector by it keeps the
    # entries integral, and make_primitive removes the scale again
    scale = 1
    for row, c in zip(mat, pivots):
        scale = lcm(scale, row[c])
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [0] * ncols
        vec[free] = scale
        for row, c in zip(mat, pivots):
            vec[c] = -row[free] * (scale // row[c])
        basis.append(make_primitive(vec))
    return basis


def lattice_kernel_basis(covector):
    """Z-basis of {u in Z^n : <covector, u> = 0}, in canonical row-HNF form.

    Let s be the primitive covector of the same kernel.  The Koszul
    relations s_j e_i - s_i e_j (i < j) generate the lattice kernel, not
    merely a rational one: pick c in Z^n with <c, s> = 1; then every kernel
    vector a is sum over i < j of (a_i c_j - a_j c_i)(s_j e_i - s_i e_j).
    Raises ValueError for the zero covector.
    """
    if not any(covector):
        raise ValueError("lattice_kernel_basis needs a nonzero covector")
    s = make_primitive(covector)
    n = len(s)
    relations = []
    for i in range(n):
        for j in range(i + 1, n):
            relation = [0] * n
            relation[i], relation[j] = s[j], -s[i]
            relations.append(relation)
    return hnf_rows(relations)


def hnf_rows(rows):
    """Row-style Hermite normal form basis of the lattice generated by `rows`.

    Pivots are positive, strictly right-moving, and entries above each pivot
    are reduced into [0, pivot), which makes the output canonical.
    """
    working = [list(r) for r in rows if any(r)]
    if not working:
        return []
    ncols = len(working[0])
    result = []
    col = 0
    while working and col < ncols:
        involved = [r for r in working if r[col] != 0]
        rest = [r for r in working if r[col] == 0]
        if not involved:
            col += 1
            continue
        # gcd out the column with integer row operations
        while len(involved) > 1:
            involved.sort(key=lambda r: abs(r[col]))
            base = involved[0]
            reduced = [base]
            for r in involved[1:]:
                q = r[col] // base[col]
                new = [x - q * y for x, y in zip(r, base)]
                if new[col] != 0:
                    reduced.append(new)
                elif any(new):
                    rest.append(new)
            involved = reduced
        pivot_row = involved[0]
        if pivot_row[col] < 0:
            pivot_row = [-x for x in pivot_row]
        result.append(pivot_row)
        working = rest
        col += 1
    # normalize entries above each pivot into [0, pivot)
    for i in range(len(result)):
        for j in range(i + 1, len(result)):
            pivot_col = next(c for c, x in enumerate(result[j]) if x != 0)
            p = result[j][pivot_col]
            q = result[i][pivot_col] // p
            if q:
                result[i] = [x - q * y for x, y in zip(result[i], result[j])]
    return [tuple(r) for r in result]


def _absorb(system, coeffs, num, den, strict):
    """Add <coeffs, x> <= num/den (< if strict) to ``system``, a dict of
    coeffs -> (num, den, strict), keeping the tightest row per direction."""
    held = system.get(coeffs)
    if held is not None:
        held_num, held_den, held_strict = held
        if num * held_den > held_num * den or (
            num * held_den == held_num * den and not strict
        ):
            return
    system[coeffs] = (num, den, strict)


def _eliminate(system, var):
    """One Fourier-Motzkin step: the system, in the same form, that the
    projection eliminating variable ``var`` satisfies, or None when a
    combination reads 0 <= negative (or 0 < 0), so the system is
    infeasible.

    Coefficients are coprime ints and each bound is a reduced pair
    (numerator, positive denominator), so the step never builds a
    Fraction; the combination of two rows is strict when either is.
    """
    positive, negative, carried = [], [], {}
    for coeffs, held in system.items():
        coefficient = coeffs[var]
        if coefficient > 0:
            positive.append((coeffs, *held))
        elif coefficient < 0:
            negative.append((coeffs, *held))
        else:
            carried[coeffs] = held
    for up_coeffs, up_num, up_den, up_strict in positive:
        alpha = up_coeffs[var]
        for lo_coeffs, lo_num, lo_den, lo_strict in negative:
            beta = -lo_coeffs[var]  # > 0
            combo = [beta * u + alpha * l for u, l in zip(up_coeffs, lo_coeffs)]
            num = beta * up_num * lo_den + alpha * lo_num * up_den
            den = up_den * lo_den
            strict = up_strict or lo_strict
            g = vector_gcd(combo)
            if g == 0:
                if num < 0 or (strict and num == 0):
                    return None
                continue
            if g > 1:
                combo = [x // g for x in combo]
                den *= g
            common = gcd(num, den)
            if common > 1:
                num //= common
                den //= common
            _absorb(carried, tuple(combo), num, den, strict)
    return carried


def fm_feasible(rows, nvars, strict=None):
    """Exact feasibility of {x : <normal, x> * q <= p for each row}, with
    the one row ``strict``, if given, held strictly: <normal, x> * q < p.

    Rows are integer triples ``(normal, p, q)`` as in :func:`fm_box`.
    Fourier-Motzkin elimination (:func:`_eliminate`, one variable at a
    time) with strictness tracking.  Each step drops every row that
    involves its variable and no normal is zero, so the set is feasible
    iff no step meets a contradiction.  Fine at desk scale.
    """
    system = {}
    for normal, p, q in rows:
        _absorb(system, normal, p, q, False)
    if strict is not None:
        _absorb(system, *strict, True)
    for var in reversed(range(nvars)):
        system = _eliminate(system, var)
        if system is None:
            return False
    return True


def fm_box(rows, nvars):
    """Exact range of each coordinate over {x : <normal, x> * q <= p}, one
    ``(low, high)`` pair per coordinate, each finite end the reduced pair
    ``(p, q)``, q > 0, of the rational p/q and None for an unbounded end;
    None when the set is empty.

    ``rows`` are integer triples ``(normal, p, q)`` with coprime normal
    entries, q > 0 and p/q reduced.  The range of x_i is the projection of
    the set onto that axis: Fourier-Motzkin elimination (:func:`_eliminate`)
    of every other variable leaves at most the two rows x_i <= p/q and
    -x_i <= p/q, since normals stay primitive and only the tightest row per
    direction is kept, and each bound stays a reduced pair.  The projection
    is exact, so the set is empty iff an elimination meets a contradiction
    or a range is empty.
    """
    system = {}
    for normal, p, q in rows:
        _absorb(system, normal, p, q, False)
    box = []
    for var in range(nvars):
        projected = system
        for other in range(nvars):
            if other != var:
                projected = _eliminate(projected, other)
                if projected is None:
                    return None
        before, after = (0,) * var, (0,) * (nvars - 1 - var)
        upper = projected.get(before + (1,) + after)
        lower = projected.get(before + (-1,) + after)
        if upper is not None and lower is not None and (
            upper[0] * lower[1] < -lower[0] * upper[1]  # up < -lo
        ):
            return None
        box.append((
            None if lower is None else (-lower[0], lower[1]),
            None if upper is None else upper[:2],
        ))
    return tuple(box)
