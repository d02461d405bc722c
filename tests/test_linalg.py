"""Exact linear algebra helpers."""

import random
from fractions import Fraction
from math import lcm
from operator import mul

import pytest

from conftest import solve_by_fractions

from bquant import _linalg as la


def reduce_mod_hnf(vec, hnf_basis):
    """Canonical representative of vec modulo the lattice with row-HNF basis."""
    out = list(vec)
    for row in hnf_basis:
        pivot_col = next(c for c, x in enumerate(row) if x != 0)
        q = out[pivot_col] // row[pivot_col]
        if q:
            out = [x - q * y for x, y in zip(out, row)]
    return tuple(out)


def test_vector_gcd():
    assert la.vector_gcd((6, 10, 15)) == 1
    assert la.vector_gcd((4, -6)) == 2
    assert la.vector_gcd((0, 0)) == 0
    assert la.vector_gcd(()) == 0


def test_make_primitive():
    assert la.make_primitive((4, -6)) == (2, -3)
    assert la.make_primitive((0, 5)) == (0, 1)
    assert la.make_primitive((0, 0)) == (0, 0)
    assert la.make_primitive((-3,)) == (-1,)  # sign preserved


def test_dot():
    assert la.dot((1, 2), (3, -4)) == -5
    assert la.dot((), ()) == 0


def test_solve_unique():
    assert la.solve_unique([(2, 0), (0, 1)], [4, 3]) == ((2, 3), 1)
    # underdetermined
    assert la.solve_unique([(1, 1)], [1]) is None
    # inconsistent
    assert la.solve_unique([(1, 0), (1, 0)], [0, 1]) is None
    # redundant but consistent rows still pin the answer
    assert la.solve_unique([(1, 0), (1, 0), (0, 1)], [2, 2, 5]) == ((2, 5), 1)
    # empty system in zero variables has the empty solution
    assert la.solve_unique([], []) == ((), 1)
    # square singular systems have no unique solution
    assert la.solve_unique([(1, 2), (2, 4)], [1, 2]) is None
    # rational entries on both sides: (13/3, 1/3) over its least scale
    assert la.solve_unique(
        [(Fraction(1, 2), 1), (0, Fraction(3))], [Fraction(5, 2), 1]
    ) == ((13, 1), 3)
    # negative pivots: x = -1/2, y = 3/4, the scale stays positive
    point, scale = la.solve_unique([(-2, 0), (0, -4)], [1, -3])
    assert (point, scale) == ((-2, 3), 4)
    assert all(type(x) is int for x in (*point, scale))


def test_solve_unique_matches_the_fraction_solver():
    # 2,760 square systems of rank 1-4 (random_matrices: dense, singular,
    # unimodular, with zero columns), each with a right-hand side in its
    # image and two random ones, so singular systems come consistent and,
    # almost always, inconsistent; about 0.2 s.  The integer solution is
    # the Fraction solver's over its least scale, and a system has one iff
    # its determinant is not zero, where rows * point = rhs * scale
    rng = random.Random(1968)
    seen = dict.fromkeys(
        ("unique", "singular image", "singular random", "negative pivot"), 0
    )
    for _, mat in random_matrices(rng):
        n = len(mat)
        if not n:
            continue
        image = [rng.randint(-9, 9) for _ in range(n)]
        for kind, rhs in (
            ("image", [sum(map(mul, row, image)) for row in mat]),
            ("random", [rng.randint(-9, 9) for _ in range(n)]),
            ("random", [rng.randint(-2**40, 2**40) for _ in range(n)]),
        ):
            solved = la.solve_unique(mat, rhs)
            expected = solve_by_fractions(mat, rhs)
            if expected is not None:
                scale = lcm(1, *(x.denominator for x in expected))
                expected = tuple(int(x * scale) for x in expected), scale
            assert solved == expected
            if la.determinant(mat):
                seen["unique"] += 1
                point, scale = solved
                assert [sum(map(mul, row, point)) for row in mat] == \
                    [b * scale for b in rhs]
            else:
                seen[f"singular {kind}"] += 1
                assert solved is None
            seen["negative pivot"] += mat[0][0] < 0
    assert sum(seen.values()) - seen["negative pivot"] >= 2000, seen
    assert min(seen.values()) >= 100, seen


def test_determinant():
    assert la.determinant([]) == 1
    assert la.determinant([(5,)]) == 5
    assert la.determinant([(1, 2), (3, 4)]) == -2
    assert la.determinant([(0, 1), (1, 0)]) == -1
    assert la.determinant([(1, 2), (2, 4)]) == 0


def fraction_determinant(rows):
    """Determinant by Fraction-valued Gaussian elimination, the reference
    for the fraction-free one."""
    n = len(rows)
    mat = [[Fraction(entry) for entry in row] for row in rows]
    det = Fraction(1)
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if mat[i][c] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            mat[c], mat[pivot_row] = mat[pivot_row], mat[c]
            det = -det
        det *= mat[c][c]
        for i in range(c + 1, n):
            factor = mat[i][c] / mat[c][c]
            mat[i] = [x - factor * y for x, y in zip(mat[i], mat[c])]
    return det


def random_matrices(rng):
    """(label, square integer matrix) of sizes 0-4: dense ones with entries
    up to 3, 2**20 and 2**40 in size, singular ones (a row repeated up to a
    multiple, or a combination of two others), unimodular ones (products
    of elementary matrices and signed permutations) and ones with zero
    columns or leading zeros that force a row swap."""
    for n in range(5):
        for bound in (3, 2**20, 2**40):
            for _ in range(40):
                yield "dense", [
                    [rng.randint(-bound, bound) for _ in range(n)]
                    for _ in range(n)
                ]
        for _ in range(40):
            mat = [[rng.randint(-2**40, 2**40) for _ in range(n)]
                   for _ in range(n)]
            if n >= 2:
                i, j = rng.sample(range(n), 2)
                k = rng.randint(-5, 5)
                mat[i] = [k * x for x in mat[j]]
                yield "multiple", [row[:] for row in mat]
            if n >= 3:
                a, b, c = rng.sample(range(n), 3)
                s, t = rng.randint(-9, 9), rng.randint(-9, 9)
                mat[c] = [s * x + t * y for x, y in zip(mat[a], mat[b])]
                yield "combination", [row[:] for row in mat]
        for _ in range(40):
            mat = [[int(i == j) for j in range(n)] for i in range(n)]
            for _ in range(3 * n):
                if n >= 2:
                    i, j = rng.sample(range(n), 2)
                    k = rng.randint(-2**10, 2**10)
                    mat[i] = [x + k * y for x, y in zip(mat[i], mat[j])]
            order = list(range(n))
            rng.shuffle(order)
            signs = [rng.choice((-1, 1)) for _ in range(n)]
            mat = [[sign * x for x in mat[i]] for i, sign in zip(order, signs)]
            yield "unimodular", mat
        for _ in range(20):
            mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            if n:
                column = rng.randrange(n)
                for row in mat[:rng.randint(1, n)]:
                    row[column] = 0
            yield "zeros", mat


def test_determinant_matches_the_fraction_elimination():
    rng = random.Random(2 ** 40)
    seen = {}
    for label, mat in random_matrices(rng):
        det = la.determinant(mat)
        assert type(det) is int
        assert det == fraction_determinant(mat), (label, mat)
        if label in ("multiple", "combination"):
            assert det == 0, (label, mat)
        if label == "unimodular":
            assert abs(det) == 1, mat
        # the Delzant messages print the determinant
        assert str(det) == str(fraction_determinant(mat))
        seen[label, det == 0] = seen.get((label, det == 0), 0) + 1
    assert seen[("dense", True)] and seen[("zeros", True)]
    assert seen[("zeros", False)] and seen[("dense", False)] > 500


def test_rational_kernel_basis():
    basis = la.rational_kernel_basis([(1, 1)], 2)
    assert len(basis) == 1
    assert la.dot((1, 1), basis[0]) == 0
    assert la.rational_kernel_basis([(1, 0), (0, 1)], 2) == []
    full = la.rational_kernel_basis([], 2)
    assert len(full) == 2


@pytest.mark.parametrize(
    "covector",
    [(1,), (2,), (1, 1), (1, 2), (2, 3), (0, 1), (1, 0), (3, -5), (6, 10, 15),
     (1, 1, 1), (0, 0, 1)],
)
def test_lattice_kernel_basis_spans_integer_kernel(covector):
    """Every small integer kernel vector must reduce to zero mod the basis;
    this is the lattice (not just rational) spanning property."""
    n = len(covector)
    basis = la.lattice_kernel_basis(covector)
    assert len(basis) == n - 1
    for row in basis:
        assert la.dot(covector, row) == 0
    box = range(-4, 5)
    from itertools import product

    for vec in product(box, repeat=n):
        if la.dot(covector, vec) == 0:
            assert reduce_mod_hnf(vec, basis) == (0,) * n


def test_lattice_kernel_basis_is_canonical():
    assert la.lattice_kernel_basis((1, 1)) == la.lattice_kernel_basis((1, 1))
    assert la.lattice_kernel_basis((1,)) == []


def test_lattice_kernel_basis_refuses_the_zero_covector():
    for n in (1, 3):
        with pytest.raises(ValueError):
            la.lattice_kernel_basis((0,) * n)


def xgcd(a, b):
    """(g, s, t) with s*a + t*b = g = gcd(a, b), g >= 0."""
    old_r, r, old_s, s, old_t, t = a, b, 1, 0, 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def kernel_by_column_operations(covector):
    """The lattice kernel by unimodular column operations carrying the
    covector to (g, 0, ..., 0): the transformed columns 2..n are a lattice
    basis of the kernel."""
    n = len(covector)
    cols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    work = list(covector)
    for j in range(1, n):
        if work[j] == 0:
            continue
        g, s, t = xgcd(work[0], work[j])
        a_over_g, b_over_g = work[0] // g, work[j] // g
        col0, colj = cols[0], cols[j]
        cols[0] = [s * x + t * y for x, y in zip(col0, colj)]
        cols[j] = [-b_over_g * x + a_over_g * y for x, y in zip(col0, colj)]
        work[0], work[j] = g, 0
    return la.hnf_rows([tuple(cols[j]) for j in range(1, n)])


def test_lattice_kernel_basis_agrees_with_column_operations():
    # row HNF is unique per lattice, so the two routes give the same rows
    rng = random.Random(20)
    seen = {"checked": 0, "non-primitive": 0, "with zeros": 0}
    while seen["checked"] < 10_000:
        n = rng.randint(1, 5)
        scale = rng.choice((1, 1, 2, 3, 6))
        covector = tuple(
            scale * rng.choice((0, rng.randint(-9, 9), rng.randint(-60, 60)))
            for _ in range(n)
        )
        if not any(covector):
            continue
        seen["checked"] += 1
        seen["non-primitive"] += la.vector_gcd(covector) > 1
        seen["with zeros"] += 0 in covector
        assert la.lattice_kernel_basis(covector) == \
            kernel_by_column_operations(covector), covector
    assert min(seen.values()) > 1000


def test_hnf_rows_canonical_under_row_operations():
    rng = random.Random(7)
    rows = [(2, 1, 0), (0, 3, 1)]
    reference = la.hnf_rows(rows)
    for _ in range(20):
        shuffled = [list(r) for r in rows]
        rng.shuffle(shuffled)
        i, j = rng.randrange(2), rng.randrange(2)
        if i != j:
            k = rng.randint(-3, 3)
            shuffled[i] = [a + k * b for a, b in zip(shuffled[i], shuffled[j])]
        if rng.random() < 0.5:
            shuffled[0] = [-a for a in shuffled[0]]
        assert la.hnf_rows(shuffled) == reference


def test_hnf_rows_shape():
    out = la.hnf_rows([(0, 2), (3, 1)])
    # pivots positive and right-moving, entries above pivots reduced
    assert out == [(3, 1), (0, 2)]
    assert la.hnf_rows([(0, 0)]) == []
    assert la.hnf_rows([]) == []


def test_reduce_mod_hnf():
    basis = la.hnf_rows([(0, 1)])
    assert reduce_mod_hnf((1, 7), basis) == (1, 0)
    assert reduce_mod_hnf((1, 0), basis) == (1, 0)
    # congruence: difference lies in the lattice
    assert reduce_mod_hnf((4, -9), [(2, 0), (0, 3)]) == (0, 0)


def test_fm_feasible():
    # [0, 1]
    assert la.fm_feasible([((1,), 1, 1), ((-1,), 0, 1)], 1)
    # x <= 0 and x >= 1
    assert not la.fm_feasible([((1,), 0, 1), ((-1,), -1, 1)], 1)
    # strictness matters: x < 0 and x >= 0
    assert not la.fm_feasible([((-1,), 0, 1)], 1, ((1,), 0, 1))
    # ... also when the strict row shares its normal with a row: x <= 0,
    # x >= 0 and x < 0
    assert not la.fm_feasible([((1,), 0, 1), ((-1,), 0, 1)], 1, ((1,), 0, 1))
    # a half-open interval is feasible over the rationals
    assert la.fm_feasible([((-1,), 0, 1)], 1, ((1,), 1, 1))
    # no constraints, no variables
    assert la.fm_feasible([], 0)
    # rational bounds p/q: x <= 1/2 and x >= 1/2, then x < 1/2 as well
    half = [((1,), 1, 2), ((-1,), -1, 2)]
    assert la.fm_feasible(half, 1)
    assert not la.fm_feasible(half, 1, ((1,), 1, 2))


def test_fm_feasible_2d_wedge():
    system = [((1, 1), 2, 1), ((-1, 0), 0, 1), ((0, -1), 0, 1)]
    assert la.fm_feasible(system, 2)
    assert not la.fm_feasible(system, 2, ((1, 1), -1, 1))


def test_fm_box():
    # each finite end is the reduced pair (p, q), q > 0, of p/q
    # the triangle x, y >= 0, x + y <= 2: each coordinate ranges over [0, 2]
    rows = [((-1, 0), 0, 1), ((0, -1), 0, 1), ((1, 1), 2, 1)]
    assert la.fm_box(rows, 2) == (((0, 1), (2, 1)), ((0, 1), (2, 1)))
    # the wedge without its cap is unbounded above on both axes
    assert la.fm_box(rows[:2], 2) == (((0, 1), None), ((0, 1), None))
    # 2x <= 1 and y <= 5/3 with y >= x: ranges (-oo, 1/2] and (-oo, 5/3]
    rows = [((1, 0), 1, 2), ((0, 1), 5, 3), ((1, -1), 0, 1)]
    assert la.fm_box(rows, 2) == ((None, (1, 2)), (None, (5, 3)))
    # -3x <= 2 and x <= 7/3, with y between them: ranges [-2/3, 7/3] and
    # [-2/3, 7/3], the lower end negated from its row and still reduced
    rows = [((-1, 0), 2, 3), ((1, 0), 7, 3), ((1, -1), 0, 1), ((-1, 1), 0, 1)]
    assert la.fm_box(rows, 2) == (((-2, 3), (7, 3)), ((-2, 3), (7, 3)))
    # x + y <= 0 and x + y >= 1: empty, found while eliminating
    assert la.fm_box([((1, 1), 0, 1), ((-1, -1), -1, 1)], 2) is None
    # x <= 0 and x >= 1/2: empty, found when the range is read
    assert la.fm_box([((1,), 0, 1), ((-1,), -1, 2)], 1) is None
    assert la.fm_box([], 0) == ()
    assert la.fm_box([], 2) == ((None, None), (None, None))
