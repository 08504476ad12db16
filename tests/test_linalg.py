import random
from fractions import Fraction
from itertools import combinations

from jordanred.gaussrat import gr
from jordanred.linalg import RowSpan, invert, mat_mul, nullspace, rank, rref


def frac_matrix(rows):
    return [[Fraction(v) for v in r] for r in rows]


def random_matrix(rng, n, m, kind):
    """An n x m matrix with small entries: int, Fraction or GaussRational."""
    if kind == "int":
        return [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
    if kind == "fraction":
        return [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m)]
                for _ in range(n)]
    return [[gr(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(m)]
            for _ in range(n)]


def low_rank_matrix(rng, n, m, kind):
    """A product (n x k)(k x m) with k below min(n, m) half of the time."""
    k = rng.randint(0, min(n, m)) if rng.random() < 0.5 else min(n, m)
    if k == 0:
        return random_matrix(rng, n, m, kind)
    return mat_mul(random_matrix(rng, n, k, kind), random_matrix(rng, k, m, kind))


def cofactor_det(a):
    """Determinant by Laplace expansion along the first row: no elimination."""
    if len(a) == 1:
        return a[0][0]
    total = 0
    for j, x in enumerate(a[0]):
        if x:
            minor = [row[:j] + row[j + 1:] for row in a[1:]]
            term = x * cofactor_det(minor)
            total = total + term if j % 2 == 0 else total - term
    return total


def rank_by_minors(a):
    """The largest k with a nonzero k x k minor."""
    n, m = len(a), len(a[0])
    for k in range(min(n, m), 0, -1):
        for rows in combinations(range(n), k):
            for cols in combinations(range(m), k):
                if cofactor_det([[a[i][j] for j in cols] for i in rows]):
                    return k
    return 0


def test_rank_agrees_with_minors():
    rng = random.Random(1)
    for kind in ("int", "fraction", "gauss"):
        seen = set()
        for _ in range(25):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            a = low_rank_matrix(rng, n, m, kind)
            r = rank_by_minors(a)
            assert rank(a) == r, (kind, a)
            seen.add(r < min(n, m))
        assert seen == {True, False}  # both full-rank and deficient cases ran


def test_nullspace_is_kernel():
    rng = random.Random(2)
    for kind in ("fraction", "gauss"):
        for _ in range(30):
            n, m = rng.randint(1, 5), rng.randint(1, 7)
            a = low_rank_matrix(rng, n, m, kind)
            basis = nullspace(a)
            assert len(basis) == m - rank(a)
            for v in basis:
                for row in a:
                    assert not sum((c * x for c, x in zip(row, v)), 0)
            if basis:
                assert rank(basis) == len(basis)


def test_nullspace_gauss_rational():
    a = [[gr(1), gr(0, 1), gr(0)], [gr(0), gr(0), gr(0)]]
    basis = nullspace(a)
    assert len(basis) == 2
    for v in basis:
        assert (v[0] + gr(0, 1) * v[1]).is_zero()


def test_invert_round_trip():
    rng = random.Random(3)
    for kind in ("fraction", "gauss"):
        count = 0
        while count < 15:
            n = rng.randint(1, 5)
            a = random_matrix(rng, n, n, kind)
            if rank(a) < n:
                try:
                    invert(a)
                except ValueError as exc:
                    assert str(exc) == "singular matrix"
                else:
                    raise AssertionError("singular matrix inverted")
                continue
            count += 1
            inv = invert(a)
            for prod in (mat_mul(a, inv), mat_mul(inv, a)):
                for i in range(n):
                    for j in range(n):
                        assert prod[i][j] == (1 if i == j else 0)


def test_rref_pivots():
    a = frac_matrix([[0, 2, 1], [0, 4, 2], [1, 0, 0]])
    red, pivots = rref(a)
    assert pivots == [0, 1]
    assert red == frac_matrix([[1, 0, 0], [0, 1, Fraction(1, 2)]])


def test_row_span_membership():
    span = RowSpan([[Fraction(1), Fraction(2), Fraction(0)],
                    [Fraction(0), Fraction(1), Fraction(1)]])
    assert span.dim == 2
    assert span.contains([Fraction(1), Fraction(3), Fraction(1)])
    assert not span.contains([Fraction(0), Fraction(0), Fraction(1)])
    assert not span.add([Fraction(2), Fraction(4), Fraction(0)])
    assert span.add([Fraction(0), Fraction(0), Fraction(1)])
    assert span.dim == 3
