import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from jordanred.gaussrat import GR_ONE, GR_ZERO, GaussRational, to_numerators
from jordanred.linalg import RowSpan, invert, nullspace, rank
from test_flat_kernels import as_triple, mat_mul, ref_rank, ref_rref, vector_view, view


def frac_matrix(rows):
    return [[Fraction(v) for v in r] for r in rows]


def numerator_rows(rows):
    """The rows of a matrix of Q(i) scalars as integer numerator pairs (re, im)."""
    return [to_numerators(r)[:2] for r in rows]


def span_rref(span, ncols):
    """(rows, pivots): the GaussRational view of the reduced rows of a RowSpan."""
    pivots = sorted(span.rows)
    out = []
    for p in pivots:
        row, d = span.rows[p]
        vec = [GR_ZERO] * ncols
        for j, (a, b) in row.items():
            vec[j] = GaussRational._make(a, b, d)
        out.append(vec)
    return out, pivots


def random_matrix(rng, n, m, kind):
    """An n x m matrix with small entries: int, Fraction or GaussRational."""
    if kind == "int":
        return [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
    if kind == "fraction":
        return [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(m)]
                for _ in range(n)]
    return [[GaussRational(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(m)]
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
            assert rank(numerator_rows(a)) == r, (kind, a)
            seen.add(r < min(n, m))
        assert seen == {True, False}  # both full-rank and deficient cases ran


def test_nullspace_is_kernel():
    rng = random.Random(2)
    for kind in ("fraction", "gauss"):
        for _ in range(30):
            n, m = rng.randint(1, 5), rng.randint(1, 7)
            a = low_rank_matrix(rng, n, m, kind)
            basis = nullspace(numerator_rows(a), m)
            assert len(basis) == m - rank(numerator_rows(a))
            for v in basis:
                for row in a:
                    assert not sum((c * x for c, x in zip(row, vector_view(v))), 0)
            if basis:
                assert rank(v[:2] for v in basis) == len(basis)


def test_nullspace_gauss_rational():
    a = [[GaussRational(1), GaussRational(0, 1), GaussRational(0)],
         [GaussRational(0), GaussRational(0), GaussRational(0)]]
    basis = nullspace(numerator_rows(a), 3)
    assert len(basis) == 2
    for v in map(vector_view, basis):
        assert (v[0] + GaussRational(0, 1) * v[1]).is_zero()


def test_invert_round_trip():
    rng = random.Random(3)
    for kind in ("fraction", "gauss"):
        count = 0
        while count < 15:
            n = rng.randint(1, 5)
            # the integer matrix of row numerators, and its inverse
            rows = numerator_rows(random_matrix(rng, n, n, kind))
            a = [[GaussRational(x, y) for x, y in zip(re, im)] for re, im in rows]
            if rank(rows) < n:
                try:
                    invert(rows)
                except ValueError as exc:
                    assert str(exc) == "singular matrix"
                else:
                    raise AssertionError("singular matrix inverted")
                continue
            count += 1
            inv = view(invert(rows))
            for prod in (mat_mul(a, inv), mat_mul(inv, a)):
                for i in range(n):
                    for j in range(n):
                        assert prod[i][j] == (1 if i == j else 0)


def test_rref_pivots():
    a = frac_matrix([[0, 2, 1], [0, 4, 2], [1, 0, 0]])
    red, pivots = span_rref(RowSpan(numerator_rows(a)), 3)
    assert pivots == [0, 1]
    assert red == frac_matrix([[1, 0, 0], [0, 1, Fraction(1, 2)]])


def test_row_span_membership():
    span = RowSpan(numerator_rows([[Fraction(1), Fraction(2), Fraction(0)],
                                   [Fraction(0), Fraction(1), Fraction(1)]]))
    assert span.dim == 2
    inside, outside, dependent, new = numerator_rows(
        [[Fraction(1), Fraction(3), Fraction(1)], [Fraction(0), Fraction(0), Fraction(1)],
         [Fraction(2), Fraction(4), Fraction(0)], [Fraction(0), Fraction(0), Fraction(1)]])
    assert span.contains(*inside)
    assert not span.contains(*outside)
    assert not span.add(*dependent)
    assert span.add(*new)
    assert span.dim == 3


# -- the numerator kernel against the per-scalar elimination ------------------------------


def ref_nullspace(rows, ncols):
    red, pivots = ref_rref(rows, ncols)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [GR_ZERO] * ncols
        v[fc] = GR_ONE
        for p, row in zip(pivots, red):
            v[p] = -row[fc]
        basis.append(v)
    return basis


def ref_invert(rows):
    n = len(rows)
    red, pivots = ref_rref([list(r) + [int(i == j) for j in range(n)]
                            for i, r in enumerate(rows)])
    if pivots[n - 1] != n - 1:
        raise ValueError("singular matrix")
    return [row[n:] for row in red]


def tall_scalar(rng, height):
    """A Q(i) scalar with numerators up to height over a denominator up to 60 (or 1)."""
    d = rng.choice((1, 1, rng.randint(2, 60)))
    if rng.random() < 0.2:
        return GaussRational(0)
    return GaussRational(Fraction(rng.randint(-height, height), d),
              Fraction(rng.randint(-height, height), d) if rng.random() < 0.7 else 0)


def tall_matrix(rng, n, m):
    """An n x m Q(i) matrix of height 1e4 to 1e8, of rank below min(n, m) about
    half of the time, sometimes with a zero row and rows that cancel exactly."""
    height = 10 ** rng.choice((4, 6, 8))
    k = rng.randint(0, min(n, m) - 1) if rng.random() < 0.5 else min(n, m)
    if k == min(n, m):
        rows = [[tall_scalar(rng, height) for _ in range(m)] for _ in range(n)]
    else:
        left = [[tall_scalar(rng, 99) for _ in range(k)] for _ in range(n)]
        right = [[tall_scalar(rng, height) for _ in range(m)] for _ in range(k)]
        rows = mat_mul(left, right) if k else [[GaussRational(0)] * m for _ in range(n)]
    if rng.random() < 0.25:
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
        rows.insert(rng.randrange(len(rows) + 1), [GaussRational(0)] * m)
        rows.append([a - b for a, b in zip(rows[i], rows[j])])
        rows.append([-a for a in rows[i]])
    return rows


def _assert_primitive_rref(span):
    for p, (row, d) in span.rows.items():
        assert row[p] == (d, 0) and d > 0 and min(row) == p
        assert not any(q in row for q in span.rows if q != p)
        assert gcd(d, *(x for pair in row.values() for x in pair)) == 1


@pytest.mark.parametrize("seed", range(4))
def test_numerator_row_span_matches_the_scalar_elimination(seed):
    rng = random.Random(100 + seed)
    deficient = []
    for _ in range(30):
        n, m = rng.randint(1, 6), rng.randint(1, 7)
        a = tall_matrix(rng, n, m)
        rows = numerator_rows(a)
        red, pivots = span_rref(RowSpan(rows), m)
        assert (red, pivots) == ref_rref(a)
        deficient.append(len(pivots) < min(len(a), m))
        assert [vector_view(v) for v in nullspace(rows, m)] == ref_nullspace(a, m)
        assert rank(rows) == len(pivots)
        span, scaled = RowSpan(), RowSpan()
        for i, (re, im) in enumerate(rows):
            grows = ref_rank(a[:i + 1]) > ref_rank(a[:i])
            assert span.add(re, im) == grows
            # the same row over any denominator and times any nonzero Gaussian integer
            c, e = rng.choice(((1, 0), (0, 1), (-3, 2), (7, 0)))
            assert scaled.add([c * x - e * y for x, y in zip(re, im)],
                              [c * y + e * x for x, y in zip(re, im)]) == grows
        assert scaled.rows == span.rows
        _assert_primitive_rref(span)
        for v in a + [[tall_scalar(rng, 10 ** 4) for _ in range(m)] for _ in range(3)]:
            assert span.contains(*to_numerators(v)[:2]) == (ref_rank(a + [v]) == len(pivots))
    assert 0.3 < sum(deficient) / len(deficient) < 0.7


@pytest.mark.parametrize("seed", range(3))
def test_numerator_invert_matches_the_scalar_elimination(seed):
    rng = random.Random(200 + seed)
    singular = 0
    for _ in range(20):
        n = rng.randint(1, 5)
        a = tall_matrix(rng, n, n)[:n]
        # a over the lcm d of its denominators: the integer matrix d a has inverse a^-1 / d
        re, im, d = as_triple(a)
        rows = list(zip(re, im))
        try:
            want = ref_invert(a)
        except ValueError:
            singular += 1
            with pytest.raises(ValueError, match="singular matrix"):
                invert(rows)
            continue
        assert view(invert(rows)) == [[v / d for v in row] for row in want]
    assert 0 < singular < 20
