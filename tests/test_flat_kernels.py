"""The flat-numerator kernels against per-scalar GaussRational references.

`AlgElement` and `JordanMatrix` compute on integer numerators over one shared
denominator, and so do the line path of `reductions` (wedge, pi pairings,
rank-one minors) and the orbit map and unipotent products of `liealg`.  The
references below are the per-scalar loops they replace: the algebra product
from the multiplication table, the cyclic formula for the Jordan product, the
determinant from traces of Jordan powers, the wedge and pi contraction, the
tangent rows and the `PolyQi` minors loop on J0 coordinate scalars, the matrix
product, nilpotency test and exponential, the Gauss-Jordan elimination that
`linalg.RowSpan` ran before its rows held integer numerators, and the
slot-wise action of the so3(A) operators before each became one integer
matrix, and the multiplication matrices L_z and R_z read back from products
with the basis, all in GaussRational and AlgElement arithmetic.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from jordanred import reductions
from jordanred.algebra import ALG_O, ALL_TAGS, AlgElement, mul_numerators, mult_table, qbilin
from jordanred.gaussrat import (GR_I, GR_ONE, GR_ZERO, GaussRational, from_numerators,
                                mat_vec, to_numerators)
from jordanred.jordan import JordanMatrix, det, inner, jordan_mul, jordan_mul_full
from jordanred.liealg import (So3AOperator, apply_j0_linear, bform_gram, bform_inverse,
                              exp_apply, j0_basis, j0_dim,
                              j0_numerators, mult_matrices, nilpotent_generators,
                              orbit_rank, pi_table, random_unipotent, so3a_basis,
                              so3a_matrices, triality_basis, wedge_pairs)
from jordanred.polyq import PolyQi, poly_gcd
from jordanred.reductions import (ReductionLine, _wedge_numerators, available_orbits,
                                  classify_orbit, in_ker_pi, membership, pi_pairings,
                                  representative, severi_points_on_line, tangent_dim)
from jordanred.sampling import make_rng, random_jordan, random_scalar

HALF = GaussRational(Fraction(1, 2))
KINDS = ("small", "tall", "mixed", "sparse", "zero", "cancelling")


# -- references ------------------------------------------------------------------


def ref_mul(tag, xs, ys):
    """The product of two coordinate tuples, one GaussRational term at a time."""
    table = mult_table(tag.dim)
    acc = [GR_ZERO] * tag.dim
    for i, xi in enumerate(xs):
        if xi.is_zero():
            continue
        for j, yj in enumerate(ys):
            if yj.is_zero():
                continue
            k, s = table[i][j]
            term = xi * yj
            acc[k] = acc[k] - term if s < 0 else acc[k] + term
    return acc


def ref_q(xs, ys):
    s = GR_ZERO
    for a, b in zip(xs, ys):
        s = s + a * b
    return s


def ref_conj(xs):
    return [xs[0]] + [-v for v in xs[1:]]


def ref_jordan_mul(tag, A, B):
    """The cyclic formula on GaussRational coordinates: (c, [x1, x2, x3])."""
    c, x = list(A.c), [list(e.coords) for e in A.x]
    d, y = list(B.c), [list(e.coords) for e in B.x]
    q = [ref_q(x[i], y[i]) for i in range(3)]
    new_c = [c[i] * d[i] + q[(i + 1) % 3] + q[(i + 2) % 3] for i in range(3)]
    new_x = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        p = [a + b for a, b in zip(ref_mul(tag, y[j], x[k]), ref_mul(tag, x[j], y[k]))]
        p = ref_conj(p)
        sc, sd = c[j] + c[k], d[j] + d[k]
        new_x.append([(sc * yt + sd * xt + pt) * HALF
                      for xt, yt, pt in zip(x[i], y[i], p)])
    return new_c, new_x


def ref_jordan_mul_full(A, B):
    """(AB + BA)/2 of the full 3x3 arrays, one AlgElement entry at a time."""
    def full(X):
        s = [AlgElement.scalar(X.tag, c) for c in X.c]
        x1, x2, x3 = X.x
        return [[s[0], x3, x2.conj()], [x3.conj(), s[1], x1], [x2, x1.conj(), s[2]]]

    ea, eb = full(A), full(B)
    out = [[sum((ea[i][k] * eb[k][j] + eb[i][k] * ea[k][j] for k in range(3)),
                AlgElement.zero(A.tag)).scale(HALF) for j in range(3)] for i in range(3)]
    for i in range(3):
        assert all(v.is_zero() for v in out[i][i].coords[1:])
        assert all(out[i][j] == out[j][i].conj() for j in range(3))
    return JordanMatrix(A.tag, [out[i][i].coords[0] for i in range(3)],
                        (out[1][2], out[2][0], out[0][1]))


def ref_det(tag, X):
    """(t1^3 - 3 t1 t2 + 2 t3)/6 with t_k the trace of the k-th Jordan power."""
    def as_matrix(cx):
        c, x = cx
        return JordanMatrix(tag, c, [AlgElement(tag, e) for e in x])

    x2 = as_matrix(ref_jordan_mul(tag, X, X))
    x3 = as_matrix(ref_jordan_mul(tag, X, x2))
    t1, t2, t3 = (sum(m.c, GR_ZERO) for m in (X, x2, x3))
    return (t1 * t1 * t1 - 3 * t1 * t2 + 2 * t3) / 6


def ref_wedge(X, Y):
    xv, yv = from_numerators(*j0_numerators(X)), from_numerators(*j0_numerators(Y))
    return [xv[r] * yv[s] - xv[s] * yv[r] for r, s in wedge_pairs(X.tag)]


def ref_omega(tri):
    """trace(e_i) p(e_j) wedge p(e_k) summed cyclically, p the projection to J0."""
    ident = JordanMatrix.identity(tri.e1.tag)
    es = tri.members()
    ps = [e - ident.scale(e.trace() / 3) for e in es]
    out = [GR_ZERO] * len(wedge_pairs(tri.e1.tag))
    for i, e in enumerate(es):
        w = ref_wedge(ps[(i + 1) % 3], ps[(i + 2) % 3])
        out = [o + e.trace() * x for o, x in zip(out, w)]
    return out


def ref_pairings(tag, w):
    """The pi table applied to a wedge tensor, one GaussRational term at a time."""
    out = []
    for terms in pi_table(tag):
        acc = GR_ZERO
        for i, _, _, c in terms:
            if w[i]:
                acc = acc + w[i] * c
        out.append(acc)
    return out


def pi_through_b_inverse(X, Y):
    """The projection pi of X wedge Y onto so3(A) through dual bases: the
    coefficients B^-1 F(X wedge Y) over the so3(A) basis, F the pi pairings,
    as a normalised triple (re, im, d)."""
    tag = X.tag
    re, im, d = _wedge_numerators(tag, j0_numerators(X), j0_numerators(Y))
    vr, vi = zip(*pi_pairings(tag, re, im))
    br, bi, bd = bform_inverse(tag)
    return mat_vec(br, vr, vi, bd * d, bi)


def realized(tag, coeffs):
    """The coefficient triple (re, im, d) realized as sum c_k M_k on J0, in scalars."""
    n = j0_dim(tag)
    out = [[GR_ZERO] * n for _ in range(n)]
    for c, m in zip(from_numerators(*coeffs), so3a_matrices(tag)):
        if c:
            out = [[o + c * v for o, v in zip(orow, mrow)] for orow, mrow in zip(out, m)]
    return out


def ref_tangent_rows(X, Y):
    n = j0_dim(X.tag)
    xv, yv = from_numerators(*j0_numerators(X)), from_numerators(*j0_numerators(Y))
    rows = []
    for terms in pi_table(X.tag):
        row = [GR_ZERO] * (2 * n)
        for _, r, s, c in terms:
            row[r] = row[r] + c * yv[s]
            row[s] = row[s] - c * yv[r]
            row[n + s] = row[n + s] + c * xv[r]
            row[n + r] = row[n + r] - c * xv[s]
        rows.append(row)
    return rows


def _ref_clear(v, p, prow):
    """Subtract v[p] * prow from the sparse scalar vector v, over prow's nonzero columns."""
    f = v[p]
    for j, x in prow.items():
        y = v.get(j, GR_ZERO) - f * x
        if y:
            v[j] = y
        else:
            v.pop(j, None)


def ref_rref(rows, ncols=None):
    """(rows, pivots): the reduced row echelon form, one GaussRational at a time.

    Each vector is reduced by the rows so far; a new row is divided by its
    pivot and then cleared from every earlier row.
    """
    rows = list(rows)
    ncols = len(rows[0]) if rows else ncols
    span = {}
    for vec in rows:
        v = {j: GaussRational(x) for j, x in enumerate(vec) if x}
        for p in [p for p in v if p in span]:
            _ref_clear(v, p, span[p])
        if not v:
            continue
        p = min(v)
        pv = v[p]
        row = {j: x / pv for j, x in v.items()}
        for other in span.values():
            if p in other:
                _ref_clear(other, p, row)
        span[p] = row
    pivots = sorted(span)
    return [[span[p].get(j, GR_ZERO) for j in range(ncols)] for p in pivots], pivots


def ref_rank(rows):
    return len(ref_rref(rows)[1])


def ref_minor_gcd(X, Y):
    """The monic gcd of the PolyQi minors N_r M_s - N_s M_r, None if all vanish."""
    third = GR_ONE / 3
    ident = JordanMatrix.identity(X.tag)
    n0 = jordan_mul(X, X) - ident.scale(inner(X, X) * third)
    n1 = (jordan_mul(X, Y) - ident.scale(inner(X, Y) * third)).scale(2)
    n2 = jordan_mul(Y, Y) - ident.scale(inner(Y, Y) * third)
    nc = list(zip(*(from_numerators(*j0_numerators(n)) for n in (n0, n1, n2))))
    mc = list(zip(*(from_numerators(*j0_numerators(M)) for M in (X, Y))))
    minors = []
    for r in range(len(mc)):
        for s in range(r + 1, len(mc)):
            p = PolyQi(list(nc[r])) * PolyQi(list(mc[s])) - \
                PolyQi(list(nc[s])) * PolyQi(list(mc[r]))
            if not p.is_zero():
                minors.append(p)
    if not minors:
        return None
    g = minors[0]
    for p in minors[1:]:
        g = poly_gcd(g, p)
    return g.monic()


def ref_identity(n):
    return [[GR_ONE if i == j else GR_ZERO for j in range(n)] for i in range(n)]


def _all_zero(mat):
    return all(not v for row in mat for v in row)


def ref_is_nilpotent(mat):
    p = mat
    for _ in range(len(mat) + 1):
        if _all_zero(p):
            return True
        p = mat_mul(p, mat)
    return False


def ref_exp_nilpotent(mat):
    n = len(mat)
    out, term, k = ref_identity(n), ref_identity(n), 1
    while True:
        term = mat_mul(term, mat)
        if _all_zero(term):
            return out
        inv = GR_ONE / GaussRational(_factorial(k))
        out = [[o + t * inv for o, t in zip(orow, trow)] for orow, trow in zip(out, term)]
        k += 1
        if k > n + 2:
            raise ValueError("matrix is not nilpotent")


def _factorial(k):
    return k * _factorial(k - 1) if k > 1 else 1


def dense(cols):
    """The GaussRational rows of a generator given by its sparse columns (row, re, im)."""
    n = len(cols)
    rows = [[GR_ZERO] * n for _ in range(n)]
    for j, col in enumerate(cols):
        for r, p, q in col:
            assert p or q
            rows[r][j] = GaussRational(p, q)
    return rows


def ref_random_unipotent(tag, rng, factors):
    gens = nilpotent_generators(tag)
    g = ref_identity(j0_dim(tag))
    for _ in range(factors):
        m = dense(gens[rng.randrange(len(gens))])
        t = rng.choice((-2, -1, 1, 2))
        g = mat_mul(g, ref_exp_nilpotent([[v * t for v in row] for row in m]))
    return g


def ref_skew(tag, m, x):
    """The integer matrix m applied to the coordinates of x, one scalar at a time."""
    xs = x.coords
    return AlgElement(tag, [sum((c * v for c, v in zip(row, xs) if c), GR_ZERO) for row in m])


def ref_apply(tag, X, tmats=None, a1=None, a2=None, a3=None):
    """The so3(A) operator with components (t, a1, a2, a3) applied to X, slot by
    slot in AlgElement arithmetic, with one hand-written branch per a_i."""
    r1, r2, r3 = X.c
    x1, x2, x3 = X.x
    d1 = d2 = d3 = GR_ZERO
    o1 = o2 = o3 = AlgElement.zero(tag)
    if tmats is not None:
        v1, v2, v3 = tmats
        o1 = o1 + ref_skew(tag, v3, x1)
        o2 = o2 + ref_skew(tag, v1, x2.conj()).conj()
        o3 = o3 + ref_skew(tag, v2, x3)
    if a1 is not None:
        q1 = ref_q(a1.coords, x1.coords)
        d2 = d2 - 2 * q1
        d3 = d3 + 2 * q1
        o1 = o1 + a1.scale(r2 - r3)
        o2 = o2 + (x3 * a1).conj()
        o3 = o3 - (a1 * x2).conj()
    if a2 is not None:
        q2 = ref_q(a2.coords, x2.coords)
        d1 = d1 + 2 * q2
        d3 = d3 - 2 * q2
        o2 = o2 + a2.scale(r3 - r1)
        o3 = o3 + (x1 * a2).conj()
        o1 = o1 - (a2 * x3).conj()
    if a3 is not None:
        q3 = ref_q(a3.coords, x3.coords)
        d1 = d1 + 2 * q3
        d2 = d2 - 2 * q3
        o3 = o3 + a3.scale(r2 - r1)
        o2 = o2 + (a3 * x1).conj()
        o1 = o1 - (x2 * a3).conj()
    return JordanMatrix(tag, (d1, d2, d3), (o1, o2, o3))


def ref_operator_matrix(tag, components):
    """The J0 columns of ref_apply on the J0 basis, transposed into rows."""
    cols = []
    for b in j0_basis(tag):
        nr, ni, d = j0_numerators(ref_apply(tag, b, **components))
        assert d == 1 and not any(ni)
        cols.append(nr)
    return tuple(zip(*cols))


def left_mult_matrix(z):
    """L_z in GaussRational entries, column j the product z e_j."""
    a = z.tag.dim
    cols = [(z * AlgElement.basis(z.tag, j)).coords for j in range(a)]
    return [[cols[j][i] for j in range(a)] for i in range(a)]


def right_mult_matrix(z):
    """R_z in GaussRational entries, column j the product e_j z."""
    a = z.tag.dim
    cols = [(AlgElement.basis(z.tag, j) * z).coords for j in range(a)]
    return [[cols[j][i] for j in range(a)] for i in range(a)]


def basis_components(tag):
    """The components of the operators of so3a_basis(tag), in its order."""
    return [{"tmats": t} for t in triality_basis(tag)] + \
        [{"a%d" % (slot + 1): AlgElement.basis(tag, k)}
         for slot in range(3) for k in range(tag.dim)]


# -- matrix triples ----------------------------------------------------------------


def view(triple):
    """The GaussRational rows of a matrix triple (re rows, im rows, d)."""
    re, im, d = triple
    assert d > 0 and gcd(d, *(v for part in (re, im) for row in part for v in row)) == 1
    assert len(re) == len(im) and all(len(a) == len(b) for a, b in zip(re, im))
    return [from_numerators(a, b, d) for a, b in zip(re, im)]


def vector_view(triple):
    """The GaussRational entries of a vector triple (re, im, d), checked normalised."""
    re, im, d = triple
    assert d > 0 and gcd(d, *re, *im) == 1 and len(re) == len(im)
    return from_numerators(re, im, d)


def mat_mul(a, b):
    """The oracle product of two matrices of scalars, one entry at a time."""
    n, k, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        ai = a[i]
        row = []
        for j in range(m):
            s = ai[0] * b[0][j]
            for t in range(1, k):
                if ai[t]:
                    s = s + ai[t] * b[t][j]
            row.append(s)
        out.append(row)
    return out


def as_triple(mat):
    """A matrix of Q(i) scalars as a matrix triple over the lcm of its denominators."""
    n = len(mat[0])
    re, im, d = to_numerators(v for row in mat for v in row)
    return ([re[k:k + n] for k in range(0, len(re), n)],
            [im[k:k + n] for k in range(0, len(im), n)], d)


# -- inputs ------------------------------------------------------------------------


def _nonzero(rng, span):
    while True:
        s = random_scalar(rng, span)
        if not s.is_zero():
            return s


def _scalar(rng, kind):
    if kind == "small":
        return random_scalar(rng)
    if kind == "tall":  # as the benchmark's tall kernel inputs: height 1e4 to 1e8
        return _nonzero(rng, 10 ** 4) / _nonzero(rng, 10 ** 4)
    if kind == "mixed":
        return GaussRational(Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
                             Fraction(rng.randint(-9, 9), rng.randint(1, 12)))
    if kind == "sparse":
        return random_scalar(rng) if rng.random() < 0.3 else GR_ZERO
    if kind == "zero":
        return GR_ZERO
    raise ValueError(kind)


def _operands(tag, rng, kind, count):
    """count scalars for each of two operands.

    For "cancelling" the first has odd halves and the second even Gaussian
    integers, so products have numerators sharing a factor with the
    denominator and only come out right when normalised.
    """
    if kind == "cancelling":
        return ([GaussRational(Fraction(rng.randrange(-5, 6, 2), 2)) for _ in range(count)],
                [GaussRational(2 * rng.randint(-2, 2), 2 * rng.randint(-1, 1))
                 for _ in range(count)])
    return ([_scalar(rng, kind) for _ in range(count)],
            [_scalar(rng, kind if kind != "zero" else "small") for _ in range(count)])


def _jordan(tag, scalars):
    a = tag.dim
    return JordanMatrix(tag, scalars[:3],
                        [AlgElement(tag, scalars[3 + s * a: 3 + (s + 1) * a])
                         for s in range(3)])


def _assert_normalised(v):
    assert v.d > 0 and gcd(v.d, *v.nr, *v.ni) == 1


def _full(M):
    return list(M.c) + [v for e in M.x for v in e.coords]


# -- tests --------------------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_algebra_kernels_match_the_scalar_loops(tag, kind):
    rng = make_rng(10 * ALL_TAGS.index(tag) + KINDS.index(kind))
    for _ in range(12):
        xs, ys = _operands(tag, rng, kind, tag.dim)
        x, y = AlgElement(tag, xs), AlgElement(tag, ys)
        for out, ref in ((x * y, ref_mul(tag, xs, ys)), (y * x, ref_mul(tag, ys, xs)),
                         (x + y, [a + b for a, b in zip(xs, ys)]),
                         (x - y, [a - b for a, b in zip(xs, ys)]),
                         (x.conj(), ref_conj(xs)),
                         (x.scale(ys[0]), [a * ys[0] for a in xs])):
            _assert_normalised(out)
            assert list(out.coords) == ref
        assert qbilin(x, y) == ref_q(xs, ys)
        assert (x == y) == (xs == ys)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_jordan_kernels_match_the_scalar_loops(tag, kind):
    rng = make_rng(100 + 10 * ALL_TAGS.index(tag) + KINDS.index(kind))
    n = 3 * tag.dim + 3
    for _ in range(3):
        sa, sb = _operands(tag, rng, kind, n)
        A, B = _jordan(tag, sa), _jordan(tag, sb)
        assert _full(A) == sa
        c, x = ref_jordan_mul(tag, A, B)
        out = jordan_mul(A, B)
        _assert_normalised(out)
        assert _full(out) == c + [v for e in x for v in e]
        assert inner(A, B) == sum((a * b for a, b in zip(sa[:3], sb[:3])), GR_ZERO) \
            + 2 * ref_q(sa[3:], sb[3:])
        assert A.trace() == sa[0] + sa[1] + sa[2]
        assert _full(A + B) == [a + b for a, b in zip(sa, sb)]
        assert _full(A - B) == [a - b for a, b in zip(sa, sb)]
        assert _full(A.scale(sb[0])) == [a * sb[0] for a in sa]
        assert det(A) == ref_det(tag, A)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_full_matrix_oracle_matches_the_entry_wise_product(tag, kind):
    """jordan_mul_full against the AlgElement symmetrisation and jordan_mul,
    also on complex scalings with a non-unit denominator."""
    rng = make_rng(150 + 10 * ALL_TAGS.index(tag) + KINDS.index(kind))
    n = 3 * tag.dim + 3
    for _ in range(2):
        sa, sb = _operands(tag, rng, kind, n)
        A, B = _jordan(tag, sa), _jordan(tag, sb)
        for X, Y in ((A, B), (A.scale(GaussRational(1, 2) / 5), B),
                     (A, B.scale(GaussRational(-3, 1) / 7))):
            out = jordan_mul_full(X, Y)
            _assert_normalised(out)
            assert out == ref_jordan_mul_full(X, Y) == jordan_mul(X, Y)


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_the_kernels_are_right_on_every_basis_pair(tag):
    """The compiled kernels are bilinear in the real and imaginary numerators,
    so their values on unit inputs, real and imaginary, pin them completely:
    mul_numerators against ref_mul on every (e_i, e_j), and jordan_mul against
    jordan_mul_full on every pair of unit coordinate matrices."""
    a, n = tag.dim, 3 * tag.dim + 3

    def unit(size, k, s):
        v = [GR_ZERO] * size
        v[k] = s
        return v
    for i in range(a):
        for j in range(a):
            for s, t in ((GR_ONE, GR_ONE), (GR_I, GR_ONE), (GR_ONE, GR_I), (GR_I, GR_I)):
                xs, ys = unit(a, i, s), unit(a, j, t)
                (xr, xi, _), (yr, yi, _) = to_numerators(xs), to_numerators(ys)
                assert list(from_numerators(*mul_numerators(a, xr, xi, yr, yi), 1)) == \
                    ref_mul(tag, xs, ys)
    units = [_jordan(tag, unit(n, k, s)) for k in range(n) for s in (GR_ONE, GR_I)]
    for A in units:
        for B in units:
            assert jordan_mul(A, B) == jordan_mul_full(A, B)


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_equal_values_by_different_routes_are_equal_and_hash_alike(tag):
    rng = make_rng(11)
    third, two_thirds = GaussRational(Fraction(1, 3)), GaussRational(Fraction(2, 3))
    n = 3 * tag.dim + 3
    for kind in KINDS:
        xs, ys = _operands(tag, rng, kind, tag.dim)
        x, y = AlgElement(tag, xs), AlgElement(tag, ys)
        for other in ((x + y) - y, x.scale(third) + x.scale(two_thirds), -(-x),
                      x.conj().conj(), AlgElement(tag, x.coords)):
            assert other == x and hash(other) == hash(x)
        sa, sb = _operands(tag, rng, kind, n)
        A, B = _jordan(tag, sa), _jordan(tag, sb)
        for other in ((A + B) - B, A.scale(third) + A.scale(two_thirds),
                      JordanMatrix(tag, A.c, A.x), jordan_mul_full(JordanMatrix.identity(tag), A),
                      jordan_mul(JordanMatrix.identity(tag), A)):
            assert other == A and hash(other) == hash(A)
    assert AlgElement.zero(tag) == AlgElement(tag, [Fraction(0, 7)] * tag.dim)
    assert JordanMatrix.identity(tag) == JordanMatrix.diag(tag, 1, 1, 1)
    assert hash(JordanMatrix.identity(tag)) == hash(JordanMatrix.diag(tag, 1, 1, 1))


# -- the line path --------------------------------------------------------------------


def _fields(mat):
    return [[(v.nr, v.ni, v.d) for v in row] for row in mat]


def _moved_lines(tag, rng, factors, span):
    """The representative of every orbit, moved by one unipotent automorphism
    of `factors` factors and respanned by a basis change in [-span, span]."""
    g = random_unipotent(tag, rng, factors=factors)
    for orbit in available_orbits(tag):
        rep = representative(tag, orbit)
        while True:
            a, b, c, d = (rng.randint(-span, span) for _ in range(4))
            if a * d - b * c:
                break
        X, Y = (apply_j0_linear(tag, g, M) for M in (rep.X, rep.Y))
        yield ReductionLine(X, Y).basis_change(a, b, c, d)


def _mixed_denominators(line):
    """The same plane spanned by (X/3 + Y, 2Y/7): X and Y get different denominators."""
    out = line.basis_change(Fraction(1, 3), 1, 0, Fraction(2, 7))
    assert out.X.d != out.Y.d
    return out


def _assert_line_path_matches(line):
    X, Y, tag = line.X, line.Y, line.tag
    w = ref_wedge(X, Y)
    wv = _wedge_numerators(tag, j0_numerators(X), j0_numerators(Y))
    assert from_numerators(*wv) == w
    pairings = ref_pairings(tag, w)
    assert from_numerators(*zip(*pi_pairings(tag, *wv[:2])), wv[2]) == pairings
    member = all(v.is_zero() for v in pairings)
    assert membership(line) == member
    assert in_ker_pi(tag, wv) == member
    real_part = (wv[0], (0,) * len(wv[0]), wv[2])
    assert in_ker_pi(tag, real_part) == all(v.is_zero() for v in
                                            ref_pairings(tag, [GaussRational(v.re)
                                                               for v in w]))
    # B applied to the coefficients of pi gives back the pairings
    coeffs = vector_view(pi_through_b_inverse(X, Y))
    assert [sum((b * c for b, c in zip(row, coeffs)), GR_ZERO)
            for row in bform_gram(tag)] == pairings
    assert orbit_rank(tag, j0_numerators(Y), j0_numerators(X)) == \
        ref_rank(ref_tangent_rows(X, Y))
    mc, nc, _ = reductions._pencil_polys(X, Y)
    g = reductions._rank_one_gcd(mc, nc)
    assert (g if g is None else g.monic()) == ref_minor_gcd(X, Y)
    return member


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_line_path_matches_the_scalar_references(tag):
    rng = make_rng(40 + ALL_TAGS.index(tag))
    for line in _moved_lines(tag, rng, factors=2, span=2):
        for each in (line, _mixed_denominators(line)):
            assert _assert_line_path_matches(each)
            assert tangent_dim(each) == 3 * tag.dim


@pytest.mark.parametrize("factors, span", ((2, 2), (8, 99)), ids=("orbit_stream", "tall"))
def test_line_path_at_benchmark_heights(factors, span):
    """The octonion lines of both benchmark line workloads, heights ~1e2 and ~1e6."""
    rng = make_rng(50 + factors)
    heights = []
    for line in _moved_lines(ALG_O, rng, factors, span):
        assert _assert_line_path_matches(line)
        heights.append(max(abs(v) for M in (line.X, line.Y) for v in M.nr + M.ni + (M.d,)))
    assert max(heights) > (10 ** 4 if span > 2 else 10)


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_a_purely_imaginary_pairing_is_not_a_member(tag):
    """X = e_r real and Y = i e_s for a wedge pair (r, s) that exactly one
    pi form sees: the only nonzero pairing has real part 0."""
    counts = {}
    for terms in pi_table(tag):
        for _, r, s, _ in terms:
            counts[(r, s)] = counts.get((r, s), 0) + 1
    pairs = [p for p, k in counts.items() if k == 1]
    basis = j0_basis(tag)
    for r, s in pairs[:: max(1, len(pairs) // 4)]:
        line = ReductionLine(basis[r], basis[s].scale(GR_I))
        for each in (line, _mixed_denominators(line)):
            re, im, d = _wedge_numerators(tag, j0_numerators(each.X), j0_numerators(each.Y))
            vals = from_numerators(*zip(*pi_pairings(tag, re, im)), d)
            nonzero = [v for v in vals if not v.is_zero()]
            assert len(nonzero) == 1 and nonzero[0].nr == 0
            assert not _assert_line_path_matches(each)
            for entry in (classify_orbit, severi_points_on_line, tangent_dim):
                with pytest.raises(ValueError):
                    entry(each)


# -- unipotent products ------------------------------------------------------------------


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_unipotent_products_match_the_scalar_loops(tag):
    gens = nilpotent_generators(tag)
    n = j0_dim(tag)
    rng = make_rng(70 + ALL_TAGS.index(tag))
    for cols in gens:
        m = dense(cols)
        assert ref_is_nilpotent(m)
        # the series on a vector with mixed denominators, against exp(tN) of the oracle
        v = [_scalar(rng, "mixed") for _ in range(n)]
        for t in (-2, -1, 1, 2):
            e = ref_exp_nilpotent([[x * t for x in row] for row in m])
            assert vector_view(exp_apply(cols, t, *to_numerators(v))) == \
                [sum((a * b for a, b in zip(row, v)), GR_ZERO) for row in e]
    for factors in (1, 3, 8):
        seed = 60 + factors
        got = random_unipotent(tag, random.Random(seed), factors)
        assert _fields(view(got)) == \
            _fields(ref_random_unipotent(tag, random.Random(seed), factors))


# -- the so3(A) operators -----------------------------------------------------------------


def _apply_inputs(tag, rng):
    """Random matrices with nonzero trace, the identity and a matrix of height ~1e8."""
    xs = [random_jordan(tag, rng) for _ in range(3)]
    assert not all(x.is_traceless() for x in xs)
    return xs + [JordanMatrix.identity(tag),
                 _jordan(tag, [_scalar(rng, "tall") for _ in range(3 * tag.dim + 3)])]


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_operator_matrices_match_the_slot_wise_action(tag):
    ops, components = so3a_basis(tag), basis_components(tag)
    assert len(ops) == len(components)
    for op, kw in zip(ops, components):
        assert op.matrix == ref_operator_matrix(tag, kw)


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_operator_apply_matches_the_slot_wise_action(tag):
    xs = _apply_inputs(tag, make_rng(80 + ALL_TAGS.index(tag)))
    for op, kw in zip(so3a_basis(tag), basis_components(tag)):
        for x in xs:
            assert op.apply(x) == ref_apply(tag, x, **kw)


def _multi_component(tag, rng):
    """The last triality triple with random integer a1 and a3."""
    triples = triality_basis(tag)
    return {"tmats": triples[-1] if triples else None,
            "a1": AlgElement(tag, [rng.randint(-3, 3) for _ in range(tag.dim)]),
            "a3": AlgElement(tag, [rng.randint(-3, 3) for _ in range(tag.dim)])}


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_a_multi_component_operator_matches_the_slot_wise_action(tag):
    rng = make_rng(90 + ALL_TAGS.index(tag))
    kw = _multi_component(tag, rng)
    op = So3AOperator(tag, **kw)
    assert op.matrix == ref_operator_matrix(tag, kw)
    for x in _apply_inputs(tag, rng):
        assert op.apply(x) == ref_apply(tag, x, **kw)


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_operator_terms_are_the_nonzero_entries_of_the_slot_wise_action(tag):
    """Row r of `terms` lists (k, v) for each nonzero entry v in row r of the
    matrix whose column k is ref_apply of the k-th J3(A) basis vector."""
    n = 3 * tag.dim + 3
    basis = [JordanMatrix._raw(tag, tuple(int(k == j) for j in range(n)), (0,) * n, 1)
             for k in range(n)]
    kw = _multi_component(tag, make_rng(90 + ALL_TAGS.index(tag)))
    cases = list(zip(so3a_basis(tag), basis_components(tag))) + \
        [(So3AOperator(tag, **kw), kw)]
    for op, components in cases:
        cols = [ref_apply(tag, e, **components) for e in basis]
        assert all(col.d == 1 and not any(col.ni) for col in cols)
        assert all(v for row in op.terms for _, v in row)
        assert op.terms == tuple(tuple((k, col.nr[r]) for k, col in enumerate(cols)
                                       if col.nr[r]) for r in range(n))


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_a_fractional_or_imaginary_slot_generator_raises(tag):
    for k in range(tag.dim):
        e = AlgElement.basis(tag, k)
        for a1 in (e.scale(Fraction(1, 2)), e.scale(GR_I)):
            with pytest.raises(ArithmeticError):
                So3AOperator(tag, a1=a1)


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_multiplication_matrices_match_the_basis_products(tag):
    """The integer L_z, R_z equal the matrices read back from z e_j and e_j z."""
    rng = make_rng(100 + ALL_TAGS.index(tag))
    zs = [AlgElement.basis(tag, k) for k in range(tag.dim)]
    zs += [AlgElement(tag, [rng.randint(-9, 9) for _ in range(tag.dim)]) for _ in range(3)]
    zs.append(AlgElement(tag, [rng.randint(-10 ** 8, 10 ** 8) for _ in range(tag.dim)]))
    for z in zs:
        left, right = mult_matrices(z)
        assert [[GaussRational(v) for v in row] for row in left] == left_mult_matrix(z)
        assert [[GaussRational(v) for v in row] for row in right] == right_mult_matrix(z)
    for k in range(tag.dim):
        e = AlgElement.basis(tag, k)
        for z in (e.scale(Fraction(1, 2)), e.scale(GR_I)):
            with pytest.raises(ValueError):
                mult_matrices(z)
