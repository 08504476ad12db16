import hashlib
from fractions import Fraction

import pytest

from jordanred.algebra import ALG_C, ALG_H, ALG_O, ALG_R, ALL_TAGS, AlgElement
from jordanred.gaussrat import GR_ZERO, gr, mat_vec, normalize
from jordanred.jordan import JordanMatrix, inner, jordan_mul
from jordanred.liealg import (So3AOperator, apply_j0_linear, bform_gram,
                              bform_inverse, bracket_in_span, bracket_matrix,
                              is_nilpotent, j0_basis, j0_dim,
                              j0_from_numerators, j0_gram, j0_numerators,
                              mult_matrices, nilpotent_generators, random_unipotent,
                              so3a_basis, so3a_rank, stabilizer_dims,
                              traceless_numerators, triality_basis,
                              triality_identity_holds)
from jordanred.linalg import RowSpan
from jordanred.sampling import (make_rng, random_jordan, random_projected_rank_one,
                                random_square_zero, random_traceless)
from test_flat_kernels import left_mult_matrix, view
from test_linalg import ref_invert

T_DIMS = {1: 0, 2: 2, 4: 9, 8: 28}


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_triality_dimension(tag):
    assert len(triality_basis(tag)) == T_DIMS[tag.dim]


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_traceless_numerators_project_along_the_identity(tag):
    rng = make_rng(70 + ALL_TAGS.index(tag))
    ident = JordanMatrix.identity(tag)
    for _ in range(10):
        Z = random_jordan(tag, rng).scale(gr(Fraction(2, 3), Fraction(1, 5)))
        Z = Z + ident.scale(gr(Fraction(1, 7), 2))
        assert Z.d > 1 and Z.trace().im != 0
        want = j0_numerators(Z - ident.scale(Z.trace() / 3))
        assert normalize(*traceless_numerators(Z)) == want


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_triality_identity_exhaustive(tag):
    for triple in triality_basis(tag):
        assert triality_identity_holds(tag, triple)
        for m in triple:
            # skew in the orthonormal basis
            for i in range(tag.dim):
                for j in range(tag.dim):
                    assert m[i][j] == -m[j][i]


# sha256(repr(x))[:16] of triality_basis(tag) and of the terms of so3a_basis(tag):
# bform_gram and the order of pi_table depend on them.
BASIS_DIGESTS = {1: ("2e38e77b22c314a4", "3a45135300b20564"),
                 2: ("5c9b59504b236438", "cef6666bb8b9f239"),
                 4: ("0be8291e23281571", "66d5528e1e523c82"),
                 8: ("c8d10cd87176afcc", "10f19251a23d226a")}


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_so3a_basis_is_pinned(tag):
    """A rescaled or reordered basis changes no dimension, so pin the basis itself."""
    def digest(x):
        return hashlib.sha256(repr(x).encode()).hexdigest()[:16]
    got = (digest(triality_basis(tag)), digest([op.terms for op in so3a_basis(tag)]))
    assert got == BASIS_DIGESTS[tag.dim]


def skew_generator(a, p, q):
    """The skew matrix sending e_q to e_p and e_p to -e_q."""
    m = [[0] * a for _ in range(a)]
    m[p][q], m[q][p] = 1, -1
    return tuple(map(tuple, m))


@pytest.mark.parametrize("tag", (ALG_C, ALG_H, ALG_O), ids=str)
def test_triality_identity_rejects_non_triples(tag):
    a = tag.dim
    zero = tuple((0,) * a for _ in range(a))
    gens = [skew_generator(a, p, q) for p in range(a) for q in range(p + 1, a)]
    # u1 must vanish when u2 = u3 = 0
    for u in gens:
        assert not triality_identity_holds(tag, (u, zero, zero))
    # the generator of (0, 1) moves e_0 = 1, so it is no derivation
    d = skew_generator(a, 0, 1)
    assert not triality_identity_holds(tag, (d, d, d))
    # a triple of t(A) plus a nonzero (u, 0, 0) is not in t(A)
    for n, (u1, u2, u3) in enumerate(triality_basis(tag)):
        u = gens[n % len(gens)]
        bent = tuple(tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(u1, u))
        assert not triality_identity_holds(tag, (bent, u2, u3))


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_so3a_dimension_and_independence(tag):
    basis = so3a_basis(tag)
    assert len(basis) == T_DIMS[tag.dim] + 3 * tag.dim
    assert so3a_rank(tag) == len(basis)


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_operators_kill_identity_and_trace(tag):
    ident = JordanMatrix.identity(tag)
    rng = make_rng()
    for op in so3a_basis(tag):
        assert op.apply(ident).is_zero()
        x = random_jordan(tag, rng)
        assert op.apply(x).trace() == GR_ZERO


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_derivation_and_orthogonality(tag):
    """Every basis operator is a derivation and is skew for the trace form."""
    rng = make_rng()
    pairs = [(random_jordan(tag, rng), random_jordan(tag, rng))
             for _ in range(20)]
    for op in so3a_basis(tag):
        for x, y in pairs:
            assert op.apply(jordan_mul(x, y)) == \
                jordan_mul(op.apply(x), y) + jordan_mul(x, op.apply(y))
            assert (inner(op.apply(x), y) + inner(x, op.apply(y))).is_zero()


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_slot_generators_are_inner_derivations(tag):
    """a_i generators equal 2 [L_{F_i(a)}, L_{D_i}], an independent oracle."""
    rng = make_rng()
    diags = {1: (0, 1, -1), 2: (-1, 0, 1), 3: (-1, 1, 0)}
    zero = AlgElement.zero(tag)
    for slot in (1, 2, 3):
        d = JordanMatrix.diag(tag, *diags[slot])
        for k in range(tag.dim):
            a = AlgElement.basis(tag, k)
            xs = [zero] * 3
            xs[slot - 1] = a
            f = JordanMatrix(tag, (0, 0, 0), tuple(xs))
            op = So3AOperator(tag, **{"a%d" % slot: a})
            for _ in range(4):
                x = random_jordan(tag, rng)
                comm = (jordan_mul(f, jordan_mul(d, x))
                        - jordan_mul(d, jordan_mul(f, x))).scale(2)
                assert op.apply(x) == comm


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_action_formulas_on_diagonals(tag):
    a1 = AlgElement.basis(tag, 0)
    op = So3AOperator(tag, a1=a1)
    out = op.apply(JordanMatrix.diag(tag, 5, 3, 2))
    assert out.c == (GR_ZERO, GR_ZERO, GR_ZERO)
    assert out.x[0] == a1.scale(gr(1)) and out.x[1].is_zero() and out.x[2].is_zero()
    for triple in triality_basis(tag):
        top = So3AOperator(tag, tmats=triple)
        assert top.apply(JordanMatrix.diag(tag, 5, 3, 2)).is_zero()


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_realized_matrix_agrees_with_formulas(tag):
    rng = make_rng()
    for op in so3a_basis(tag)[::4]:
        x = random_traceless(tag, rng)
        via_mat = j0_from_numerators(tag, *mat_vec(op.matrix, *j0_numerators(x)))
        assert via_mat == op.apply(x)


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_stabilizer_dims(tag):
    a = tag.dim
    ann, orb, perp = stabilizer_dims(JordanMatrix.diag(tag, 0, 1, -1))
    assert ann == T_DIMS[a]
    assert orb == 3 * a and perp == 2
    _, orb, perp = stabilizer_dims(JordanMatrix.diag(tag, 1, 1, -2))
    assert orb == 2 * a and perp == a + 2
    with pytest.raises(ValueError):
        stabilizer_dims(JordanMatrix.zero(tag))


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_stabilizer_dims_match_the_dense_images(tag):
    """The orbit map read off the pairing table has the rank of the images
    M_k x, each formed by a dense matrix-vector product."""
    rng = make_rng(70 + ALL_TAGS.index(tag))
    ops = so3a_basis(tag)
    for draw in (random_traceless, random_projected_rank_one, random_square_zero):
        for _ in range(3):
            x = draw(tag, rng)
            r = RowSpan(mat_vec(op.matrix, *j0_numerators(x))[:2] for op in ops).dim
            assert stabilizer_dims(x) == (len(ops) - r, r, j0_dim(tag) - r)


def test_stabilizer_dims_square_zero_point():
    for tag in ALL_TAGS:
        z = AlgElement.zero(tag)
        zrep = JordanMatrix(tag, (1, -1, 0),
                            (z, z, AlgElement.scalar(tag, gr(0, 1))))
        _, orb, perp = stabilizer_dims(zrep)
        assert perp == tag.dim + 2


@pytest.mark.parametrize("tag", (ALG_R, ALG_C, ALG_H), ids=str)
def test_bracket_closure_exhaustive(tag):
    n = len(so3a_basis(tag))
    for i in range(n):
        for j in range(i + 1, n):
            assert bracket_in_span(tag, i, j)


def test_bracket_closure_octonions_sampled():
    rng = make_rng()
    n = len(so3a_basis(ALG_O))
    for _ in range(200):
        i, j = rng.randrange(n), rng.randrange(n)
        assert bracket_in_span(ALG_O, i, j)


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_bform_invertible(tag):
    g = bform_gram(tag)
    assert len(g) == len(so3a_basis(tag))
    binv = view(bform_inverse(tag))
    assert binv == ref_invert(g)
    n = len(g)
    for i in range(n):
        for j in range(n):
            s = sum(Fraction(g[i][k]) * binv[k][j] for k in range(n))
            assert s == (1 if i == j else 0)


# -- the Der(A) + Im(A)^2 presentation of t(A), an independent cross-check -------


def _combine(*terms):
    """The integer matrix sum of c m over the (c, m) pairs."""
    n = len(terms[0][1])
    return tuple(tuple(sum(c * m[i][j] for c, m in terms) for j in range(n))
                 for i in range(n))


def lr_triality_triple(u, v):
    """(L_u + R_u + L_v, L_u + L_v + R_v, R_u - L_v): for imaginary u, v a
    triality triple in any alternative algebra."""
    if not (u.re().is_zero() and v.re().is_zero()):
        raise ValueError("arguments must be imaginary")
    (lu, ru), (lv, rv) = mult_matrices(u), mult_matrices(v)
    return (_combine((1, lu), (1, ru), (1, lv)), _combine((1, lu), (1, lv), (1, rv)),
            _combine((1, ru), (-1, lv)))


def standard_derivation(x, y):
    """D_{x,y} = [L_x, L_y] + [L_x, R_y] + [R_x, R_y], a derivation of A."""
    (lx, rx), (ly, ry) = mult_matrices(x), mult_matrices(y)
    return _combine((1, bracket_matrix(lx, ly)), (1, bracket_matrix(lx, ry)),
                    (1, bracket_matrix(rx, ry)))


@pytest.mark.parametrize("tag", (ALG_C, ALG_H, ALG_O), ids=str)
def test_lr_presentation_cross_check(tag):
    """L/R combinations and diagonal derivations recover t(A) exactly."""
    tb = triality_basis(tag)

    def flat(tr):
        re = [v for m in tr for row in m for v in row]
        return re, [0] * len(re)

    span = RowSpan([flat(t) for t in tb])
    assert span.dim == len(tb)
    cover = RowSpan()
    zero = AlgElement.zero(tag)
    for k in range(1, tag.dim):
        e = AlgElement.basis(tag, k)
        for pair in ((e, zero), (zero, e)):
            trip = lr_triality_triple(*pair)
            assert triality_identity_holds(tag, trip)
            assert span.contains(*flat(trip))
            cover.add(*flat(trip))
    for i in range(1, tag.dim):
        for j in range(i + 1, tag.dim):
            d = standard_derivation(AlgElement.basis(tag, i),
                                    AlgElement.basis(tag, j))
            trip = (d, d, d)
            assert triality_identity_holds(tag, trip)
            assert span.contains(*flat(trip))
            cover.add(*flat(trip))
    assert cover.dim == len(tb)


def test_lr_triple_requires_imaginary():
    with pytest.raises(ValueError):
        lr_triality_triple(AlgElement.one(ALG_H), AlgElement.zero(ALG_H))


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_unipotent_automorphisms(tag):
    rng = make_rng()
    gens = nilpotent_generators(tag)
    assert gens
    for m in gens:
        assert is_nilpotent(m)
    g = random_unipotent(tag, rng, factors=3)
    for _ in range(5):
        x, y = random_jordan(tag, rng), random_jordan(tag, rng)
        gx, gy = apply_j0_linear(tag, g, x), apply_j0_linear(tag, g, y)
        assert apply_j0_linear(tag, g, jordan_mul(x, y)) == jordan_mul(gx, gy)
        assert inner(gx, gy) == inner(x, y)
    ident = JordanMatrix.identity(tag)
    assert apply_j0_linear(tag, g, ident) == ident


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_j0_coordinates(tag):
    rng = make_rng()
    basis = j0_basis(tag)
    assert len(basis) == j0_dim(tag) == 3 * tag.dim + 2
    x = random_traceless(tag, rng)
    nr, ni, d = j0_numerators(x)
    assert j0_from_numerators(tag, nr, ni, d) == x
    with pytest.raises(ValueError):
        j0_from_numerators(tag, nr[:-1], ni[:-1], d)
    with pytest.raises(ValueError):
        j0_numerators(JordanMatrix.identity(tag))
    g = j0_gram(tag)
    for i, bi in enumerate(basis):
        for j, bj in enumerate(basis):
            assert inner(bi, bj) == gr(g[i][j])


def test_lr_triple_rejects_non_integral_multiplication_matrices():
    """A fractional or imaginary coordinate is not dropped from u."""
    e1, e2 = AlgElement.basis(ALG_H, 1), AlgElement.basis(ALG_H, 2)
    for u in (e1.scale(Fraction(1, 2)), e1.scale(gr(0, 1))):
        with pytest.raises(ValueError):
            lr_triality_triple(u, e2)
        with pytest.raises(ValueError):
            standard_derivation(u, e2)
    assert left_mult_matrix(e1.scale(gr(0, 1)))[1][0] == gr(0, 1)
    doubled = lr_triality_triple(e1.scale(2), e2)
    assert triality_identity_holds(ALG_H, doubled)
    assert doubled != lr_triality_triple(AlgElement.zero(ALG_H), e2)
