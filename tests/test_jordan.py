import json

import pytest

from jordanred import jordan
from jordanred.algebra import ALG_C, ALG_H, ALG_O, ALL_TAGS, AlgElement, mul_numerators
from jordanred.gaussrat import GR_I, GR_ONE, GR_ZERO, GaussRational, to_numerators
from jordanred.jordan import (JordanMatrix, SeveriClass,
                              cayley_hamilton_residual, char_poly,
                              classify_severi, det, det3, discriminant, inner,
                              is_rank_one, jordan_mul, jordan_mul_full,
                              rank_one_from_chart, rank_one_lift, sigma1,
                              sigma2, trace_forms)
from jordanred.linalg import rank
from jordanred.sampling import (make_rng, random_element, random_jordan,
                                random_traceless)


def z_rep(tag):
    """The square-zero matrix with upper row (1, i, 0)."""
    z = AlgElement.zero(tag)
    return JordanMatrix(tag, (1, -1, 0), (z, z, AlgElement.scalar(tag, GR_I)))


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_product_matches_full_matrix_oracle(tag):
    rng = make_rng()
    for _ in range(25):
        a, b = random_jordan(tag, rng), random_jordan(tag, rng)
        assert jordan_mul(a, b) == jordan_mul_full(a, b)
        assert jordan_mul(a, b) == jordan_mul(b, a)


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_unit_and_diagonal(tag):
    rng = make_rng()
    ident = JordanMatrix.identity(tag)
    assert jordan_mul(ident, random_jordan(tag, rng)) == jordan_mul(
        random_jordan(tag, make_rng()), ident)
    a = random_jordan(tag, rng)
    assert jordan_mul(ident, a) == a
    assert jordan_mul(JordanMatrix.diag(tag, 1, 2, 3),
                      JordanMatrix.diag(tag, 4, 5, 6)) == \
        JordanMatrix.diag(tag, 4, 10, 18)


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_jordan_identity(tag):
    rng = make_rng()
    for _ in range(50):
        a, b = random_jordan(tag, rng), random_jordan(tag, rng)
        aa = jordan_mul(a, a)
        assert jordan_mul(jordan_mul(a, b), aa) == jordan_mul(a, jordan_mul(b, aa))


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_trace_forms(tag):
    ident = JordanMatrix.identity(tag)
    t, q, qp = trace_forms(ident)
    assert (t, q) == (GaussRational(3), GaussRational(3))
    t, q, qp = trace_forms(JordanMatrix.diag(tag, 0, 1, -1))
    assert (t, q, qp) == (GR_ZERO, GaussRational(2), GaussRational(-1))
    rng = make_rng()
    for _ in range(20):
        x, y = random_jordan(tag, rng), random_jordan(tag, rng)
        _, qx, _ = trace_forms(x)
        _, qy, _ = trace_forms(y)
        _, qxy, _ = trace_forms(x + y)
        assert qxy - qx - qy == 2 * inner(x, y)


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_determinant(tag):
    assert det(JordanMatrix.identity(tag)) == GR_ONE
    assert det(JordanMatrix.diag(tag, 2, -3, 5)) == GaussRational(-30)
    assert det(z_rep(tag)) == GR_ZERO
    rng = make_rng()
    for _ in range(10):
        x = random_jordan(tag, rng)
        assert det3(x, x, x) == det(x)
        # the polarized trilinear form with det3(X,X,X) = det(X) forces
        # det3(I,I,X) = trace(X)/3
        ident = JordanMatrix.identity(tag)
        assert 3 * det3(ident, ident, x) == x.trace()


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_cayley_hamilton(tag):
    rng = make_rng()
    n = 100 if tag is ALG_O else 40
    for _ in range(n):
        x = random_jordan(tag, rng)
        assert cayley_hamilton_residual(x).is_zero()
    x = JordanMatrix.diag(tag, 0, 1, -1)
    assert char_poly(x) == (GR_ONE, GR_ZERO, GaussRational(-1), GR_ZERO)
    # traceless characteristic polynomial is t^3 - (Q/2) t - det
    y = random_traceless(tag, rng)
    one, mt, qp, md = char_poly(y)
    _, q, _ = trace_forms(y)
    assert mt == GR_ZERO and qp == -q / 2 and md == -det(y)


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_classify_severi(tag):
    z = z_rep(tag)
    assert jordan_mul(z, z).is_zero()
    cls, s = classify_severi(z)
    assert cls == SeveriClass.SQUARE_ZERO and s == GR_ZERO
    assert is_rank_one(z)

    y = JordanMatrix.diag(tag, 1, 1, -2)
    cls, s = classify_severi(y)
    assert cls == SeveriClass.PROJECTED_RANK_ONE and s == GaussRational(-1)
    lift, _ = rank_one_lift(y)
    assert lift == JordanMatrix.diag(tag, 0, 0, -3)
    _, q, _ = trace_forms(y)
    assert 6 * s * s == q

    cls, _ = classify_severi(JordanMatrix.diag(tag, 0, 1, -1))
    assert cls == SeveriClass.NONE

    with pytest.raises(ValueError):
        classify_severi(JordanMatrix.zero(tag))


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_rank_one_chart(tag):
    rng = make_rng()
    for _ in range(10):
        x, y = random_element(tag, rng), random_element(tag, rng)
        z = rank_one_from_chart(tag, x, y)
        assert (z.c[0], z.x[2], z.x[1].conj()) == (GR_ONE, x, y)
        assert is_rank_one(z)
        assert det(z) == GR_ZERO
        _, _, qp = trace_forms(z)
        assert qp == GR_ZERO
        if not z.trace().is_zero():
            assert classify_severi(z)[0] == SeveriClass.RANK_ONE


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_discriminant(tag):
    assert discriminant(JordanMatrix.diag(tag, 0, 1, -1)) == GaussRational(8)
    rng = make_rng()
    from jordanred.sampling import random_square_zero

    assert discriminant(random_square_zero(tag, rng)) == GR_ZERO
    for _ in range(200 if tag is ALG_C else 50):
        x = random_traceless(tag, rng)
        _, q, _ = trace_forms(x)
        d = det(x)
        p, qq = -q / 2, -d
        cubic_disc = -4 * p * p * p - 27 * qq * qq
        assert discriminant(x) == 2 * cubic_disc
    with pytest.raises(ValueError):
        discriminant(JordanMatrix.identity(tag))


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_sigma_automorphisms(tag):
    rng = make_rng()
    for _ in range(15):
        a, b = random_jordan(tag, rng), random_jordan(tag, rng)
        for sg in (sigma1, sigma2):
            assert sg(jordan_mul(a, b)) == jordan_mul(sg(a), sg(b))
            assert det(sg(a)) == det(a)
            assert sg(a).trace() == a.trace()
    # sigma1 swaps the first two diagonal units, sigma2 the last two
    e = [JordanMatrix.diag(tag, 1, 0, 0), JordanMatrix.diag(tag, 0, 1, 0),
         JordanMatrix.diag(tag, 0, 0, 1)]
    assert sigma1(e[0]) == e[1] and sigma1(e[1]) == e[0] and sigma1(e[2]) == e[2]
    assert sigma2(e[1]) == e[2] and sigma2(e[2]) == e[1] and sigma2(e[0]) == e[0]


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_rank_one_implies_det_and_qprime_vanish(tag):
    rng = make_rng()
    for _ in range(15):
        z = rank_one_from_chart(tag, random_element(tag, rng),
                                random_element(tag, rng))
        assert det(z) == GR_ZERO
        _, _, qp = trace_forms(z)
        assert qp == GR_ZERO


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_trace_form_nondegenerate(tag):
    zero = AlgElement.zero(tag)
    basis = [JordanMatrix.diag(tag, 1, 0, 0), JordanMatrix.diag(tag, 0, 1, 0),
             JordanMatrix.diag(tag, 0, 0, 1)]
    for slot in range(3):
        for k in range(tag.dim):
            xs = [zero] * 3
            xs[slot] = AlgElement.basis(tag, k)
            basis.append(JordanMatrix(tag, (0, 0, 0), tuple(xs)))
    gram = [[inner(a, b) for b in basis] for a in basis]
    assert rank(to_numerators(row)[:2] for row in gram) == 3 * tag.dim + 3


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_json_round_trip(tag):
    rng = make_rng()
    x = random_jordan(tag, rng)
    blob = json.dumps(x.to_json())
    assert JordanMatrix.from_json(json.loads(blob)) == x
    enc = x.to_json()
    assert set(enc) == {"algebra", "c", "x1", "x2", "x3"}
    # real scalars encode as plain reduced strings
    d = JordanMatrix.diag(tag, 1, -1, 0).to_json()
    assert d["c"] == ["1", "-1", "0"]


def _corrupted_mul_numerators(dim, xr, xi, yr, yi):
    """The product with x_0 y_0 added to coordinate 1: zero when a factor is."""
    pr, pi = mul_numerators(dim, xr, xi, yr, yi)
    pr[1] += xr[0] * yr[0]
    return pr, pi


def test_oracle_guards_raise_on_a_corrupted_kernel(monkeypatch):
    """A kernel that breaks the product trips the scalar-diagonal guard on
    random factors, and the Hermitian guard when every diagonal product has a
    zero factor (a diagonal matrix against one with only x_3), for C, H, O."""
    rng = make_rng(5)
    cases = []
    for tag in (ALG_C, ALG_H, ALG_O):
        z = AlgElement.zero(tag)
        pairs = ((random_jordan(tag, rng), random_jordan(tag, rng)),
                 (JordanMatrix.diag(tag, 1, 2, 3),
                  JordanMatrix(tag, (0, 0, 0), (z, z, AlgElement.one(tag)))))
        assert all(jordan_mul_full(a, b) == jordan_mul(a, b) for a, b in pairs)
        cases.append(pairs)
    monkeypatch.setattr(jordan, "mul_numerators", _corrupted_mul_numerators)
    for (a, b), (diag, slot3) in cases:
        with pytest.raises(ValueError, match="diagonal entries must be scalar"):
            jordan_mul_full(a, b)
        with pytest.raises(ValueError, match="matrix is not Hermitian"):
            jordan_mul_full(diag, slot3)
