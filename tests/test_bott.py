from fractions import Fraction

import pytest

from jordanred.bott import (TorusCharacter, WeightVector,
                            class_sizes,
                            enumerate_fixed_points, localize,
                            staircase_tangent_char)

W = WeightVector(0, 1, 3)


def mono(*pairs):
    e = [0, 0, 0]
    for i, k in pairs:
        e[i] += k
    return tuple(e)


def test_fixed_point_count_and_classes():
    pts = enumerate_fixed_points()
    assert len(pts) == 22
    assert class_sizes() == {1: 1, 2: 6, 3: 6, 4: 6, 5: 3}


def test_class1_tangent_character():
    pts = [p for p in enumerate_fixed_points() if p.class_id == 1]
    assert len(pts) == 1
    expected = TorusCharacter()
    for i in range(3):
        for j in range(3):
            if i != j:
                expected.add(mono((i, 1), (j, -1)))
    assert pts[0].tangent_char == expected
    assert pts[0].detE0 == (0, 0, 0)
    assert pts[0].detE1 == (1, 1, 1)


def test_class5_template():
    pts = [p for p in enumerate_fixed_points() if p.class_id == 5]
    assert len(pts) == 3
    at0 = [p for p in pts if p.supports[0][0] == 0][0]
    expected = TorusCharacter()
    expected.add(mono((0, 1), (1, -1)), 2)
    expected.add(mono((0, 1), (2, -1)), 2)
    expected.add(mono((0, 1), (1, 1), (2, -2)))
    expected.add(mono((0, 1), (2, 1), (1, -2)))
    assert at0.tangent_char == expected
    assert at0.detE1 == (1, 1, 1)
    assert at0.detE0 == (-2, 1, 1)


def test_staircase_single_point():
    # one reduced point in a chart: the tangent space of the surface itself
    ch = staircase_tangent_char([(0, ((0, 0),), ), (1, ((0, 0),)), (2, ((0, 0),))])
    assert len(ch) == 6
    ch1 = staircase_tangent_char([(0, ((0, 0), (1, 0))), (1, ((0, 0),))])
    assert len(ch1) == 6


def test_staircase_colength_validation():
    with pytest.raises(ValueError):
        staircase_tangent_char([(0, ((0, 0), (1, 0)))])


def test_staircase_oracle_equals_templates():
    """The arm/leg formula and the tabulated characters agree on all 22 points."""
    for pt in enumerate_fixed_points():
        assert staircase_tangent_char(pt.supports) == pt.tangent_char


def detE_from_supports(supports):
    """(det E_0, det E_1) derived from the monomial ideals themselves."""
    e0 = [0, 0, 0]
    for k, cells in supports:
        a, b = sorted(set(range(3)) - {k})
        for c, r in cells:
            e0[a] += c
            e0[b] += r
            e0[k] -= c + r
    e1 = list(e0)
    for k, cells in supports:
        e1[k] += len(cells)
    return tuple(e0), tuple(e1)


def test_determinant_characters_from_ideals():
    for pt in enumerate_fixed_points():
        d0, d1 = detE_from_supports(pt.supports)
        assert d0 == pt.detE0
        assert d1 == pt.detE1


def test_localization_integrals():
    rep = localize(W)
    i0, i1, i2, i3 = rep.integrals
    assert (i3, i2, i0) == (243, 261, 57)
    # The first Chern integral: +171.  Riemann-Roch for the polarized
    # Calabi-Yau section demands chi(O_C(1)) = (717 - 3 I1)/12 be the
    # integer 17 = 20 - 3, which pins the sign (the opposite sign would
    # give the non-integer 102.5).
    assert i1 == 171
    assert Fraction(717 - 3 * i1, 12) == 17
    assert rep.euler_cy == i3 - 3 * i2 + 6 * i1 - 10 * i0 == -84
    assert rep.b3 == 4 - rep.euler_cy == 88


def test_weight_vector_independence():
    base = localize(W).integrals
    for other in (WeightVector(0, 1, 5), WeightVector(1, 5, 0),
                  WeightVector(-1, 2, 7)):
        assert localize(other).integrals == base


def test_genericity_enforced():
    assert not WeightVector(0, 1, 2).is_generic()  # 2*1 = 0 + 2
    assert not WeightVector(0, 1, 1).is_generic()
    assert WeightVector(0, 1, 3).is_generic()
    with pytest.raises(ValueError):
        localize(WeightVector(0, 1, 2))


def test_class1_row_and_lambda_columns():
    rep = localize(W)
    row1 = [r for r in rep.rows if r.class_id == 1][0]
    assert row1.weights == (-3, -2, -1, 1, 2, 3)
    assert row1.c6 == -36 and row1.lam == 8 and row1.c1 == 0 and row1.c2 == -14
    lam = {}
    for r in rep.rows:
        lam.setdefault(r.class_id, []).append(r.lam)
    assert sorted(lam[1]) == [8]
    assert sorted(lam[2]) == [3, 3, 9, 9, 12, 12]
    assert sorted(lam[3]) == [5, 6, 7, 9, 10, 11]
    assert sorted(lam[4]) == [3, 3, 9, 9, 12, 12]
    assert sorted(lam[5]) == [4, 7, 13]


# The full fixed-point table at weights (0, 1, 3): class, sorted tangent
# weights, c1, c2, c3, c6 and the weight of the polarization.
FULL_TABLE = [
    (1, (1, -1, 2, -2, 3, -3), 0, -14, 0, -36, 8),
    (2, (-1, -1, 2, 3, -3, 6), 6, -12, -70, -108, 9),
    (2, (1, 1, 2, -2, 3, 4), 9, 23, -5, -48, 12),
    (2, (1, -1, 2, -2, -3, -3), -6, 4, 30, 36, 3),
    (2, (1, -1, -2, -2, -2, -3), -9, 29, -35, -24, 3),
    (2, (1, 2, -2, 3, 3, -4), 3, -17, -63, 144, 12),
    (2, (-1, 2, 2, 3, -3, -6), -3, -27, 23, -216, 9),
    (3, (1, -1, 2, 3, -3, 4), 6, -2, -60, 72, 10),
    (3, (1, -1, -2, 3, -3, -4), -6, -2, 60, 72, 6),
    (3, (1, -1, 2, -2, 3, 6), 9, 13, -45, 72, 11),
    (3, (1, -1, 2, -2, -3, -6), -9, 13, 45, 72, 5),
    (3, (1, 2, 2, -2, 3, -3), 3, -11, -39, 72, 9),
    (3, (-1, 2, -2, -2, 3, -3), -3, -11, 39, 72, 7),
    (4, (-1, -1, -2, -2, -3, -3), -12, 58, -144, 36, 3),
    (4, (1, 2, -2, 3, -3, -4), -3, -17, 39, -144, 3),
    (4, (-1, 2, -3, 5, -6, -9), -12, -6, 368, 1620, 9),
    # the first weight here must be +1: the row's own c1 = -3 and c6 = -720
    # only balance with (1, -2, 3, -4, 5, -6)
    (4, (1, -2, 3, -4, 5, -6), -3, -41, 87, -720, 12),
    (4, (-1, 2, 3, -4, 6, 9), 15, 39, -235, 1296, 9),
    (4, (1, -1, 2, 3, 4, 6), 15, 79, 165, -144, 12),
    (5, (1, -1, -1, -3, -3, -5), -12, 49, -72, -45, 4),
    (5, (1, 1, -2, -2, 4, -5), -3, -21, 47, -80, 7),
    (5, (1, 2, 2, 3, 3, 4), 15, 91, 285, 144, 13),
]


def test_full_fixed_point_table():
    rep = localize(W)
    got = sorted((r.class_id, r.weights, r.c1, r.c2, r.c3, r.c6, r.lam)
                 for r in rep.rows)
    want = sorted((c, tuple(sorted(ws)), c1, c2, c3, c6, lam)
                  for (c, ws, c1, c2, c3, c6, lam) in FULL_TABLE)
    assert got == want


def test_first_chern_class_is_crepant():
    """c1(Z) = 3 h_Z - 3(w0+w1+w2) at every point: det T = O(3H) equivariantly."""
    wsum = W.w0 + W.w1 + W.w2
    for pt in enumerate_fixed_points():
        c1 = sum(pt.tangent_char.weights(W))
        h = W.pair(pt.detE1) - W.pair(pt.detE0)
        assert c1 == 3 * h - 3 * wsum


def bott_sum(f):
    s = Fraction(0)
    for pt in enumerate_fixed_points():
        ms = pt.tangent_char.weights(W)
        c6 = 1
        for m in ms:
            c6 *= m
        h = W.pair(pt.detE1) - W.pair(pt.detE0)
        lam = 2 * W.pair(pt.detE1) - W.pair(pt.detE0)
        s += Fraction(f(h, lam, ms), c6)
    assert s.denominator == 1
    return int(s)


def test_hilbert_scheme_chow_numbers_recovered():
    """Localization reproduces all seven quoted H^(6-k) A^k numbers."""
    got = [bott_sum(lambda h, lam, ms, k=k: h ** (6 - k) * (lam - h) ** k)
           for k in range(7)]
    assert got == [15, 15, 3, -12, 12, -3, -15]


def test_euler_characteristic_of_the_hilbert_scheme():
    assert bott_sum(lambda h, lam, ms: _e6(ms)) == 22


def _e6(ms):
    p = 1
    for m in ms:
        p *= m
    return p


def _series_mul(a, b, n):
    out = [Fraction(0)] * n
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if i + j < n and y:
                    out[i + j] += x * y
    return out


def _series_inv(a, n):
    out = [Fraction(0)] * n
    out[0] = 1 / a[0]
    for k in range(1, n):
        s = Fraction(0)
        for i in range(1, k + 1):
            s += a[i] * out[k - i]
        out[k] = -s / a[0]
    return out


def _exp_series(c, n):
    out = [Fraction(0)] * n
    term = Fraction(1)
    for k in range(n):
        out[k] = term
        term = term * c / (k + 1)
    return out


def _chi(bundle_weight, n=8):
    """Equivariant Riemann-Roch: the s^6 coefficient of the localized sum."""
    total = [Fraction(0)] * n
    for pt in enumerate_fixed_points():
        ms = pt.tangent_char.weights(W)
        f = _exp_series(bundle_weight(pt), n)
        for m in ms:
            e = _exp_series(-m, n)
            g = [Fraction(0)] * n
            for k in range(1, n):
                g[k - 1] = -e[k]  # (1 - e^{-ms})/s, constant term m
            f = _series_mul(f, _series_inv(g, n), n)
        for k in range(n):
            total[k] += f[k]
    assert all(total[k] == 0 for k in range(6)), "poles must cancel"
    return total[6]


def test_riemann_roch_structure_sheaf():
    """chi(O) = 1: the K-theoretic fixed point formula on the whole dataset."""
    assert _chi(lambda pt: 0) == 1


def test_riemann_roch_polarization_sections():
    """chi(l) = 20: the contracted sixfold is linearly normal in P^19."""
    lam = lambda pt: 2 * W.pair(pt.detE1) - W.pair(pt.detE0)
    assert _chi(lam) == 20
