import pytest

from jordanred import chow
from jordanred.chow import (HYP, NORMAL_CHERN, betti_table, blowup_intersection,
                            degree_y2_blowup, degree_y2_hilb, fixed_point_count,
                            hilb_term_table, mul, schubert_coefficients, segre_classes,
                            severi_betti, topology)

ONE = {(0, 0): 1}


def power(p, n):
    out = ONE
    for _ in range(n):
        out = mul(out, p)
    return out


def total(classes):
    """The sum of classes of Z[h, h']/(h^3, h'^3), zero coefficients dropped."""
    out = {}
    for p in classes:
        for m, c in p.items():
            out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def test_quotient_ring_arithmetic():
    h1, h2 = {(1, 0): 1}, {(0, 1): 1}
    assert power(h1, 3) == {} and power(h2, 3) == {}
    assert power(h1, 2) == {(2, 0): 1}
    assert mul({(2, 0): 1}, {(0, 2): 1}) == {(2, 2): 1}  # the point class
    assert power(HYP, 4) == {(2, 2): 6}  # degree of the projected surface
    assert mul(ONE, HYP) == HYP and total([h1, h2]) == HYP
    assert power(HYP, 5) == {}  # every degree-5 monomial dies in the quotient


def test_segre_chern_duality():
    s = segre_classes(NORMAL_CHERN)
    assert s[0] == ONE and s[1] == {(1, 0): -5, (0, 1): -5}
    assert mul(total((ONE,) + NORMAL_CHERN), total(s)) == ONE


@pytest.mark.parametrize("ij,value", [
    ((7, 0), 1), ((6, 1), 0), ((5, 2), 0), ((4, 3), 6),
    ((3, 4), 30), ((2, 5), 96), ((1, 6), 246),
])
def test_blowup_intersection_numbers(ij, value):
    assert blowup_intersection(*ij) == value


def test_blowup_intersection_validates():
    with pytest.raises(ValueError):
        blowup_intersection(3, 3)
    with pytest.raises(ValueError):
        blowup_intersection(8, -1)


def test_degree_both_routes():
    assert degree_y2_blowup() == 57
    assert degree_y2_hilb() == 57
    assert degree_y2_blowup() == degree_y2_hilb()
    # the intermediate expansion of the blow-up route
    assert 3 ** 6 - 27 * 20 * 6 + 9 * 15 * 30 - 3 * 6 * 96 + 246 == 57


def test_hilb_term_table():
    assert hilb_term_table() == (15, 90, 45, -240, 180, -18, -15)


def test_schubert_coefficients():
    x, y, z = schubert_coefficients()
    assert (x, y, z) == (1, 2, 4)
    assert 5 * x + 16 * y + 5 * z == 57
    # with x and z fixed geometrically, the degree relation forces y
    assert (57 - 5 - 20) // 16 == 2


BETTI = {
    1: (1, 1, 1, 1),
    2: (1, 1, 3, 3, 3, 1, 1),
    4: (1, 1, 2, 3, 4, 5, 5, 5, 4, 3, 2, 1, 1),
    8: (1, 1, 2, 2, 3, 4, 5, 6, 7, 8, 8, 9, 9, 9, 8, 8, 7, 6, 5, 4, 3, 2, 2, 1, 1),
}
EULER = {1: 4, 2: 13, 4: 37, 8: 121}


@pytest.mark.parametrize("a", [1, 2, 4, 8])
def test_topology(a):
    table, euler, fc = topology(a)
    assert table == BETTI[a]
    assert euler == EULER[a]
    assert fc == EULER[a]
    assert table == table[::-1]
    assert len(table) == 3 * a + 1
    assert fixed_point_count(a) == (4 if a == 1 else 3 * a * a // 2 + 3 * a + 1)


@pytest.mark.parametrize("a", [2, 4, 8])
def test_severi_betti_pattern(a):
    # pattern 1..2..3..2..1 with Euler characteristic 3a + 3
    values = [severi_betti(a, p) for p in range(2 * a + 1)]
    assert values == values[::-1]
    assert values[a] == 3
    assert sum(values) == 3 * a + 3


def test_topology_raises_when_a_cross_check_fails(monkeypatch):
    """A failed cross-check is an arithmetic error, also under python -O
    (the check is not an assert)."""
    monkeypatch.setattr(chow, "fixed_point_count", lambda a: 0)
    with pytest.raises(ArithmeticError):
        topology(8)


def test_topology_rejects_bad_dimension():
    with pytest.raises(ValueError):
        betti_table(3)
