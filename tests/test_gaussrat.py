import random
from fractions import Fraction

import pytest

from jordanred.gaussrat import GR_I, GR_ONE, GR_ZERO, GaussRational, gr


def test_construction_and_normalization():
    x = gr(Fraction(2, 4), Fraction(-6, 9))
    assert x.re == Fraction(1, 2) and x.im == Fraction(-2, 3)
    assert gr(3) == gr(Fraction(6, 2))
    assert gr(0, 0).is_zero() and not gr(0, 1).is_zero()



def test_integer_pairs_match_the_fraction_path():
    """GaussRational(int, int) skips Fraction; the fields must not differ."""
    pairs = [(0, 0), (0, -1), (-7, 0), (-3, -4), (5, 2), (10 ** 30, -(10 ** 29)),
             (True, False), (False, True), (True, -2), (3, True)]
    for re, im in pairs:
        fast = GaussRational(re, im)
        slow = GaussRational(Fraction(re), Fraction(im))
        assert (fast.nr, fast.ni, fast.d) == (slow.nr, slow.ni, slow.d)
        assert all(type(v) is int for v in (fast.nr, fast.ni, fast.d))
    assert GaussRational(-4) == GaussRational(Fraction(-4), Fraction(0))

def test_field_axioms_random():
    rng = random.Random(0)
    for _ in range(200):
        a = gr(rng.randint(-5, 5), rng.randint(-5, 5))
        b = gr(rng.randint(-5, 5), rng.randint(-5, 5))
        c = gr(rng.randint(-5, 5), rng.randint(-5, 5))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not b.is_zero():
            assert (a / b) * b == a
    assert GR_I * GR_I == gr(-1)


def test_conj_and_norm():
    x = gr(3, -2)
    assert x.conj() == gr(3, 2)
    assert (x * x.conj()).re == x.norm()
    assert x.norm() == Fraction(13)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GR_ONE / GR_ZERO


def test_int_fraction_interop():
    assert 2 * gr(1, 1) == gr(2, 2)
    assert gr(1, 1) + 1 == gr(2, 1)
    assert 1 - gr(0, 1) == gr(1, -1)
    assert gr(4) / 2 == gr(2)
    assert Fraction(1, 2) * gr(2, 4) == gr(1, 2)


def test_pow():
    assert gr(1, 1) ** 2 == gr(0, 2)
    assert gr(2) ** -1 == gr(Fraction(1, 2))
    assert gr(5, -3) ** 0 == GR_ONE


@pytest.mark.parametrize("value,root", [
    (gr(4), gr(2)),
    (gr(Fraction(9, 16)), gr(Fraction(3, 4))),
    (gr(-4), gr(0, 2)),
    (gr(0, 2), gr(1, 1)),
    (gr(-5, 12), gr(2, 3)),
    (GR_ZERO, GR_ZERO),
])
def test_sqrt_exact(value, root):
    s = value.sqrt()
    assert s is not None and s * s == value
    assert s in (root, -root)


@pytest.mark.parametrize("value", [gr(2), gr(-2), gr(0, 1), gr(1, 1), gr(3, 5)])
def test_sqrt_nonsquare(value):
    assert value.sqrt() is None


def test_json_round_trip():
    for x in (gr(Fraction(3, 7)), gr(0, Fraction(-2, 5)), gr(1, 1), GR_ZERO):
        assert GaussRational.from_json(x.to_json()) == x
    assert gr(Fraction(3, 7)).to_json() == "3/7"
    assert gr(1, -1).to_json() == ["1", "-1"]
    assert GaussRational.from_json(["-3/4", 2]) == gr(Fraction(-3, 4), 2)
    for bad in ({"re": 1}, "1e3", "1.5", " 1/2 ", "1_0", "+1", "1/0", True, 1.5,
                ["1", "1e3"]):
        with pytest.raises(ValueError):
            GaussRational.from_json(bad)
