import random
from fractions import Fraction
from math import gcd

import pytest

from jordanred import gaussrat
from jordanred.algebra import ALG_C, AlgElement
from jordanred.gaussrat import (GR_I, GR_ONE, GR_ZERO, GaussRational, from_numerators, gr,
                                mat_vec, to_numerators)
from jordanred.reductions import OrbitClass, representative


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


@pytest.mark.parametrize("value", [0.1, "1e3", 1j], ids=["float", "string", "complex"])
def test_inexact_parts_are_refused(value):
    """Only int, Fraction and GaussRational build a scalar, as in every operator."""
    with pytest.raises(TypeError):
        GaussRational(value)
    with pytest.raises(TypeError):
        GaussRational(1, value)
    with pytest.raises(TypeError):
        AlgElement(ALG_C, [value, 1])
    with pytest.raises(TypeError):
        representative(ALG_C, OrbitClass.OPEN0).basis_change(value, 0, 0, 1)


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
    assert x * x.conj() == gr(13)


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


def test_from_json_fields_match_the_fraction_path():
    """The wire integers go straight into a normalised scalar."""
    rng = random.Random(3)
    words = ["0", "-0", "007", "-0/5", "6/4", "-10/15", str(10 ** 30) + "/" + str(6 ** 20)]
    words += ["%d/%d" % (rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(50)]
    for word in words:
        for obj in (word, [word, words[len(word) % len(words)]]):
            got = GaussRational.from_json(obj)
            parts = obj if isinstance(obj, list) else [obj, "0"]
            want = GaussRational(Fraction(parts[0]), Fraction(parts[1]))
            assert (got.nr, got.ni, got.d) == (want.nr, want.ni, want.d)


def _assert_normalised(re, im, d):
    assert type(re) is tuple and type(im) is tuple
    assert all(type(v) is int for v in re + im + (d,))
    assert d > 0 and gcd(d, *re, *im) == 1


def test_numerator_helpers_round_trip():
    cases = [
        [gr(Fraction(1, 2), Fraction(-1, 3)), Fraction(5, 6), 7, gr(0, Fraction(2, 9)), -3],
        [0, Fraction(0), GR_ZERO],
        [Fraction(1, 6), gr(Fraction(-1, 6), Fraction(1, 6)), Fraction(-1, 6)],
        [Fraction(2, 4), gr(Fraction(3, 9)), 10 ** 20],
        [],
    ]
    for vals in cases:
        re, im, d = to_numerators(vals)
        _assert_normalised(re, im, d)
        scalars = from_numerators(re, im, d)
        assert scalars == [v if isinstance(v, GaussRational) else gr(v) for v in vals]
        assert to_numerators(scalars) == (re, im, d)
    assert to_numerators([Fraction(2, 4), gr(Fraction(3, 9))]) == ((3, 2), (0, 0), 6)
    assert to_numerators([0, 0]) == ((0, 0), (0, 0), 1)
    # vectors already in the layout join the scalars over the lcm
    assert to_numerators([Fraction(1, 2)], [((1, 0), (0, 1), 3), ((5,), (0,), 10)]) == \
        ((15, 10, 0, 15), (0, 0, 10, 0), 30)


def test_integer_entries_match_the_scalar_path(monkeypatch):
    """Int entries go in as (v, 0) over 1; the fields equal those of the path
    that wraps every entry as a scalar first.  Bools take that path."""
    rng = random.Random(5)
    ints = [rng.randint(-10 ** 12, 10 ** 12) for _ in range(30)] + [0, -1, 10 ** 40]
    cases = [ints, [0] * 9, [True, False, True], [Fraction(-4, 6), Fraction(3)],
             [7, Fraction(1, 3), True, -2, gr(1, Fraction(1, 5)), 0], []]
    vectors = [(), [((3, -1), (0, 2), 1)], [((1, 0), (0, 1), 6), ((5,), (-5,), 4)]]
    for vals in cases:
        for vecs in vectors:
            got = to_numerators(vals, vecs)
            _assert_normalised(*got)
            assert got == to_numerators([gr(v) for v in vals], vecs)
    assert to_numerators([2, -3], [((1,), (1,), 4)]) == ((8, -12, 1), (0, 0, 1), 4)
    # an all-int vector builds no scalar object at all
    monkeypatch.setattr(gaussrat, "GaussRational", None)
    assert to_numerators(ints) == (tuple(ints), (0,) * len(ints), 1)


def test_integer_mat_vec_stays_normalised():
    assert mat_vec([[2, 0], [0, 2]], *to_numerators([Fraction(1, 2), Fraction(1, 4)])) == \
        ((2, 1), (0, 0), 2)
    # entries that cancel leave the zero vector over 1
    assert mat_vec([[1, 1], [3, 3]], *to_numerators([Fraction(1, 3), Fraction(-1, 3)])) == \
        ((0, 0), (0, 0), 1)
    # (1 + i) applied to (1 + i)/2 is i; a matrix over 3 passes its denominator in d
    assert mat_vec([[1]], (1,), (1,), 2, [[1]]) == ((0,), (1,), 1)
    assert mat_vec([[3]], (1,), (0,), 2 * 3) == ((1,), (0,), 2)
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 5)
        vals = [rng.choice((gr(Fraction(rng.randint(-6, 6), rng.randint(1, 6)),
                               Fraction(rng.randint(-6, 6), rng.randint(1, 6))),
                            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                            rng.randint(-3, 3), 0)) for _ in range(n)]
        m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, 4))]
        image = mat_vec(m, *to_numerators(vals))
        _assert_normalised(*image)
        assert from_numerators(*image) == \
            [sum((c * v for c, v in zip(row, vals)), GR_ZERO) for row in m]
