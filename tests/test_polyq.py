import random
from fractions import Fraction
from math import gcd, isqrt

import pytest

from jordanred.gaussrat import GR_ONE, GR_ZERO, GaussRational
from jordanred import polyq
from jordanred.polyq import PolyQi, poly_gcd, rational_roots_of_int_poly, roots_qi


def P(*cs):
    return PolyQi(list(cs))


def linear(root):
    return PolyQi([-root, GR_ONE])


def test_arithmetic_and_division():
    f = P(1, 2, 1)          # (t+1)^2
    g = linear(GaussRational(-1))
    q, r = f.divmod(g)
    assert r.is_zero() and q == P(1, 1)
    assert (q * g) == f
    assert f.derivative() == P(2, 2)
    assert f(GaussRational(-1)).is_zero() and f(GaussRational(1)) == GaussRational(4)


def test_gcd():
    f = linear(GaussRational(2)) * linear(GaussRational(0, 1)) * linear(GaussRational(-3))
    g = linear(GaussRational(2)) * linear(GaussRational(0, 1)) * linear(GaussRational(5))
    h = poly_gcd(f, g)
    assert h.degree == 2
    assert h(GaussRational(2)).is_zero() and h(GaussRational(0, 1)).is_zero()


def test_roots_rational_cubic():
    roots, left = roots_qi(P(6, -7, 0, 1))  # (t-1)(t-2)(t+3)
    assert not left
    assert sorted(r.re for r in roots) == [-3, 1, 2]


def test_roots_gaussian():
    roots, left = roots_qi(P(-2, 1, -2, 1))  # (t^2+1)(t-2)
    assert not left and GaussRational(0, 1) in roots and GaussRational(0, -1) in roots
    roots, left = roots_qi(P(GaussRational(0, -2), GaussRational(0), GaussRational(1)))  # t^2 - 2i
    assert not left and GaussRational(1, 1) in roots and GaussRational(-1, -1) in roots


def test_roots_complex_cubic_all_rational():
    f = linear(GaussRational(0, 1)) * linear(GaussRational(1, 1)) * linear(GaussRational(3))
    roots, left = roots_qi(f)
    assert not left
    assert {(r.re, r.im) for r in roots} == {(0, 1), (1, 1), (3, 0)}


def test_roots_complex_cubic_mixed():
    # one Q(i) root, one quadratic factor irreducible over Q(i)
    f = P(-1, -1, 1) * linear(GaussRational(1, 1))
    roots, left = roots_qi(f)
    assert roots == [GaussRational(1, 1)]
    assert len(left) == 1 and left[0].degree == 2


def test_roots_complex_cubic_nonreal_root_via_norm():
    # properly complex coefficients, non-real Gaussian root found through
    # the quadratic-factor enumeration of the norm polynomial
    f = linear(GaussRational(2, 3)) * P(GaussRational(1), GaussRational(0, 1), GaussRational(1))
    roots, left = roots_qi(f)
    assert GaussRational(2, 3) in roots


@pytest.mark.parametrize("poly", [P(-2, 0, 0, 1), P(-2, 0, 1), P(2, 0, 1)])
def test_irreducible_over_qi(poly):
    roots, left = roots_qi(poly)
    assert not roots and len(left) == 1 and left[0].degree == poly.degree


def test_integer_helpers():
    assert set(rational_roots_of_int_poly([6, -5, 1])) == {Fraction(2), Fraction(3)}
    assert Fraction(1, 2) in rational_roots_of_int_poly([-1, 0, 4])


# -- the numerator triple against schoolbook loops on GaussRational lists --------


def ref_strip(cs):
    cs = list(cs)
    while cs and cs[-1].is_zero():
        cs.pop()
    return cs


def ref_add(a, b, sign=1):
    n = max(len(a), len(b))
    a, b = a + [GR_ZERO] * (n - len(a)), b + [GR_ZERO] * (n - len(b))
    return ref_strip(x + y * sign for x, y in zip(a, b))


def ref_mul(a, b):
    if not a or not b:
        return []
    out = [GR_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return ref_strip(out)


def ref_divmod(a, b):
    rem, quot = list(a), [GR_ZERO] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quot) - 1, -1, -1):
        c = rem[k + len(b) - 1] / b[-1]
        quot[k] = c
        for j, y in enumerate(b):
            rem[k + j] = rem[k + j] - c * y
    return ref_strip(quot), ref_strip(rem)


def ref_monic(a):
    return [c / a[-1] for c in a] if a else []


def ref_gcd(a, b):
    while b:
        a, b = b, ref_divmod(a, b)[1]
    return ref_monic(a)


def ref_eval(a, t):
    acc = GR_ZERO
    for c in reversed(a):
        acc = acc * t + c
    return acc


def _scalar(rng, kind):
    if kind == "small":
        return GaussRational(rng.randint(-2, 2), rng.randint(-2, 2))
    if kind == "tall":
        return GaussRational(rng.randint(-10 ** 6, 10 ** 6), rng.randint(-10 ** 6, 10 ** 6))
    return GaussRational(Fraction(rng.randint(-9, 9), rng.randint(1, 12)),
              Fraction(rng.randint(-9, 9), rng.randint(1, 12)))


def _random_coeffs(rng, kind):
    """Up to 5 coefficients, sometimes with trailing zeros."""
    cs = [_scalar(rng, kind) for _ in range(rng.randint(0, 5))]
    return cs + [GR_ZERO] * rng.choice((0, 0, 2))


def _assert_normalised(p, ref):
    assert list(p.coeffs) == ref
    assert len(p.nr) == len(p.ni) == len(ref)
    assert p.d > 0 and gcd(p.d, *p.nr, *p.ni) == 1
    assert all(type(v) is int for v in p.nr + p.ni + (p.d,))


@pytest.mark.parametrize("kind", ("small", "tall", "mixed"))
def test_triple_polynomials_match_the_schoolbook_loops(kind):
    rng = random.Random("polyq/" + kind)
    for _ in range(60):
        ca, cb = _random_coeffs(rng, kind), _random_coeffs(rng, kind)
        a, b = PolyQi(ca), PolyQi(cb)
        ra, rb = ref_strip(ca), ref_strip(cb)
        _assert_normalised(a, ra)
        _assert_normalised(a + b, ref_add(ra, rb))
        _assert_normalised(a - b, ref_add(ra, rb, -1))
        _assert_normalised(a * b, ref_mul(ra, rb))
        _assert_normalised(a.monic(), ref_monic(ra))
        _assert_normalised(a.derivative(), ref_strip(c * k for k, c in enumerate(ra))[1:])
        t = _scalar(rng, kind)
        assert a(t) == ref_eval(ra, t)
        if rb:
            q, r = a.divmod(b)
            rq, rr = ref_divmod(ra, rb)
            _assert_normalised(q, rq)
            _assert_normalised(r, rr)
        # a common factor c, so the gcd is not always 1
        c = PolyQi(_random_coeffs(rng, kind)[:3])
        rc = list(c.coeffs)
        _assert_normalised(poly_gcd(a * c, b * c), ref_gcd(ref_mul(ra, rc), ref_mul(rb, rc)))
        # equal polynomials have equal fields and hashes
        for same in ((a + b) - b, PolyQi(list(a.coeffs) + [GR_ZERO])):
            assert same == a and hash(same) == hash(a)
            assert (same.nr, same.ni, same.d) == (a.nr, a.ni, a.d)


# -- rational roots against a brute-force Fraction reference -------------------

HIGHLY_COMPOSITE = (12, 60, 360, 720, 2520, 5040)


def _divisors(n):
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


def ref_rational_roots(coeffs):
    """Every p | a0 and q | an as the reduced p/q and -p/q, each kept once in
    first-appearance order if it is a root, after 0 if 0 is one."""
    while coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    roots = [Fraction(0)] if coeffs[0] == 0 else []
    while coeffs[0] == 0:
        coeffs = coeffs[1:]
    qs = _divisors(coeffs[-1])
    for p in _divisors(coeffs[0]):
        for q in qs:
            for r in (Fraction(p, q), Fraction(-p, q)):
                value = Fraction(0)
                for c in reversed(coeffs):
                    value = value * r + c
                if value == 0 and r not in roots:
                    roots.append(r)
    return roots


def _times(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _random_int_poly(rng, degree):
    """Ascending integer coefficients: up to `degree` rational linear factors
    q t - p times a random factor of the remaining degree."""
    poly = [1]
    for _ in range(rng.randint(0, degree)):
        poly = _times(poly, [-rng.choice((0, 1, 2, 3, 5)) * rng.choice((1, -1)),
                             rng.choice((1, 2, 3, 4))])
    rest = [rng.choice((0, 1, 2, 3, 5, 7, 30)) * rng.choice((1, -1))
            for _ in range(degree - len(poly) + 2)]
    rest[-1] = rng.choice((1, 2, 3, 5)) * rng.choice((1, -1))
    # a highly composite constant or leading coefficient: many candidates p/q
    rest[rng.choice((0, -1)) if len(rest) > 1 else 0] = \
        rng.choice(HIGHLY_COMPOSITE + (1, 2, 3)) * rng.choice((1, -1))
    return _times(poly, rest)


@pytest.mark.parametrize("seed", range(4))
def test_rational_roots_match_the_brute_force_reference(seed):
    rng = random.Random(seed)
    seen = {"zero constant": 0, "negative leading": 0, "with roots": 0}
    for _ in range(40):
        coeffs = _random_int_poly(rng, rng.randint(1, 4))
        assert 1 <= len(coeffs) - 1 <= 4
        expected = sorted(ref_rational_roots(coeffs))
        assert list(rational_roots_of_int_poly(coeffs)) == expected
        assert list(rational_roots_of_int_poly(coeffs + [0, 0])) == expected
        seen["zero constant"] += coeffs[0] == 0
        seen["negative leading"] += coeffs[-1] < 0
        seen["with roots"] += bool(expected)
    assert min(seen.values()) > 5, seen


def test_rational_roots_are_ascending_and_reject_the_zero_polynomial():
    assert rational_roots_of_int_poly([-6, 1, 1]) == [-3, 2]  # (t - 2)(t + 3)
    for zero in ([], [0], [0, 0, 0]):
        with pytest.raises(ValueError):
            list(rational_roots_of_int_poly(zero))
    assert list(rational_roots_of_int_poly([5])) == []
    assert list(rational_roots_of_int_poly([0, 0, 7])) == [0]


# -- cubics through the one degree-3 branch -------------------------------------


def lin(r, q=1):
    """q t - q r."""
    return PolyQi([-r * q, q])


@pytest.mark.parametrize("f, roots, leftovers", [
    (lin(GaussRational(Fraction(3, 2)), 2) * P(1, 1, 1),
     [GaussRational(Fraction(3, 2))], [P(1, 1, 1)]),
    (lin(GaussRational(Fraction(-5, 2)), 2) * P(-2, 0, 1),
     [GaussRational(Fraction(-5, 2))], [P(-2, 0, 1)]),
    (lin(GaussRational(-7)) * P(3, 0, 1), [GaussRational(-7)], [P(3, 0, 1)]),
    (lin(GaussRational(Fraction(35, 6)), 6) * P(-6, 0, 1),
     [GaussRational(Fraction(35, 6))], [P(-6, 0, 1)]),
    # t^2 + 4 is irreducible over Q but splits over Q(i)
    (lin(GaussRational(Fraction(1, 3)), -3) * P(4, 0, 1),
     [GaussRational(Fraction(1, 3)), GaussRational(0, -2), GaussRational(0, 2)], []),
    (lin(GaussRational(Fraction(-720, 7)), 7) * P(5040, -2520, 360),
     [GaussRational(Fraction(-720, 7))], [P(14, -7, 1)]),
], ids=["3/2", "-5/2", "-7", "35/6", "1/3-splits", "-720/7"])
def test_real_cubic_with_one_rational_root(f, roots, leftovers):
    assert not any(c.ni for c in f.coeffs)
    assert roots_qi(f) == (roots, leftovers)
    _assert_complete(f, roots, leftovers)


@pytest.mark.parametrize("f, roots, leftovers", [
    (lin(GaussRational(2)) * P(1, GaussRational(0, 1), 1),
     [GaussRational(2)], [P(1, GaussRational(0, 1), 1)]),
    (lin(GaussRational(Fraction(-1, 3)), 3) * lin(GaussRational(0, 1)) * lin(GaussRational(2, 1)),
     [GaussRational(Fraction(-1, 3)), GaussRational(0, 1), GaussRational(2, 1)], []),
    (lin(GaussRational(Fraction(5, 7)), 7) * P(GaussRational(0, 3), GaussRational(1, 1), 1),
     [GaussRational(Fraction(5, 7))], [P(GaussRational(0, 3), GaussRational(1, 1), 1)]),
    (lin(GaussRational(Fraction(-12, 5)), 5)
     * P(GaussRational(2, -1), GaussRational(0, 2), GaussRational(3)),
     [GaussRational(Fraction(-12, 5))],
     [P(GaussRational(Fraction(2, 3), Fraction(-1, 3)), GaussRational(0, Fraction(2, 3)), 1)]),
    (lin(GaussRational(60)) * P(GaussRational(1, 360), GaussRational(0, -1), GaussRational(0, 1)),
     [GaussRational(60)], [P(GaussRational(360, -1), -1, 1)]),
    (lin(GaussRational(Fraction(1, 2)), 2) * lin(GaussRational(Fraction(1, 2)))
     * lin(GaussRational(3, -4)),
     [GaussRational(Fraction(1, 2)), GaussRational(3, -4)], []),
], ids=["2", "-1/3", "5/7", "-12/5", "60", "1/2-double"])
def test_complex_cubic_with_a_rational_root(f, roots, leftovers):
    assert any(c.ni for c in f.coeffs)
    assert roots_qi(f) == (roots, leftovers)
    _assert_complete(f, roots, leftovers)


# -- the search at heights a divisor search cannot reach ------------------------


def _value(coeffs, r):
    """f(r) for ascending integer coefficients and a Fraction r."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * r + c
    return acc


# integer factors without a rational root; (t^2 - 2)(t^2 - 3) has two roots
# in the cell [1, 2], beside the planted roots 1 and 2 below
IRRATIONAL_FACTORS = ([1], [-2, 0, 1], [1, 0, 1], [-2, 0, 0, 1], [-3, 0, 2],
                      _times([-2, 0, 1], [-3, 0, 1]))


def _planted(rng, degree):
    """Ascending integer coefficients of degree `degree` with planted rational
    roots (multiplicities up to 3) of height up to 10^(40 // number of roots),
    and the set of those roots."""
    cofactor = rng.choice([c for c in IRRATIONAL_FACTORS if len(c) <= degree])
    count = degree - (len(cofactor) - 1)
    height = 10 ** (40 // count) if count else 1
    roots = []
    while len(roots) < count:
        r = Fraction(rng.randint(-height, height), rng.randint(1, height))
        if rng.random() < 0.3:  # a neighbour inside the same unit cell
            r = rng.choice(roots) + Fraction(1, rng.randint(2, height + 2)) if roots else r
        roots.extend([r] * min(rng.choice((1, 1, 2, 3)), count - len(roots)))
    sign = rng.choice((1, -1))
    poly = [c * sign for c in cofactor]
    for r in roots:
        poly = _times(poly, [-r.numerator, r.denominator])
    return poly, set(roots)


@pytest.mark.parametrize("seed", range(3))
def test_planted_rational_roots_up_to_height_1e40(seed):
    rng = random.Random("planted/%d" % seed)
    for degree in range(1, 10):
        for _ in range(4):
            coeffs, planted = _planted(rng, degree)
            assert len(coeffs) - 1 == degree
            got = rational_roots_of_int_poly(coeffs)
            assert got == sorted(planted)
            assert all(_value(coeffs, r) == 0 for r in got)


@pytest.mark.parametrize("coeffs, roots", [
    # 1, sqrt 2, sqrt 3 and 2 in one cell; 1 and 2 with multiplicity 3
    (_times(_times([-2, 0, 1], [-3, 0, 1]), _times(_times([-1, 1], [-1, 1]), [-2, 1])),
     [1, 2]),
    (_times(_times([-1, 1], [-1, 1]), [-1, 1]) + [0] * 2, [1]),
    # two roots 10^-40 apart
    (_times([-10 ** 40, 10 ** 40 + 1], [-1, 1]), [Fraction(10 ** 40, 10 ** 40 + 1), 1]),
    (_times([-(10 ** 40 + 3), 7], [10 ** 40 - 1, 10 ** 39]) + [0],
     [Fraction(-(10 ** 40 - 1), 10 ** 39), Fraction(10 ** 40 + 3, 7)]),
    ([-(10 ** 40 + 7), 0, 0, 0, 0, 0, 0, 0, 0, 1], []),
], ids=["cell-1-2", "triple", "1e-40-apart", "1e40-ends", "ninth-root"])
def test_rational_roots_in_tight_cases(coeffs, roots):
    assert rational_roots_of_int_poly(coeffs) == roots
    assert rational_roots_of_int_poly([-c for c in coeffs]) == roots


def _is_gaussian_square(z):
    """Whether z = (nr + ni i)/d is a square in Q(i).

    It is one exactly when w = (nr + ni i) d is a square x + yi squared in Z[i],
    and then x^2 = (|w| + Re w)/2 and y^2 = (|w| - Re w)/2.
    """
    a, b = z.nr * z.d, z.ni * z.d
    n = isqrt(a * a + b * b)
    x, y = isqrt((n + a) // 2), isqrt((n - a) // 2)
    return any(GaussRational(x, s * y) ** 2 == GaussRational(a, b) for s in (1, -1))


def test_gaussian_square_oracle():
    rng = random.Random("squares")
    for _ in range(40):
        z = GaussRational(Fraction(rng.randint(-99, 99), rng.randint(1, 9)),
                          Fraction(rng.randint(-99, 99), rng.randint(1, 9)))
        assert _is_gaussian_square(z * z)
    for z in (GaussRational(2), GaussRational(-2), GaussRational(0, 1), GaussRational(1, 1),
              GaussRational(3, 5), GaussRational(Fraction(1, 2))):
        assert not _is_gaussian_square(z)


def _squarefree(f):
    return f.divmod(poly_gcd(f, f.derivative()))[0].monic()


def _assert_complete(f, roots, leftovers):
    """The roots are distinct roots of f in order (the real ones ascending,
    then by imaginary and real part), the leftovers have none in Q(i), and
    together they make up the squarefree part of f."""
    assert all(f(r).is_zero() for r in roots)
    assert roots == sorted(set(roots), key=lambda r: (r.ni != 0, r.im, r.re))
    product = PolyQi([GR_ONE])
    for r in roots:
        product = product * linear(r)
    for g in leftovers:
        assert g.degree in (2, 3)
        if g.degree == 2:
            c, b, a = g.coeffs
            assert not _is_gaussian_square(b * b - 4 * a * c)
        product = product * g
    assert product == _squarefree(f)


@pytest.mark.parametrize("f, planted", [
    (linear(GaussRational(10 ** 20 + 7, -(10 ** 19 + 1)))
     * P(GaussRational(10 ** 30, 3), GaussRational(2, 10 ** 25), 1),
     [GaussRational(10 ** 20 + 7, -(10 ** 19 + 1))]),
    (linear(GaussRational(Fraction(3, 7), Fraction(5, 11)))
     * linear(GaussRational(Fraction(-2, 9), Fraction(1, 4)))
     * linear(GaussRational(Fraction(3, 7), Fraction(-5, 11))),
     [GaussRational(Fraction(3, 7), Fraction(5, 11)),
      GaussRational(Fraction(-2, 9), Fraction(1, 4)),
      GaussRational(Fraction(3, 7), Fraction(-5, 11))]),
    (linear(GaussRational(Fraction(10 ** 20 + 1, 3), Fraction(-(10 ** 18), 7)))
     * linear(GaussRational(-(10 ** 15), 10 ** 21 + 9)) * P(GaussRational(0, 10 ** 20), 1),
     [GaussRational(Fraction(10 ** 20 + 1, 3), Fraction(-(10 ** 18), 7)),
      GaussRational(-(10 ** 15), 10 ** 21 + 9)]),
    (linear(GaussRational(5, 10 ** 30)) * linear(GaussRational(5, 10 ** 30))
     * linear(GaussRational(-5, 10 ** 30)),
     [GaussRational(5, 10 ** 30), GaussRational(-5, 10 ** 30)]),
], ids=["issue-tall", "three-nonreal", "tall-denominators", "double-tall"])
def test_complex_cubics_with_planted_gaussian_roots(f, planted):
    assert any(c.ni for c in f.coeffs)
    roots, leftovers = roots_qi(f)
    assert set(planted) <= set(roots)
    _assert_complete(f, roots, leftovers)


@pytest.mark.parametrize("seed", range(2))
def test_random_complex_cubics_are_split_completely(seed):
    rng = random.Random("complex/%d" % seed)
    for _ in range(30):
        h = rng.choice((3, 10 ** 6, 10 ** 20))
        r = GaussRational(Fraction(rng.randint(-h, h), rng.randint(1, 9)),
               Fraction(rng.randint(-h, h), rng.randint(1, 9)))
        cofactor = P(GaussRational(rng.randint(-h, h), rng.randint(-h, h)),
                     GaussRational(rng.randint(-h, h), rng.randint(-h, h)), 1)
        f = linear(r) * cofactor
        roots, leftovers = roots_qi(f)
        assert r in roots
        _assert_complete(f, roots, leftovers)


@pytest.mark.parametrize("f, roots", [
    (linear(GaussRational(0, 1)) * linear(GaussRational(2, 1)) * linear(GaussRational(-3, 1)),
     [GaussRational(-3, 1), GaussRational(0, 1), GaussRational(2, 1)]),
    (linear(GaussRational(Fraction(2, 3), -5)), [GaussRational(Fraction(2, 3), -5)]),
    (linear(GaussRational(1, 2)) * linear(GaussRational(1, 2)) * linear(GaussRational(0, -1)),
     [GaussRational(0, -1), GaussRational(1, 2)]),
    (linear(GaussRational(4, 1)) * linear(GaussRational(-1)) * linear(GaussRational(4, -1)),
     [GaussRational(-1), GaussRational(4, -1), GaussRational(4, 1)]),
], ids=["one-imaginary-part", "linear-nonreal", "double-nonreal", "sorted"])
def test_roots_are_distinct_and_sorted(f, roots):
    assert roots_qi(f) == (roots, [])
    _assert_complete(f, roots, [])


def test_degree_above_three_after_the_squarefree_part_is_refused():
    f = linear(GaussRational(1)) * linear(GaussRational(2)) * linear(GaussRational(3))
    assert roots_qi(f * linear(GaussRational(2)))[0] == [1, 2, 3]
    with pytest.raises(NotImplementedError):
        roots_qi(f * linear(GaussRational(4)))


def _count_searches(monkeypatch):
    calls = {"rational": 0, "imaginary": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper
    monkeypatch.setattr(polyq, "rational_roots_of_int_poly",
                        counted("rational", polyq.rational_roots_of_int_poly))
    monkeypatch.setattr(polyq, "_imaginary_parts", counted("imaginary", polyq._imaginary_parts))
    return calls


def test_rational_roots_take_one_search(monkeypatch):
    calls = _count_searches(monkeypatch)
    f = lin(GaussRational(Fraction(-7, 3)), 3) * linear(GaussRational(5)) * linear(GaussRational(5))
    assert roots_qi(f) == ([Fraction(-7, 3), 5], [])
    assert calls == {"rational": 1, "imaginary": 0}


def test_real_irreducible_cubic_skips_the_imaginary_parts(monkeypatch):
    calls = _count_searches(monkeypatch)
    f = P(-(10 ** 40 + 7), 3, 0, 1)
    assert roots_qi(f) == ([], [f])
    assert calls == {"rational": 1, "imaginary": 0}
