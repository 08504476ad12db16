"""The flat-numerator kernels against per-scalar GaussRational references.

`AlgElement` and `JordanMatrix` compute on integer numerators over one shared
denominator.  The references below are the per-scalar loops they replace: the
algebra product from the multiplication table, the cyclic formula for the
Jordan product, and the determinant from traces of Jordan powers, all in
GaussRational arithmetic on the coordinate views.
"""

from fractions import Fraction
from math import gcd

import pytest

from jordanred.algebra import ALL_TAGS, AlgElement, mult_table, qbilin
from jordanred.gaussrat import GR_ZERO, GaussRational
from jordanred.jordan import JordanMatrix, det, inner, jordan_mul
from jordanred.sampling import make_rng, random_scalar

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


def ref_det(tag, X):
    """(t1^3 - 3 t1 t2 + 2 t3)/6 with t_k the trace of the k-th Jordan power."""
    def as_matrix(cx):
        c, x = cx
        return JordanMatrix(tag, c, [AlgElement(tag, e) for e in x])

    x2 = as_matrix(ref_jordan_mul(tag, X, X))
    x3 = as_matrix(ref_jordan_mul(tag, X, x2))
    t1, t2, t3 = (sum(m.c, GR_ZERO) for m in (X, x2, x3))
    return (t1 * t1 * t1 - 3 * t1 * t2 + 2 * t3) / 6


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
                      JordanMatrix(tag, A.c, A.x), JordanMatrix.from_entries(tag, A.entries()),
                      jordan_mul(JordanMatrix.identity(tag), A)):
            assert other == A and hash(other) == hash(A)
    assert AlgElement.zero(tag) == AlgElement(tag, [Fraction(0, 7)] * tag.dim)
    assert JordanMatrix.identity(tag) == JordanMatrix.diag(tag, 1, 1, 1)
    assert hash(JordanMatrix.identity(tag)) == hash(JordanMatrix.diag(tag, 1, 1, 1))
