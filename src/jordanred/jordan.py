"""The Jordan algebra of Hermitian 3x3 matrices over a composition algebra.

A matrix is stored cyclically as three diagonal scalars c_1, c_2, c_3 and
three algebra entries x_1, x_2, x_3 sitting at positions (2,3), (3,1),
(1,2), with conjugates opposite:

        [ c_1     x_3     conj(x_2) ]
        [ conj(x_3)  c_2     x_1    ]
        [ x_2     conj(x_1)  c_3    ]

"Hermitian" refers to the algebra conjugation only; the diagonal scalars
are arbitrary complex numbers (the form is complex-bilinear throughout).

The 3a + 3 coordinates (c_1, c_2, c_3, then the a coordinates of x_1, x_2
and x_3) form one flat Q(i) vector, laid out as in `algebra`: integer real
numerators `nr`, integer imaginary numerators `ni` and one shared
denominator `d`, normalised so that d > 0 and the gcd of d and all
numerators is 1.  The trace form, the trace and the determinant are single
passes over the numerators, and the product is one compiled straight-line
kernel per dimension, built on first use from `algebra`'s term generator;
`c` and `x` are read-only views.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from itertools import product
from typing import Optional, Tuple

from .algebra import (AlgebraTag, AlgElement, FlatVector, compile_kernel, mul_numerators,
                      product_terms, qbilin, scalar_terms, tag_by_name)
from .gaussrat import (GR_ONE, GR_ZERO, GaussRational, bilinear, from_numerators,
                       to_numerators)


def _slots(a: int):
    """The start index of x_1, x_2, x_3 in the flat coordinate vector."""
    return (3, 3 + a, 3 + 2 * a)


class JordanMatrix(FlatVector):
    __slots__ = ()

    def __init__(self, tag: AlgebraTag, c, x):
        c, x = tuple(c), tuple(x)
        if len(c) != 3 or len(x) != 3:
            raise ValueError("need 3 diagonal scalars and 3 off-diagonal entries")
        for e in x:
            if e.tag != tag:
                raise ValueError("off-diagonal entry from the wrong algebra")
        self.tag = tag
        self.nr, self.ni, self.d = to_numerators(c, ((e.nr, e.ni, e.d) for e in x))

    @property
    def c(self) -> Tuple[GaussRational, GaussRational, GaussRational]:
        """The diagonal scalars (a view)."""
        return tuple(from_numerators(self.nr[:3], self.ni[:3], self.d))

    @property
    def x(self) -> Tuple[AlgElement, AlgElement, AlgElement]:
        """The off-diagonal entries x_1, x_2, x_3 (a view)."""
        a = self.tag.dim
        return tuple(AlgElement._make(self.tag, self.nr[lo:lo + a], self.ni[lo:lo + a],
                                      self.d) for lo in _slots(a))

    # -- constructors -----------------------------------------------------

    @classmethod
    def diag(cls, tag: AlgebraTag, c1, c2, c3) -> "JordanMatrix":
        z = AlgElement.zero(tag)
        return cls(tag, (c1, c2, c3), (z, z, z))

    @classmethod
    def identity(cls, tag: AlgebraTag) -> "JordanMatrix":
        z = (0,) * (3 * tag.dim)
        return cls._raw(tag, (1, 1, 1) + z, (0, 0, 0) + z, 1)

    @classmethod
    def zero(cls, tag: AlgebraTag) -> "JordanMatrix":
        z = (0,) * (3 * tag.dim + 3)
        return cls._raw(tag, z, z, 1)

    def __repr__(self):
        return "JordanMatrix(%s, c=%r, x=%r)" % (self.tag, self.c, self.x)

    # -- trace forms ---------------------------------------------------------

    def trace(self) -> GaussRational:
        nr, ni = self.nr, self.ni
        return GaussRational._make(nr[0] + nr[1] + nr[2], ni[0] + ni[1] + ni[2], self.d)

    def is_traceless(self) -> bool:
        nr, ni = self.nr, self.ni
        return nr[0] + nr[1] + nr[2] == 0 and ni[0] + ni[1] + ni[2] == 0

    # -- JSON ------------------------------------------------------------------

    def to_json(self):
        return {
            "algebra": self.tag.name,
            "c": [ci.to_json() for ci in self.c],
            "x1": self.x[0].to_json(),
            "x2": self.x[1].to_json(),
            "x3": self.x[2].to_json(),
        }

    @classmethod
    def from_json(cls, obj) -> "JordanMatrix":
        tag = tag_by_name(obj["algebra"])
        if not isinstance(obj["c"], list):
            raise ValueError("c must be a JSON array")
        c = [GaussRational.from_json(v) for v in obj["c"]]
        x = [AlgElement.from_json(obj[k]) for k in ("x1", "x2", "x3")]
        return cls(tag, c, x)


def jordan_mul(A: JordanMatrix, B: JordanMatrix) -> JordanMatrix:
    """The symmetrized product (AB + BA)/2, entrywise.

    For diagonal i (cyclic indices):   c_i d_i + q(x_{i+1},y_{i+1}) + q(x_{i+2},y_{i+2})
    For off-diagonal slot i:  ((c_{i+1}+c_{i+2}) y_i + (d_{i+1}+d_{i+2}) x_i
                               + conj(y_{i+1} x_{i+2} + x_{i+1} y_{i+2})) / 2

    Every term lies over d_A d_B, and the 1/2 goes into the denominator
    2 d_A d_B, so the diagonal terms are doubled.  The formula is unrolled
    into one straight-line kernel per dimension (`jordan_kernel`).
    """
    A._check(B)
    nr, ni = jordan_kernel(A.tag.dim)(A.nr, A.ni, B.nr, B.ni)
    return JordanMatrix._make(A.tag, nr, ni, 2 * A.d * B.d)


@lru_cache(maxsize=None)
def jordan_kernel(a: int):
    """jordan_mul's formula for dimension a as a compiled function of the
    numerators (ar, ai, br, bi) of A and B, returning those of 2 A o B.

    The algebra products come from `algebra.product_terms`, and conj keeps
    coordinate 0 of a product and negates the others.
    """
    n = 3 * a + 3
    na = [("ar%d" % t, "ai%d" % t) for t in range(n)]
    nb = [("br%d" % t, "bi%d" % t) for t in range(n)]
    x = [na[lo:lo + a] for lo in _slots(a)]
    y = [nb[lo:lo + a] for lo in _slots(a)]

    def conj_product(u, v):
        return product_terms(a, 1, u, v)[:1] + product_terms(a, -1, u, v)[1:]

    def merged(parts):
        return tuple([term for part in parts for term in part[h]] for h in (0, 1))

    outputs = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        outputs.append(merged([scalar_terms(2, na[i], nb[i])] + [
            scalar_terms(2, u, v) for m in (j, k) for u, v in zip(x[m], y[m])]))
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        p, s = conj_product(y[j], x[k]), conj_product(x[j], y[k])
        for t in range(a):
            outputs.append(merged([scalar_terms(1, na[m], y[i][t]) for m in (j, k)]
                                  + [scalar_terms(1, nb[m], x[i][t]) for m in (j, k)]
                                  + [p[t], s[t]]))
    return compile_kernel("jordan%d" % a, dict.fromkeys(("ar", "ai", "br", "bi"), n),
                          outputs)


def _entries(X: JordanMatrix):
    """The full 3x3 array of X as (re, im) numerator entries over X.d."""
    a = X.tag.dim
    s = [((X.nr[i],) + (0,) * (a - 1), (X.ni[i],) + (0,) * (a - 1)) for i in range(3)]
    x1, x2, x3 = [(X.nr[lo:lo + a], X.ni[lo:lo + a]) for lo in _slots(a)]
    return [[s[0], x3, _conj(x2)], [_conj(x3), s[1], x1], [x2, _conj(x1), s[2]]]


def _conj(e):
    """conj on an (re, im) numerator entry: coordinates 1 to a - 1 negated."""
    return tuple(part[:1] + tuple(-v for v in part[1:]) for part in e)


def jordan_mul_full(A: JordanMatrix, B: JordanMatrix) -> JordanMatrix:
    """Oracle for jordan_mul: symmetrize the plain 3x3 matrix product over A.

    Both factors become nine (re, im) numerator entries (`_entries`).  Each
    entry of AB + BA sums six `mul_numerators` products, over 2 d_A d_B with
    the 1/2 in the denominator, and the result must be Hermitian with a scalar
    diagonal.  It shares no formula with the cyclic one of jordan_mul.
    """
    A._check(B)
    a = A.tag.dim
    ea, eb = _entries(A), _entries(B)
    p = [[None] * 3 for _ in range(3)]
    for i, j in product(range(3), repeat=2):
        terms = [mul_numerators(a, *x, *y) for k in range(3)
                 for x, y in ((ea[i][k], eb[k][j]), (eb[i][k], ea[k][j]))]
        p[i][j] = tuple(tuple(map(sum, zip(*part))) for part in zip(*terms))
    if any(any(p[i][i][0][1:]) or any(p[i][i][1][1:]) for i in range(3)):
        raise ValueError("diagonal entries must be scalar")
    if any(p[i][j] != _conj(p[j][i]) for i in range(3) for j in range(i)):
        raise ValueError("matrix is not Hermitian")
    x = (p[1][2], p[2][0], p[0][1])
    nr, ni = ([p[i][i][h][0] for i in range(3)] + [v for e in x for v in e[h]] for h in (0, 1))
    return JordanMatrix._make(A.tag, nr, ni, 2 * A.d * B.d)


def inner(A: JordanMatrix, B: JordanMatrix) -> GaussRational:
    """trace(A o B), the invariant symmetric bilinear form.

    The sum of all coordinate products, with the off-diagonal ones counted
    twice.
    """
    A._check(B)
    ar, ai, br, bi = A.nr, A.ni, B.nr, B.ni
    allr, alli = bilinear(ar, ai, br, bi)
    offr, offi = bilinear(ar[3:], ai[3:], br[3:], bi[3:])
    return GaussRational._make(allr + offr, alli + offi, A.d * B.d)


def trace_forms(X: JordanMatrix) -> Tuple[GaussRational, GaussRational, GaussRational]:
    """(trace, Q, Q') with Q = trace(X o X) and Q' = (trace^2 - Q)/2."""
    t = X.trace()
    q = inner(X, X)
    return t, q, (t * t - q) / 2


def det(X: JordanMatrix) -> GaussRational:
    """Freudenthal's cubic norm c_1 c_2 c_3 - sum c_i q(x_i) + 2 Re((x_1 x_2) x_3).

    It equals (t_1^3 - 3 t_1 t_2 + 2 t_3)/6 with t_k the trace of the k-th
    Jordan power; the test suite keeps that formula as the reference.  One
    pass over the numerators, over the denominator d^3.
    """
    a = X.tag.dim
    nr, ni = X.nr, X.ni
    x = [(nr[lo:lo + a], ni[lo:lo + a]) for lo in _slots(a)]
    pr, pi = nr[0] * nr[1] - ni[0] * ni[1], nr[0] * ni[1] + ni[0] * nr[1]
    sr, si = pr * nr[2] - pi * ni[2], pr * ni[2] + pi * nr[2]
    for k in range(3):
        qr, qi = bilinear(*x[k], *x[k])
        sr -= nr[k] * qr - ni[k] * qi
        si -= nr[k] * qi + ni[k] * qr
    # Re(p y) = p_0 y_0 - sum_{k >= 1} p_k y_k for p = x_1 x_2 and y = x_3
    pr, pi = mul_numerators(a, *x[0], *x[1])
    yr, yi = x[2]
    tr, ti = bilinear(pr[1:], pi[1:], yr[1:], yi[1:])
    sr += 2 * (pr[0] * yr[0] - pi[0] * yi[0] - tr)
    si += 2 * (pr[0] * yi[0] + pi[0] * yr[0] - ti)
    return GaussRational._make(sr, si, X.d ** 3)


def det3(X: JordanMatrix, Y: JordanMatrix, Z: JordanMatrix) -> GaussRational:
    """Full symmetric trilinear polarization, normalized by det3(X,X,X) = det(X)."""
    s = det(X + Y + Z)
    s = s - det(X + Y) - det(Y + Z) - det(X + Z)
    s = s + det(X) + det(Y) + det(Z)
    return s / 6


def char_poly(X: JordanMatrix):
    """Coefficients (1, -trace, Q', -det) of t^3 - trace t^2 + Q' t - det."""
    t, _, qp = trace_forms(X)
    return (GR_ONE, -t, qp, -det(X))


def cayley_hamilton_residual(X: JordanMatrix) -> JordanMatrix:
    """X^3 - trace(X) X^2 + Q'(X) X - det(X) I, which must vanish."""
    x2 = jordan_mul(X, X)
    x3 = jordan_mul(X, x2)
    t, _, qp = trace_forms(X)
    r = x3 - x2.scale(t) + X.scale(qp)
    return r - JordanMatrix.identity(X.tag).scale(det(X))


class SeveriClass(Enum):
    RANK_ONE = "rank_one"
    SQUARE_ZERO = "square_zero"
    PROJECTED_RANK_ONE = "projected_rank_one"
    NONE = "none"


def is_rank_one(X: JordanMatrix) -> bool:
    """X o X = trace(X) X, the equations cutting out the rank-one locus."""
    return jordan_mul(X, X) == X.scale(X.trace())


def classify_severi(X: JordanMatrix) -> Tuple[SeveriClass, Optional[GaussRational]]:
    """Membership of a nonzero matrix in the rank-one locus or its projection.

    For traceless X the projected class carries the scalar s with
    X o X - (Q/3) I = s X; the rank-one lift is then X + s I and 6 s^2 = Q.
    All decisions are made rationally, with no square roots.
    """
    if X.is_zero():
        raise ValueError("cannot classify the zero matrix")
    sq = jordan_mul(X, X)
    t = X.trace()
    if not t.is_zero():
        if sq == X.scale(t):
            return SeveriClass.RANK_ONE, None
        return SeveriClass.NONE, None
    if sq.is_zero():
        return SeveriClass.SQUARE_ZERO, GR_ZERO
    q = inner(X, X)
    n = sq - JordanMatrix.identity(X.tag).scale(q / 3)
    s = _proportionality_factor(n, X)
    if s is not None and 6 * s * s == q:
        return SeveriClass.PROJECTED_RANK_ONE, s
    return SeveriClass.NONE, None


def _proportionality_factor(N: JordanMatrix, X: JordanMatrix):
    """s with N = s X, or None.  X is assumed nonzero."""
    for k, (xr, xi) in enumerate(zip(X.nr, X.ni)):
        if xr or xi:
            s = (GaussRational._make(N.nr[k], N.ni[k], N.d)
                 / GaussRational._make(xr, xi, X.d))
            return s if X.scale(s) == N else None
    return None


def rank_one_lift(X: JordanMatrix):
    """For a projected rank-one (or square-zero) X, the rank-one Z = X + s I."""
    cls, s = classify_severi(X)
    if cls not in (SeveriClass.PROJECTED_RANK_ONE, SeveriClass.SQUARE_ZERO):
        raise ValueError("matrix is not on the projected rank-one locus")
    return X + JordanMatrix.identity(X.tag).scale(s), s


def discriminant(X: JordanMatrix) -> GaussRational:
    """Q(X)^3 - 54 det(X)^2 on traceless matrices.

    Vanishes exactly when the characteristic cubic t^3 - (Q/2) t - det has
    a multiple root; degree 6 in the entries of X.
    """
    if not X.is_traceless():
        raise ValueError("discriminant is defined on traceless matrices")
    q = inner(X, X)
    d = det(X)
    return q * q * q - 54 * d * d


def rank_one_from_chart(tag: AlgebraTag, x: AlgElement, y: AlgElement) -> JordanMatrix:
    """The rank-one matrix with first row (1, x, y) in the affine chart c_1 = 1.

    Its diagonal is (1, q(x), q(y)) and its slots x_1, x_2, x_3 are
    conj(x) y, conj(y) and x.
    """
    return JordanMatrix(tag, (1, qbilin(x, x), qbilin(y, y)), (x.conj() * y, y.conj(), x))


def _transposition(X: JordanMatrix, order) -> JordanMatrix:
    """The diagonal scalars and the conjugated slots of X, both read in `order`:
    a signed permutation of the numerators, which keeps them normalised."""
    a = X.tag.dim
    lo = _slots(a)

    def part(v):
        return tuple(v[k] for k in order) + tuple(
            -v[lo[k] + t] if t else v[lo[k]] for k in order for t in range(a))

    return JordanMatrix._raw(X.tag, part(X.nr), part(X.ni), X.d)


def sigma1(X: JordanMatrix) -> JordanMatrix:
    """The Jordan automorphism inducing the transposition (1 2) of diagonal units.

    Conjugation of the full matrix by the permutation matrix of (1 2); in the
    cyclic storage this swaps c_1/c_2 and sends (x_1,x_2,x_3) to the
    conjugates (conj x_2, conj x_1, conj x_3).
    """
    return _transposition(X, (1, 0, 2))


def sigma2(X: JordanMatrix) -> JordanMatrix:
    """The Jordan automorphism inducing the transposition (2 3) of diagonal units."""
    return _transposition(X, (0, 2, 1))
