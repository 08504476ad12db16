"""Exact Gaussian-rational scalars, and their wire format.

Every number in this package lives in Q(i).  A scalar is stored as a
normalized integer triple (nr, ni, d) meaning (nr + ni*i)/d with d > 0 and
gcd(nr, ni, d) = 1.  Vectors do not hold one such object per coordinate:
they keep the same layout for a whole vector, a sequence of real numerators,
a sequence of imaginary numerators and one shared denominator d > 0 with the
gcd of d and all numerators equal to 1, and build scalars of this type only
for results and read-only views.  A matrix is one triple (re rows, im rows,
d) in the same way: tuples of integer rows over one denominator.

This module is the one place that knows that layout.  `to_numerators` puts
scalars (and vectors) over their least common denominator, `from_numerators`
reads the scalars back and `normalize` restores the gcd condition; `mat_vec`
applies a Gaussian integer matrix to a vector and `bilinear` sums products
of coordinates, both on the numerators.  `normalize_matrix` and `mat_mat`
normalise and multiply matrix triples.  Scalars enter the layout through
`to_numerators` and views leave it through `from_numerators`.  Between
modules every vector is a triple (re, im, d): algebra elements, Jordan
matrices, J0 coordinates, wedge tensors, kernel vectors of `linalg` and
the ascending coefficients of a `PolyQi` polynomial; the inverse from
`linalg` and the unipotent automorphisms are matrix triples.

On the wire a scalar is a reduced "p/q" string (or "p") when real and a
pair [re, im] of those otherwise; JSON ints are accepted on input.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import mul


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _parse_rational(obj):
    """A JSON int or a string fully matching -?digits(/digits)?, as integers (p, q)."""
    if isinstance(obj, int) and not isinstance(obj, bool):
        return obj, 1
    match = _RATIONAL.fullmatch(obj) if isinstance(obj, str) else None
    if match is None:
        raise ValueError("not a Q(i) scalar encoding: %r" % (obj,))
    p, q = match.groups()
    q = 1 if q is None else int(q)
    if q == 0:
        raise ValueError("zero denominator in %r" % obj)
    return int(p), q


def _fraction_sqrt(x: Fraction):
    """Exact square root of a rational, or None if it is not a square."""
    if x < 0:
        return None
    p, q = x.numerator, x.denominator
    rp, rq = isqrt(p), isqrt(q)
    if rp * rp != p or rq * rq != q:
        return None
    return Fraction(rp, rq)


class GaussRational:
    """An element of Q(i), with exact field arithmetic."""

    __slots__ = ("nr", "ni", "d")

    def __init__(self, re=0, im=0):
        if isinstance(re, GaussRational):
            if im != 0:
                raise TypeError("cannot add an imaginary part to a GaussRational")
            self.nr, self.ni, self.d = re.nr, re.ni, re.d
            return
        if type(re) is int and type(im) is int:
            # already normalised over d = 1; bools take the Fraction path
            self.nr, self.ni, self.d = re, im, 1
            return
        if not (isinstance(re, (int, Fraction)) and isinstance(im, (int, Fraction))):
            raise TypeError("Q(i) parts must be int or Fraction, got %r and %r" % (re, im))
        re = Fraction(re)
        im = Fraction(im)
        d = re.denominator * im.denominator // gcd(re.denominator, im.denominator)
        nr = re.numerator * (d // re.denominator)
        ni = im.numerator * (d // im.denominator)
        self.nr, self.ni, self.d = nr, ni, d

    @classmethod
    def _make(cls, nr: int, ni: int, d: int) -> "GaussRational":
        if d < 0:
            nr, ni, d = -nr, -ni, -d
        g = gcd(gcd(nr, ni), d)
        if g > 1:
            nr //= g
            ni //= g
            d //= g
        self = object.__new__(cls)
        self.nr, self.ni, self.d = nr, ni, d
        return self

    # -- properties ----------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self.nr, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.ni, self.d)

    def is_zero(self) -> bool:
        return self.nr == 0 and self.ni == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic ----------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, GaussRational):
            return x
        if isinstance(x, int):
            return GaussRational._make(x, 0, 1)
        if isinstance(x, Fraction):
            return GaussRational._make(x.numerator, 0, x.denominator)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.d == o.d:
            return GaussRational._make(self.nr + o.nr, self.ni + o.ni, self.d)
        return GaussRational._make(
            self.nr * o.d + o.nr * self.d, self.ni * o.d + o.ni * self.d, self.d * o.d
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRational._make(
            self.nr * o.d - o.nr * self.d, self.ni * o.d - o.ni * self.d, self.d * o.d
        )

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return GaussRational._make(-self.nr, -self.ni, self.d)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.ni == 0 and o.ni == 0:
            return GaussRational._make(self.nr * o.nr, 0, self.d * o.d)
        return GaussRational._make(
            self.nr * o.nr - self.ni * o.ni,
            self.nr * o.ni + self.ni * o.nr,
            self.d * o.d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero in Q(i)")
        n = o.nr * o.nr + o.ni * o.ni
        # 1/o = conj(o) * d / |o|^2
        return GaussRational._make(
            (self.nr * o.nr + self.ni * o.ni) * o.d,
            (self.ni * o.nr - self.nr * o.ni) * o.d,
            self.d * n,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        if k < 0:
            return GR_ONE / (self ** (-k))
        out = GR_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conj(self) -> "GaussRational":
        return GaussRational._make(self.nr, -self.ni, self.d)

    # -- comparison / hashing -------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.nr == o.nr and self.ni == o.ni and self.d == o.d

    def __hash__(self):
        if self.ni == 0:
            return hash(Fraction(self.nr, self.d))
        return hash((self.nr, self.ni, self.d))

    # -- square roots ----------------------------------------------------

    def sqrt(self):
        """An exact square root in Q(i), or None if none exists."""
        if self.is_zero():
            return GR_ZERO
        if self.ni == 0:
            r = _fraction_sqrt(self.re)
            if r is not None:
                return GaussRational(r)
            r = _fraction_sqrt(-self.re)
            if r is not None:
                return GaussRational(0, r)
            return None
        # (x + yi)^2 = re + im*i  =>  x^2 - y^2 = re, 2xy = im
        s = _fraction_sqrt(self.re * self.re + self.im * self.im)
        if s is None:
            return None
        x = _fraction_sqrt((self.re + s) / 2)
        if x is None or x == 0:
            return None
        y = self.im / (2 * x)
        cand = GaussRational(x, y)
        return cand if cand * cand == self else None

    # -- formatting / JSON ------------------------------------------------

    @staticmethod
    def _frac_str(x: Fraction) -> str:
        return str(x.numerator) if x.denominator == 1 else "%d/%d" % (
            x.numerator,
            x.denominator,
        )

    def __repr__(self):
        if self.ni == 0:
            return self._frac_str(self.re)
        if self.nr == 0:
            return self._frac_str(self.im) + "*i"
        return "(%s%s%s*i)" % (
            self._frac_str(self.re),
            "+" if self.ni > 0 else "-",
            self._frac_str(abs(self.im)),
        )

    def to_json(self):
        """Reduced-string encoding: "p/q" when real, ["p/q","r/s"] otherwise."""
        if self.ni == 0:
            return self._frac_str(self.re)
        return [self._frac_str(self.re), self._frac_str(self.im)]

    @classmethod
    def from_json(cls, obj) -> "GaussRational":
        """Parse "p/q" or an int when real, a pair [re, im] of those otherwise.

        Anything else, such as a float, "1e3", "1.5" or " 1/2 ", raises
        ValueError; the pattern is matched before any number is built.
        """
        if isinstance(obj, (list, tuple)) and len(obj) == 2:
            (pr, qr), (pi, qi) = _parse_rational(obj[0]), _parse_rational(obj[1])
            return cls._make(pr * qi, pi * qr, qr * qi)
        p, q = _parse_rational(obj)
        return cls._make(p, 0, q)


GR_ZERO = GaussRational(0)
GR_ONE = GaussRational(1)
GR_I = GaussRational(0, 1)


def gr(re=0, im=0) -> GaussRational:
    """Shorthand constructor."""
    return GaussRational(re, im)


# -- the numerator layout of vectors -------------------------------------------


def to_numerators(vals, vectors=()):
    """Q(i) scalars, then numerator vectors, as one numerator vector.

    `vals` are scalars (GaussRational, Fraction or int) and `vectors` are
    triples (re, im, d) already in the layout.  Returns (re, im, d): tuples of
    integer real and imaginary numerators of the scalars followed by the
    vectors' entries, over the lcm d of all their denominators.  When every
    input is normalised, so is the result.
    """
    vals = list(vals)
    vectors = list(vectors)
    if all(type(v) is int for v in vals):
        # integer entries are (v, 0) over 1: no scalar object for each of them
        d = lcm(*(w[2] for w in vectors))
        re = [v * d for v in vals] if d != 1 else vals
        im = [0] * len(vals)
    else:
        vals = [v if isinstance(v, GaussRational) else GaussRational(v) for v in vals]
        d = lcm(*(v.d for v in vals), *(w[2] for w in vectors))
        re = [v.nr * (d // v.d) for v in vals]
        im = [v.ni * (d // v.d) for v in vals]
    for wr, wi, wd in vectors:
        f = d // wd
        re.extend(a * f for a in wr)
        im.extend(b * f for b in wi)
    return tuple(re), tuple(im), d


def from_numerators(re, im, d):
    """The scalars (re[k] + im[k] i)/d, each normalised: a list view of the vector."""
    return [GaussRational._make(a, b, d) for a, b in zip(re, im)]


def normalize(re, im, d: int):
    """(re, im, d) as tuples with d > 0 and gcd(d, *re, *im) = 1."""
    if d < 0:
        re, im, d = [-v for v in re], [-v for v in im], -d
    if d != 1:
        g = gcd(d, *re, *im)
        if g != 1:
            re, im, d = [v // g for v in re], [v // g for v in im], d // g
    return tuple(re), tuple(im), d


def bilinear(xr, xi, yr, yi):
    """Numerators (real, imaginary) of the complex-bilinear sum of x_k y_k."""
    return (sum(map(mul, xr, yr)) - sum(map(mul, xi, yi)),
            sum(map(mul, xr, yi)) + sum(map(mul, xi, yr)))


def mat_vec(m, re, im, d: int, m_im=None):
    """The matrix m + i m_im applied to the vector (re + i im)/d, normalised.

    m and m_im are integer matrices given by rows (m_im defaults to zero).
    A matrix over a denominator e is applied by passing d e as d.
    """
    out_re = [sum(map(mul, row, re)) for row in m]
    out_im = [sum(map(mul, row, im)) for row in m]
    if m_im is not None:
        out_re = [a - sum(map(mul, row, im)) for a, row in zip(out_re, m_im)]
        out_im = [b + sum(map(mul, row, re)) for b, row in zip(out_im, m_im)]
    return normalize(out_re, out_im, d)


def normalize_matrix(re, im, d: int):
    """The matrix (re + i im)/d, given by integer rows and d > 0, as tuples of
    row tuples with the gcd of d and every numerator equal to 1."""
    if d != 1:
        g = gcd(d, *(gcd(*row) for row in re), *(gcd(*row) for row in im))
        if g != 1:
            re = [[v // g for v in row] for row in re]
            im = [[v // g for v in row] for row in im]
            d //= g
    return tuple(map(tuple, re)), tuple(map(tuple, im)), d


def mat_mat(a, b):
    """The product of two matrix triples (re rows, im rows, d), normalised.

    Row i of the product sums the rows of b's numerators weighted by the
    nonzero entries of row i of a's, over the product of the denominators.
    """
    ar, ai, ad = a
    br, bi, bd = b
    brows = list(zip(br, bi))
    width = len(br[0])
    out_re, out_im = [], []
    for xr, xi in zip(ar, ai):
        sr, si = [0] * width, [0] * width
        for p, q, (yr, yi) in zip(xr, xi, brows):
            if p:
                sr = [s + p * y for s, y in zip(sr, yr)]
                si = [s + p * y for s, y in zip(si, yi)]
            if q:
                sr = [s - q * y for s, y in zip(sr, yi)]
                si = [s + q * y for s, y in zip(si, yr)]
        out_re.append(sr)
        out_im.append(si)
    return normalize_matrix(out_re, out_im, ad * bd)
