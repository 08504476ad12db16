"""Exact Gaussian-rational scalars, and their wire format.

Every number in this package lives in Q(i).  A scalar is stored as a
normalized integer triple (nr, ni, d) meaning (nr + ni*i)/d with d > 0 and
gcd(nr, ni, d) = 1.  Vectors do not hold one such object per coordinate:
`AlgElement` and `JordanMatrix` keep the same layout for a whole vector,
a tuple of real numerators, a tuple of imaginary numerators and one shared
denominator d > 0 with the gcd of d and all numerators equal to 1, and build
scalars of this type only for results and read-only views.

On the wire a scalar is a reduced "p/q" string (or "p") when real and a
pair [re, im] of those otherwise; JSON ints are accepted on input.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _parse_rational(obj) -> Fraction:
    """A JSON int or a string fully matching -?digits(/digits)?, as a Fraction."""
    if isinstance(obj, int) and not isinstance(obj, bool):
        return Fraction(obj)
    if isinstance(obj, str) and _RATIONAL.fullmatch(obj):
        try:
            return Fraction(obj)
        except ZeroDivisionError:
            raise ValueError("zero denominator in %r" % obj) from None
    raise ValueError("not a Q(i) scalar encoding: %r" % (obj,))


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

    def is_real(self) -> bool:
        return self.ni == 0

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

    def norm(self) -> Fraction:
        """The rational number re^2 + im^2."""
        return Fraction(self.nr * self.nr + self.ni * self.ni, self.d * self.d)

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
            return cls(_parse_rational(obj[0]), _parse_rational(obj[1]))
        return cls(_parse_rational(obj))


GR_ZERO = GaussRational(0)
GR_ONE = GaussRational(1)
GR_I = GaussRational(0, 1)


def gr(re=0, im=0) -> GaussRational:
    """Shorthand constructor."""
    return GaussRational(re, im)
