"""Univariate polynomials over Q(i), with exact root extraction in degree <= 3.

Used to intersect pencils of Jordan matrices with the projected rank-one
locus.  Roots living in Q(i) are always found; factors that are irreducible
over Q(i) are returned as such (their roots are counted, not constructed).

A polynomial is one normalised numerator triple of `gaussrat`: the ascending
coefficients are (nr[k] + ni[k] i)/d.  Arithmetic runs on the integer
numerators and normalises once per result; the rational-root search reads
the numerators directly.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import zip_longest
from math import gcd

from .gaussrat import GR_ONE, GR_ZERO, GaussRational, from_numerators, normalize, to_numerators


class PolyQi:
    """Dense polynomial over Q(i): ascending coefficients (nr + i ni)/d.

    The triple is normalised and has no trailing zero coefficient, so equal
    polynomials have equal fields; `coeffs` is a read-only view of the
    coefficients as GaussRational scalars.
    """

    __slots__ = ("nr", "ni", "d")

    def __init__(self, coeffs):
        self.nr, self.ni, self.d = _strip(*to_numerators(coeffs))

    @classmethod
    def _make(cls, nr, ni, d: int) -> "PolyQi":
        """The polynomial with coefficient numerators nr, ni over d (d != 0)."""
        self = object.__new__(cls)
        self.nr, self.ni, self.d = _strip(nr, ni, d)
        return self

    @property
    def coeffs(self):
        """The coefficients as a tuple of GaussRational scalars (a view)."""
        return tuple(from_numerators(self.nr, self.ni, self.d))

    @property
    def degree(self) -> int:
        return len(self.nr) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.nr

    def __eq__(self, other):
        return (isinstance(other, PolyQi) and self.d == other.d and self.nr == other.nr
                and self.ni == other.ni)

    def __hash__(self):
        return hash((self.nr, self.ni, self.d))

    def __repr__(self):
        if self.is_zero():
            return "PolyQi(0)"
        return "PolyQi(" + " + ".join("%r*t^%d" % (c, k) for k, c in enumerate(self.coeffs)
                                      if not c.is_zero()) + ")"

    def _lincomb(self, other: "PolyQi", sign: int) -> "PolyQi":
        """self + sign * other, for sign = +-1."""
        fx, fy = other.d, sign * self.d
        return PolyQi._make(
            [a * fx + b * fy for a, b in zip_longest(self.nr, other.nr, fillvalue=0)],
            [a * fx + b * fy for a, b in zip_longest(self.ni, other.ni, fillvalue=0)],
            self.d * other.d)

    def __add__(self, other: "PolyQi") -> "PolyQi":
        return self._lincomb(other, 1)

    def __sub__(self, other: "PolyQi") -> "PolyQi":
        return self._lincomb(other, -1)

    def __mul__(self, other: "PolyQi") -> "PolyQi":
        if self.is_zero() or other.is_zero():
            return PolyQi(())
        n = len(self.nr) + len(other.nr) - 1
        re, im = [0] * n, [0] * n
        for i, (a, b) in enumerate(zip(self.nr, self.ni)):
            if a or b:
                for j, (x, y) in enumerate(zip(other.nr, other.ni)):
                    re[i + j] += a * x - b * y
                    im[i + j] += a * y + b * x
        return PolyQi._make(re, im, self.d * other.d)

    def monic(self) -> "PolyQi":
        """self divided by its leading coefficient a + bi: times a - bi, over a^2 + b^2."""
        if self.is_zero():
            return self
        a, b = self.nr[-1], self.ni[-1]
        return PolyQi._make([x * a + y * b for x, y in zip(self.nr, self.ni)],
                            [y * a - x * b for x, y in zip(self.nr, self.ni)], a * a + b * b)

    def __call__(self, t) -> GaussRational:
        """The value at the scalar t = (tr + ti i)/td, by Horner on the numerators."""
        if self.is_zero():
            return GR_ZERO
        (tr,), (ti,), td = to_numerators([t])
        ar = ai = 0
        q = 1  # td^k after k steps; the sum so far is over d td^(k-1)
        for a, b in zip(reversed(self.nr), reversed(self.ni)):
            ar, ai = ar * tr - ai * ti + a * q, ar * ti + ai * tr + b * q
            q *= td
        return GaussRational._make(ar, ai, self.d * (q // td))

    def derivative(self) -> "PolyQi":
        return PolyQi._make([k * a for k, a in enumerate(self.nr)][1:],
                            [k * b for k, b in enumerate(self.ni)][1:], self.d)

    def divmod(self, other: "PolyQi"):
        """(quotient, remainder), by pseudo-division on the numerators.

        Times the conjugate c of its leading coefficient, the divisor B has
        the positive integer lead n = |lead|^2.  Each step that clears a
        nonzero coefficient t multiplies everything by n and subtracts t times
        the shifted B c, storing t in the cleared place; after s such steps
        n^s self = Q B c + R, with Q above degree m and R below it.
        """
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        m = other.degree
        if self.degree < m:
            return PolyQi(()), self
        lr, li = other.nr[-1], other.ni[-1]
        n = lr * lr + li * li
        br = [a * lr + b * li for a, b in zip(other.nr[:m], other.ni[:m])]
        bi = [b * lr - a * li for a, b in zip(other.nr[:m], other.ni[:m])]
        rr, ri, den = list(self.nr), list(self.ni), self.d
        for k in range(self.degree - m, -1, -1):
            tr, ti = rr[k + m], ri[k + m]
            if tr or ti:
                rr, ri, den = [x * n for x in rr], [y * n for y in ri], den * n
                rr[k + m], ri[k + m] = tr, ti
                for j, (x, y) in enumerate(zip(br, bi)):
                    rr[k + j] -= tr * x - ti * y
                    ri[k + j] -= tr * y + ti * x
        # Q/den times B c = other.d c other
        f = other.d
        quot = PolyQi._make([(x * lr + y * li) * f for x, y in zip(rr[m:], ri[m:])],
                            [(y * lr - x * li) * f for x, y in zip(rr[m:], ri[m:])], den)
        return quot, PolyQi._make(rr[:m], ri[:m], den)

    def divides(self, other: "PolyQi") -> bool:
        _, r = other.divmod(self)
        return r.is_zero()

    def conj_coeffs(self) -> "PolyQi":
        return PolyQi._make(self.nr, [-b for b in self.ni], self.d)


def _strip(nr, ni, d: int):
    """The normalised triple of nr, ni over d without trailing zero coefficients."""
    n = len(nr)
    while n and not (nr[n - 1] or ni[n - 1]):
        n -= 1
    return normalize(nr[:n], ni[:n], d)


def poly_gcd(a: PolyQi, b: PolyQi) -> PolyQi:
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r
    return a.monic()


# -- integer helpers ---------------------------------------------------------


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    rng = random.Random(0xC0FFEE ^ n)
    while True:
        x = rng.randrange(2, n)
        y, c, d = x, rng.randrange(1, n), 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d


def _factorize(n: int) -> dict:
    if n == 0:
        raise ValueError("0 has no prime factorization")
    n = abs(n)
    out = {}
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = None
        f = 17
        while f * f <= m and f < 100000:
            if m % f == 0:
                d = f
                break
            f += 2
        if d is None:
            d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def integer_divisors(n: int):
    """All positive divisors of |n|; ValueError for n = 0."""
    fac = _factorize(n)
    divs = [1]
    for p, e in fac.items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def rational_roots_of_int_poly(coeffs):
    """The rational roots of an integer polynomial (ascending coefficients), lazily.

    Zero comes first when it is a root, then each p/q in lowest terms with
    p | a0 and q | an (by p, then q, then p before -p) for which the integer
    q^n f(p/q) vanishes.  Reducible p/q repeat a root with a smaller p.
    """
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        raise ValueError("zero polynomial")
    if coeffs[0] == 0:
        yield Fraction(0)
        while coeffs[0] == 0:
            del coeffs[0]
    qs = integer_divisors(coeffs[-1])
    for p in integer_divisors(coeffs[0]):
        for q in qs:
            if gcd(p, q) == 1:
                for r in (p, -p):
                    if _int_poly_value(coeffs, r, q) == 0:
                        yield Fraction(r, q)


def _int_poly_value(coeffs, p: int, q: int = 1) -> int:
    """q^n f(p/q) for the integer polynomial f of degree n (ascending coefficients)."""
    acc, qk = 0, 1
    for c in reversed(coeffs):
        acc = acc * p + c * qk
        qk *= q
    return acc


def _primitive(ints):
    """The nonzero integer vector divided by the gcd of its entries."""
    g = gcd(*ints)
    return [v // g for v in ints]


# -- roots over Q(i) -----------------------------------------------------------


def roots_qi(f: PolyQi):
    """All Q(i)-roots of f (degree <= 3 handled completely).

    Returns (roots, leftover_irreducible_factors); each leftover factor is
    irreducible over Q(i), so its degree counts conjugate roots living in a
    proper extension.
    """
    if f.is_zero():
        raise ValueError("zero polynomial has no root list")
    f = f.monic()
    roots = []
    leftovers = []
    while f.degree > 0:
        if f.degree > 3:
            raise NotImplementedError("root extraction implemented for degree <= 3")
        r = _find_one_root(f)
        if r is None:
            leftovers.append(f)
            break
        roots.append(r)
        f, rem = f.divmod(PolyQi([-r, GR_ONE]))
        if not rem.is_zero():
            raise ArithmeticError("a root found does not divide the polynomial")
    return roots, leftovers


def _find_one_root(f: PolyQi):
    if not (f.nr[0] or f.ni[0]):
        return GR_ZERO
    if f.degree == 1:
        return -f.coeffs[0] / f.coeffs[1]
    if f.degree == 2:
        c, b, a = f.coeffs
        s = (b * b - 4 * a * c).sqrt()
        return None if s is None else (-b + s) / (2 * a)
    # degree 3: a rational root is a root of gcd(Re f, Im f), which is f itself
    # when f is real
    re, im = PolyQi(f.nr), PolyQi(f.ni)
    g = poly_gcd(re, im)
    if g.degree >= 1:
        r = next(rational_roots_of_int_poly(_primitive(g.nr)), None)
        if r is not None:
            return GaussRational(r)
    if im.is_zero():
        # real coefficients with no rational root: any Q(i) root r would force
        # conj(r) to be a root too, leaving a rational third root. None exists.
        return None
    # properly complex cubic: non-real roots have a rational quadratic minimal
    # polynomial dividing f * conj(f); enumerate them Kronecker-style.
    G = f * f.conj_coeffs()
    gint = _primitive(G.nr)
    for c0, c1, c2 in _quadratic_factors(gint):
        s = GaussRational(c1 * c1 - 4 * c2 * c0).sqrt()
        if s is None:
            continue
        for ss in (s, -s):
            r = (ss - c1) / (2 * c2)
            if f(r).is_zero():
                return r
    return None


def _quadratic_factors(gint):
    """Candidate integer quadratic factors (c0, c1, c2) of an integer poly."""
    g0, g1, gm1 = (_int_poly_value(gint, x) for x in (0, 1, -1))
    if g0 == 0 or g1 == 0 or gm1 == 0:
        return []  # rational root present; handled elsewhere
    lead, g = gint[-1], PolyQi(gint)
    out = set()
    for c2 in integer_divisors(lead):
        for d0 in integer_divisors(g0):
            for s0 in (1, -1):
                c0 = s0 * d0
                for d1 in integer_divisors(g1):
                    for s1 in (1, -1):
                        # m(1) = c2 + c1 + c0 = s1*d1
                        c1 = s1 * d1 - c2 - c0
                        # check m(-1) divides gm1
                        mval = c2 - c1 + c0
                        if mval == 0 or gm1 % mval != 0:
                            continue
                        key = (c0, c1, c2)
                        if key not in out and PolyQi(key).divides(g):
                            out.add(key)
    return sorted(out)
