"""Univariate polynomials over Q(i), with exact root extraction in degree <= 3.

Used to intersect pencils of Jordan matrices with the projected rank-one
locus.  Roots living in Q(i) are always found; factors that are irreducible
over Q(i) are returned as such (their roots are counted, not constructed).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .gaussrat import GR_ONE, GR_ZERO, GaussRational, to_numerators


class PolyQi:
    """Dense polynomial with GaussRational coefficients, ascending order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [GaussRational(c) if not isinstance(c, GaussRational) else c for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, PolyQi) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero():
            return "PolyQi(0)"
        return "PolyQi(" + " + ".join("%r*t^%d" % (c, k) for k, c in enumerate(self.coeffs)
                                      if not c.is_zero()) + ")"

    def __add__(self, other: "PolyQi") -> "PolyQi":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [GR_ZERO] * (n - len(self.coeffs))
        b = list(other.coeffs) + [GR_ZERO] * (n - len(other.coeffs))
        return PolyQi([x + y for x, y in zip(a, b)])

    def __sub__(self, other: "PolyQi") -> "PolyQi":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [GR_ZERO] * (n - len(self.coeffs))
        b = list(other.coeffs) + [GR_ZERO] * (n - len(other.coeffs))
        return PolyQi([x - y for x, y in zip(a, b)])

    def __neg__(self) -> "PolyQi":
        return PolyQi([-c for c in self.coeffs])

    def __mul__(self, other: "PolyQi") -> "PolyQi":
        if self.is_zero() or other.is_zero():
            return PolyQi([])
        out = [GR_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return PolyQi(out)

    def scale(self, s: GaussRational) -> "PolyQi":
        return PolyQi([c * s for c in self.coeffs])

    def monic(self) -> "PolyQi":
        if self.is_zero():
            return self
        lc = self.coeffs[-1]
        return self.scale(GR_ONE / lc)

    def __call__(self, t: GaussRational) -> GaussRational:
        acc = GR_ZERO
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def derivative(self) -> "PolyQi":
        return PolyQi([c * k for k, c in enumerate(self.coeffs)][1:])

    def divmod(self, other: "PolyQi"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return PolyQi([]), self
        quot = [GR_ZERO] * (dq + 1)
        lc = other.coeffs[-1]
        for k in range(dq, -1, -1):
            c = rem[k + other.degree] / lc
            quot[k] = c
            if not c.is_zero():
                for j, b in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] - c * b
        return PolyQi(quot), PolyQi(rem)

    def divides(self, other: "PolyQi") -> bool:
        _, r = other.divmod(self)
        return r.is_zero()

    def conj_coeffs(self) -> "PolyQi":
        return PolyQi([c.conj() for c in self.coeffs])

    def real_part(self):
        return [c.re for c in self.coeffs]

    def imag_part(self):
        return [c.im for c in self.coeffs]


def poly_gcd(a: PolyQi, b: PolyQi) -> PolyQi:
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r
    return a.monic() if not a.is_zero() else a


def squarefree_factors(f: PolyQi):
    """Yun's decomposition: list of (squarefree factor, exact multiplicity)."""
    f = f.monic()
    out = []
    g = poly_gcd(f, f.derivative())
    w, _ = f.divmod(g)
    i = 1
    while w.degree > 0:
        y = poly_gcd(w, g)
        fac, r = w.divmod(y)
        if not r.is_zero():
            raise ArithmeticError("inexact division in the squarefree decomposition")
        if fac.degree > 0:
            out.append((fac.monic(), i))
        w = y
        g, r = g.divmod(y)
        if not r.is_zero():
            raise ArithmeticError("inexact division in the squarefree decomposition")
        i += 1
    return out


# -- integer helpers ---------------------------------------------------------


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    import random

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


def _clear_denominators(fracs):
    """The primitive integer vector proportional to a vector of rationals."""
    ints, _, _ = to_numerators(fracs)
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else list(ints)


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
    if f.coeffs[0].is_zero():
        return GR_ZERO
    if f.degree == 1:
        return -f.coeffs[0] / f.coeffs[1]
    if f.degree == 2:
        c, b, a = f.coeffs
        disc = b * b - 4 * a * c
        s = disc.sqrt()
        if s is None:
            return None
        return (-b + s) / (2 * a)
    # degree 3: a rational root is a root of gcd(Re f, Im f), which is f itself
    # when f is real
    re, im = PolyQi(f.real_part()), PolyQi(f.imag_part())
    g = poly_gcd(re, im)
    if g.degree >= 1:
        r = next(rational_roots_of_int_poly(_clear_denominators(g.real_part())), None)
        if r is not None:
            return GaussRational(r)
    if im.is_zero():
        # real coefficients with no rational root: any Q(i) root r would force
        # conj(r) to be a root too, leaving a rational third root. None exists.
        return None
    # properly complex cubic: non-real roots have a rational quadratic minimal
    # polynomial dividing f * conj(f); enumerate them Kronecker-style.
    G = f * f.conj_coeffs()
    gint = _clear_denominators([c.re for c in G.coeffs])
    for m in _quadratic_factors(gint):
        c0, c1, c2 = m
        disc = GaussRational(Fraction(c1 * c1 - 4 * c2 * c0))
        s = disc.sqrt()
        if s is None:
            continue
        for ss in (s, -s):
            r = (GaussRational(Fraction(-c1)) + ss) / GaussRational(Fraction(2 * c2))
            if f(r).is_zero():
                return r
    return None


def _quadratic_factors(gint):
    """Candidate integer quadratic factors (c0, c1, c2) of an integer poly."""
    g0, g1, gm1 = (_int_poly_value(gint, x) for x in (0, 1, -1))
    if g0 == 0 or g1 == 0 or gm1 == 0:
        return  # rational root present; handled elsewhere
    lead = gint[-1]
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
                        if key not in out and _int_poly_divides([c0, c1, c2], gint):
                            out.add(key)
    for key in sorted(out):
        yield key


def _int_poly_divides(m, g) -> bool:
    """Whether the integer polynomial m divides g exactly over Q."""
    mm = PolyQi([GaussRational(c) for c in m])
    gg = PolyQi([GaussRational(c) for c in g])
    if mm.degree < 1:
        return False
    _, r = gg.divmod(mm)
    return r.is_zero()
