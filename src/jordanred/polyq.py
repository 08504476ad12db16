"""Univariate polynomials over Q(i), with exact root extraction in degree <= 3.

Used to intersect pencils of Jordan matrices with the projected rank-one
locus.  Roots living in Q(i) are always found; the factor left without them
is irreducible over Q(i) and returned as such (its roots are counted, not
constructed).

A polynomial is one normalised numerator triple of `gaussrat`: the ascending
coefficients are (nr[k] + ni[k] i)/d.  Arithmetic runs on the integer
numerators and normalises once per result.

Roots are found without factoring an integer.  The rational roots of an
integer polynomial with leading coefficient a are s/a for the integer roots s
of a monic integer polynomial, and those are bracketed by exact integer
bisection on the runs where it is monotone, between the unit cells that hold
the real roots of its derivatives.  The roots s + vi in Q(i) with imaginary
part v are given by the rational roots s of the gcd of the real and imaginary
parts of f(s + vi).  One such search at v = 0 yields every real root; the
nonzero v of the other roots are among the rational roots of a real
polynomial of degree n^2 built from power sums, n the degree of what is left.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import comb

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


# -- rational roots of integer polynomials ------------------------------------


def rational_roots_of_int_poly(coeffs):
    """The distinct rational roots of an integer polynomial (ascending coefficients), ascending.

    With n the degree and a the leading coefficient, a r is an integer for a
    root r = p/q in lowest terms (q divides a), and a root of the monic integer
    polynomial g(s) = a^(n-1) f(s/a); the roots are the s/a for its integer
    roots s.  By Cauchy every complex root of f has |r| < 2 + max|c_k| // |a|
    over k < n, so every root of g, and by Gauss-Lucas every root of its
    derivatives, lies inside |a| times that bound.
    """
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        raise ValueError("zero polynomial")
    a, n = coeffs[-1], len(coeffs) - 1
    g = [c * a ** (n - 1 - k) for k, c in enumerate(coeffs[:-1])] + [1]
    bound = abs(a) * (2 + max(map(abs, coeffs[:-1]), default=0) // abs(a))
    roots = {s for k in _root_cells(g, bound) for s in (k, k + 1) if _sign_at(g, s) == 0}
    return sorted(Fraction(s, a) for s in roots)


def _root_cells(g, bound: int):
    """Integers k, sorted, such that each real root of the integer polynomial g
    (ascending coefficients) lies in some unit cell [k, k + 1].

    Every real root of g and of its derivatives lies in (-bound, bound).  Off
    the cells of g' the polynomial g is strictly monotone, so each run between
    two cells, or between a cell and the bound, holds at most one root; a sign
    change there is bisected down to its cell.  A run ends at -bound, at bound
    (neither is a root) or at a cell of g', so a root at its end is already
    the end of a cell.
    """
    if len(g) < 2:
        return []
    cells = _root_cells([k * c for k, c in enumerate(g)][1:], bound)
    ends = [-bound] + [e for k in cells for e in (k, k + 1)] + [bound]
    found = set(cells)
    for lo, hi in zip(ends[::2], ends[1::2]):
        sign = _sign_at(g, lo)
        if sign * _sign_at(g, hi) < 0:
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if _sign_at(g, mid) == sign:
                    lo = mid
                else:
                    hi = mid
            found.add(lo)
    return sorted(found)


def _sign_at(g, x: int) -> int:
    """The sign of the integer polynomial g (ascending coefficients) at the integer x."""
    acc = 0
    for c in reversed(g):
        acc = acc * x + c
    return (acc > 0) - (acc < 0)


# -- roots over Q(i) -----------------------------------------------------------


def roots_qi(f: PolyQi):
    """The distinct Q(i)-roots of f (degree <= 3 after taking its squarefree part).

    Returns (roots, leftovers): the real roots ascending, then the non-real
    ones by imaginary part and then real part, and [] or [q] with q the monic
    factor of degree 2 or 3 that is left, which has no root in Q(i), so its
    degree counts conjugate roots living in a proper extension.  The roots
    with imaginary part v are the s + vi for the rational roots s of one
    gcd (see `_roots_with_imaginary_part`); v = 0 comes first, and the
    nonzero v are searched only for a rest that can still have a root.
    """
    if f.is_zero():
        raise ValueError("zero polynomial has no root list")
    f, _ = f.divmod(poly_gcd(f, f.derivative()))
    if f.degree > 3:
        raise NotImplementedError("root extraction implemented for degree <= 3")
    f = f.monic()
    roots = _roots_with_imaginary_part(f, 0)
    rest = _divide_out(f, roots)
    # A real rest of odd degree has no root in Q(i): its non-real roots pair
    # with their conjugates, which would leave a rational one.
    if any(rest.ni) or rest.degree == 2:
        found = [r for v in _imaginary_parts(rest) if v
                 for r in _roots_with_imaginary_part(rest, v)]
        rest = _divide_out(rest, found)
        roots += found
    return roots, [rest] if rest.degree > 0 else []


def _divide_out(f: PolyQi, roots) -> PolyQi:
    """f divided by t - r for each r in roots, each division exact."""
    for r in roots:
        f, rem = f.divmod(PolyQi([-r, GR_ONE]))
        if not rem.is_zero():
            raise ArithmeticError("a root found does not divide the polynomial")
    return f


def _roots_with_imaginary_part(f: PolyQi, v):
    """The roots s + vi of f with s rational, by s ascending.

    s is a rational root of f(s + vi), so of the gcd of its real and
    imaginary parts.
    """
    if v:
        shift, g = PolyQi([GaussRational(0, v), GR_ONE]), PolyQi(())
        for c in reversed(f.coeffs):
            g = g * shift + PolyQi([c])
        f = g
    g = poly_gcd(PolyQi(f.nr), PolyQi(f.ni))
    return [GaussRational(s, v) for s in rational_roots_of_int_poly(g.nr)]


def _imaginary_parts(f: PolyQi):
    """The rational roots of the real polynomial h of degree n^2 whose roots
    are the (r_j - conj r_k)/2i over the roots r_j, r_k of the monic f of
    degree n >= 1.

    Im r is among them for every root r.  With u = r/2i the roots of h are the
    u_j + conj(u_k), so its power sums are sum_l C(m, l) p_l conj(p_(m-l)) for
    the power sums p of the u_j.  Newton's identities
    sum_(k<m) c_k p_(m-k) + m c_m = 0, for descending coefficients c with
    c_0 = 1, go from f to p and from those sums back to h.
    """
    n = f.degree
    top = n * n
    half_over_i = GaussRational(0, Fraction(-1, 2))
    c = [x * half_over_i ** k for k, x in enumerate(reversed(f.coeffs))] + [GR_ZERO] * (top - n)
    p = [GaussRational(n)]
    for m in range(1, top + 1):
        p.append(-sum((c[k] * p[m - k] for k in range(1, m)), c[m] * m))
    sums = [sum(comb(m, l) * p[l] * p[m - l].conj() for l in range(m + 1))
            for m in range(top + 1)]
    h = [GR_ONE]
    for m in range(1, top + 1):
        h.append(-sum(h[k] * sums[m - k] for k in range(m)) / m)
    return rational_roots_of_int_poly(to_numerators(h[::-1])[0])
