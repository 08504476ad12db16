"""Exact intersection theory for the degree-57 variety and its relatives.

Two independent routes to the degree:

* blow-up route: intersection numbers H^i E^j on the blow-up of P^7 along
  the projected rank-one surface (a sextic P^2 x P^2), via Segre-class
  pushforwards in Z[h, h']/(h^3, h'^3);

* Hilbert-scheme route: the polarization pulls back to A + H on the length-3
  punctual Hilbert scheme of the plane, whose seven intersection numbers are
  quoted constants.

A class in Z[h, h']/(h^3, h'^3) is a plain map {(i, j): coefficient} on the
monomials h^i h'^j, without zero coefficients; `mul` is its product.

The Betti numbers and Euler characteristics of all four varieties of
reductions come from the blow-up recursion; the torus fixed-point counts are
the closed form `fixed_point_count`, which `topology` checks against the
Euler number.
"""

from __future__ import annotations

from math import comb
from typing import Dict, Tuple


ChowClass = Dict[Tuple[int, int], int]


def mul(p: ChowClass, q: ChowClass) -> ChowClass:
    """The product in Z[h, h']/(h^3, h'^3): a monomial with h^3 or h'^3 dies."""
    out: ChowClass = {}
    for (i, j), u in p.items():
        for (k, l), v in q.items():
            if i + k < 3 and j + l < 3:
                out[i + k, j + l] = out.get((i + k, j + l), 0) + u * v
    return {m: c for m, c in out.items() if c}


HYP: ChowClass = {(1, 0): 1, (0, 1): 1}  # restriction of the ambient hyperplane class

# (c1, c2, c3) of the normal bundle of the projected sextic surface.
NORMAL_CHERN: Tuple[ChowClass, ChowClass, ChowClass] = (
    {(1, 0): 5, (0, 1): 5},
    {(2, 0): 10, (1, 1): 17, (0, 2): 10},
    {(2, 1): 18, (1, 2): 18},
)


def segre_classes(chern) -> Tuple[ChowClass, ...]:
    """s_0..s_4 with (1 + c1 + c2 + c3)(1 + s1 + s2 + ...) = 1, for chern = (c1, c2, c3).

    That is s_0 = 1 and s_k = -(c1 s_(k-1) + c2 s_(k-2) + c3 s_(k-3)).
    """
    s = [{(0, 0): 1}]
    for k in range(1, 5):
        sk: ChowClass = {}
        for i in range(1, min(k, 3) + 1):
            for m, c in mul(chern[i - 1], s[k - i]).items():
                sk[m] = sk.get(m, 0) - c
        s.append({m: c for m, c in sk.items() if c})
    return tuple(s)


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
    cls = segre_classes(NORMAL_CHERN)[k]
    for _ in range(i):
        cls = mul(cls, HYP)
    # h^2 h'^2 is the point class of the surface
    val = cls.get((2, 2), 0)
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
    geometrically; d is read off the blow-up route (`cli.build_degree`
    checks that the two routes agree).
    """
    x, z = 1, 4
    d = degree_y2_blowup()
    y, rem = divmod(d - 5 * x - 5 * z, 16)
    if rem != 0:
        raise ArithmeticError("degree is incompatible with the Schubert relation")
    return (x, y, z)


# -- topology ------------------------------------------------------------------------


def severi_betti(a: int, p: int) -> int:
    """Even Betti numbers of the rank-one locus (dimension 2a), for a >= 2."""
    if p < 0 or p > 2 * a:
        return 0
    if 2 * p < a or 2 * p > 3 * a:
        return 1
    if p == a:
        return 3
    return 2


def betti_table(a: int) -> Tuple[int, ...]:
    """Even Betti numbers b_0, b_2, ..., b_(6a) through the blow-up recursion
    (a = 1 is hard-coded)."""
    if a == 1:
        return (1, 1, 1, 1)
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
    return tuple(numbers)


def fixed_point_count(a: int) -> int:
    """Fixed points of a generic one-parameter torus: 3a^2/2 + 3a + 1 (a >= 2)."""
    if a == 1:
        return 4
    return 3 * a * a // 2 + 3 * a + 1


def topology(a: int):
    """(even Betti numbers, euler, fixed_count); a failed cross-check raises
    ArithmeticError."""
    table = betti_table(a)
    # the odd Betti numbers vanish
    euler = sum(table)
    fc = fixed_point_count(a)
    if euler != fc:
        raise ArithmeticError("fixed-point count disagrees with the Euler characteristic")
    if table != table[::-1]:
        raise ArithmeticError("Betti table is not symmetric")
    return table, euler, fc
