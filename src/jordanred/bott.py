"""Torus localization on the length-3 punctual Hilbert scheme of the plane.

The diagonal torus acting on P^2 has 22 fixed points on the Hilbert scheme,
falling into five classes of unions of monomial ideals.  Each fixed point
carries its 6-term tangent character and the determinant characters of the
tautological twisted bundles; a generic one-parameter subgroup turns these
into integer weights, and the Bott sums reproduce the intersection integrals
of the degree-57 sixfold and the third Betti number of its Calabi-Yau
linear section.

Tangent characters are obtained in two independent ways: from the hard-coded
class templates closed under the S3 action on coordinates, and from the
arm/leg staircase formula applied to the monomial ideals; the suite checks
they agree symbolically on all 22 points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Dict, List, Tuple


Monomial = Tuple[int, int, int]  # exponents of x0, x1, x2 (Laurent)


def _mono(*pairs) -> Monomial:
    e = [0, 0, 0]
    for idx, k in pairs:
        e[idx] += k
    return tuple(e)


class TorusCharacter:
    """A finite multiset of Laurent monomials in x0, x1, x2."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Monomial, int] = None):
        self.terms = {}
        if terms:
            for m, k in terms.items():
                if k:
                    self.terms[tuple(m)] = self.terms.get(tuple(m), 0) + k

    def add(self, m: Monomial, k: int = 1) -> None:
        v = self.terms.get(m, 0) + k
        if v:
            self.terms[m] = v
        else:
            self.terms.pop(m, None)

    def __eq__(self, other):
        return isinstance(other, TorusCharacter) and self.terms == other.terms

    def __len__(self):
        return sum(self.terms.values())

    def weights(self, w: "WeightVector") -> List[int]:
        out = []
        for m, k in self.terms.items():
            out.extend([w.pair(m)] * k)
        return sorted(out)

    def permuted(self, perm) -> "TorusCharacter":
        out = TorusCharacter()
        for m, k in self.terms.items():
            out.add(_permute_mono(m, perm), k)
        return out

    def __repr__(self):
        def fmt(m, k):
            s = "*".join("x%d^%d" % (i, e) for i, e in enumerate(m) if e)
            return ("%d*(%s)" % (k, s)) if k != 1 else s
        return " + ".join(fmt(m, k) for m, k in sorted(self.terms.items()))


def _permute_mono(m: Monomial, perm) -> Monomial:
    pm = [0, 0, 0]
    for idx in range(3):
        pm[perm[idx]] = m[idx]
    return tuple(pm)


@dataclass(frozen=True)
class WeightVector:
    w0: int
    w1: int
    w2: int

    def is_generic(self) -> bool:
        """No equal weights and no 2 w_i = w_j + w_k, so no tangent weight dies."""
        w = (self.w0, self.w1, self.w2)
        for i, j, k in permutations(range(3)):
            if i < j and w[i] == w[j]:
                return False
            if 2 * w[i] == w[j] + w[k] and j < k:
                return False
        return True

    def pair(self, m: Monomial) -> int:
        return m[0] * self.w0 + m[1] * self.w1 + m[2] * self.w2


@dataclass(frozen=True)
class FixedPointDatum:
    class_id: int
    supports: Tuple[Tuple[int, Tuple[Tuple[int, int], ...]], ...]
    tangent_char: TorusCharacter
    detE0: Monomial
    detE1: Monomial

    def key(self):
        return (self.class_id, self.supports)


# -- class templates, straight from the fixed-point tables -------------------------


def _template_class1():
    ch = TorusCharacter()
    for i in range(3):
        for j in range(3):
            if i != j:
                ch.add(_mono((i, 1), (j, -1)))
    supports = tuple(sorted((k, ((0, 0),)) for k in range(3)))
    return FixedPointDatum(1, tuple(supports), ch, (0, 0, 0), (1, 1, 1))


def _template_class2(d, t):
    """Length two at point d pointing toward t, plus the point t."""
    j = 3 - d - t
    ch = TorusCharacter()
    ch.add(_mono((t, 1), (j, -1)), 2)
    ch.add(_mono((t, 1), (d, -1)))
    ch.add(_mono((d, 1), (t, -1)))
    ch.add(_mono((d, 1), (j, -1)))
    ch.add(_mono((d, 2), (t, -2)))
    supports = tuple(sorted(((d, _cells_toward(d, t, 2)), (t, ((0, 0),)))))
    detE0 = _mono((t, 1), (d, -1))
    detE1 = _mono((t, 2), (d, 1))
    return FixedPointDatum(2, supports, ch, detE0, detE1)


def _template_class3(d, t):
    """Length two at point d pointing toward t, plus the remaining point."""
    r = 3 - d - t
    ch = TorusCharacter()
    ch.add(_mono((r, 1), (t, -1)))
    ch.add(_mono((t, 1), (r, -1)))
    ch.add(_mono((r, 1), (d, -1)))
    ch.add(_mono((d, 1), (r, -1)))
    ch.add(_mono((d, 1), (t, -1)))
    ch.add(_mono((d, 2), (t, -2)))
    supports = tuple(sorted(((d, _cells_toward(d, t, 2)), (r, ((0, 0),)))))
    # det E_0 is the tangent weight at the double point: x_t / x_d.  (The
    # inverse ratio would contradict the tabulated lambda values.)
    detE0 = _mono((t, 1), (d, -1))
    detE1 = _mono((0, 1), (1, 1), (2, 1))
    return FixedPointDatum(3, supports, ch, detE0, detE1)


def _template_class4(d, t):
    """Curvilinear length three at point d pointing toward t."""
    j = 3 - d - t
    ch = TorusCharacter()
    ch.add(_mono((d, 1), (t, -1)))
    ch.add(_mono((t, 1), (j, -1)))
    ch.add(_mono((d, 1), (j, -1)))
    ch.add(_mono((t, 2), (d, -1), (j, -1)))
    ch.add(_mono((d, 2), (t, -2)))
    ch.add(_mono((d, 3), (t, -3)))
    supports = ((d, _cells_toward(d, t, 3)),)
    detE0 = _mono((t, 3), (d, -3))
    detE1 = _mono((t, 3))
    return FixedPointDatum(4, supports, ch, detE0, detE1)


def _template_class5(d):
    """The square of the maximal ideal at point d."""
    a, b = sorted(set(range(3)) - {d})
    ch = TorusCharacter()
    ch.add(_mono((d, 1), (a, -1)), 2)
    ch.add(_mono((d, 1), (b, -1)), 2)
    ch.add(_mono((d, 1), (a, 1), (b, -2)))
    ch.add(_mono((d, 1), (b, 1), (a, -2)))
    supports = ((d, ((0, 0), (0, 1), (1, 0))),)
    detE0 = _mono((a, 1), (b, 1), (d, -2))
    detE1 = _mono((0, 1), (1, 1), (2, 1))
    return FixedPointDatum(5, supports, ch, detE0, detE1)


def _cells_toward(d: int, t: int, length: int):
    """Staircase cells of a curvilinear scheme at d pointing toward t.

    Chart coordinates at d are (x_alpha/x_d, x_beta/x_d) with alpha < beta the
    other two indices; the cells extend along the axis of t.
    """
    a, b = sorted(set(range(3)) - {d})
    if t == a:
        return tuple((c, 0) for c in range(length))
    return tuple((0, r) for r in range(length))


def _permute_supports(supports, perm):
    """Transport staircases along a coordinate permutation.

    Cells at point k are exponents of the canonical chart coordinates (the
    two other indices in increasing order); if the permutation swaps their
    order at the image point, the staircase must be transposed.
    """
    out = []
    for k, cells in supports:
        a, b = sorted(set(range(3)) - {k})
        k2 = perm[k]
        a2, b2 = sorted(set(range(3)) - {k2})
        if (perm[a], perm[b]) == (a2, b2):
            new_cells = tuple(cells)
        else:
            new_cells = tuple(sorted((r, c) for (c, r) in cells))
        out.append((k2, tuple(sorted(new_cells))))
    return tuple(sorted(out))


def enumerate_fixed_points() -> Tuple[FixedPointDatum, ...]:
    """All 22 torus fixed points, as class templates closed under S3."""
    data = {}
    for perm in permutations(range(3)):
        for tmpl in _all_templates():
            moved = FixedPointDatum(
                tmpl.class_id,
                _permute_supports(tmpl.supports, perm),
                tmpl.tangent_char.permuted(perm),
                _permute_mono(tmpl.detE0, perm),
                _permute_mono(tmpl.detE1, perm),
            )
            prev = data.setdefault(moved.key(), moved)
            if prev.tangent_char != moved.tangent_char:
                raise ArithmeticError("inconsistent data at %r" % (moved.key(),))
    out = sorted(data.values(), key=lambda d: (d.class_id, d.supports))
    if len(out) != 22:
        raise ArithmeticError("fixed-point count is off: %d" % len(out))
    return tuple(out)


def _all_templates():
    yield _template_class1()
    yield _template_class2(2, 0)
    yield _template_class3(2, 1)
    yield _template_class4(0, 1)
    yield _template_class5(0)


def class_sizes() -> Dict[int, int]:
    sizes: Dict[int, int] = {}
    for d in enumerate_fixed_points():
        sizes[d.class_id] = sizes.get(d.class_id, 0) + 1
    return sizes


# -- the staircase oracle ------------------------------------------------------------


def staircase_tangent_char(supports) -> TorusCharacter:
    """Tangent character from the arm/leg staircase formula.

    `supports` maps point index k to the staircase cells (u-exp, v-exp) of a
    monomial ideal in the canonical chart at k; total colength must be 3.
    The contribution of a cell s is
        chi_u^-(arm+1) chi_v^leg  +  chi_u^arm chi_v^-(leg+1),
    with chi_u, chi_v the characters of the chart coordinate functions.
    """
    supports = tuple(supports)
    total = sum(len(cells) for _, cells in supports)
    if total != 3:
        raise ValueError("total colength must be 3, got %d" % total)
    ch = TorusCharacter()
    for k, cells in supports:
        a, b = sorted(set(range(3)) - {k})
        chi_u = _mono((a, 1), (k, -1))
        chi_v = _mono((b, 1), (k, -1))
        cellset = set(cells)
        for (c, r) in cellset:
            arm = sum(1 for (c2, r2) in cellset if r2 == r and c2 > c)
            leg = sum(1 for (c2, r2) in cellset if c2 == c and r2 > r)
            ch.add(_scale_add(chi_u, -(arm + 1), chi_v, leg))
            ch.add(_scale_add(chi_u, arm, chi_v, -(leg + 1)))
    return ch


def _scale_add(m1: Monomial, k1: int, m2: Monomial, k2: int) -> Monomial:
    return tuple(k1 * a + k2 * b for a, b in zip(m1, m2))


# -- localization ---------------------------------------------------------------------


def _elementary_symmetric(ms: List[int]):
    e = [1] + [0] * len(ms)
    for m in ms:
        for k in range(len(ms), 0, -1):
            e[k] += m * e[k - 1]
    return e


@dataclass(frozen=True)
class FixedPointRow:
    class_id: int
    weights: Tuple[int, ...]
    c1: int
    c2: int
    c3: int
    c6: int
    lam: int


@dataclass(frozen=True)
class LocalizationReport:
    weight_vector: WeightVector
    rows: Tuple[FixedPointRow, ...]
    integrals: Tuple[int, int, int, int]  # (I0, I1, I2, I3) = (l^6, c1 l^5, c2 l^4, c3 l^3)
    euler_cy: int
    b3: int


def localize(w: WeightVector) -> LocalizationReport:
    """Bott sums over the 22 fixed points at a generic weight vector.

    I3 = sum c3 lam^3 / c6, I2 = sum c2 lam^4 / c6, I1 = sum c1 lam^5 / c6,
    I0 = sum lam^6 / c6; the Euler number of the Calabi-Yau section is
    I3 - 3 I2 + 6 I1 - 10 I0 and b3 = 4 - euler.
    """
    if not w.is_generic():
        raise ValueError("weight vector is not generic: %r" % (w,))
    rows = []
    sums = [Fraction(0)] * 4  # I0, I1, I2, I3
    for pt in enumerate_fixed_points():
        ms = pt.tangent_char.weights(w)
        if len(ms) != 6:
            raise ArithmeticError("tangent character must have 6 terms")
        if any(m == 0 for m in ms):
            raise ArithmeticError("zero tangent weight at a generic vector")
        e = _elementary_symmetric(ms)
        c1, c2, c3, c6 = e[1], e[2], e[3], e[6]
        lam = 2 * w.pair(pt.detE1) - w.pair(pt.detE0)
        rows.append(FixedPointRow(pt.class_id, tuple(ms), c1, c2, c3, c6, lam))
        sums[0] += Fraction(lam ** 6, c6)
        sums[1] += Fraction(c1 * lam ** 5, c6)
        sums[2] += Fraction(c2 * lam ** 4, c6)
        sums[3] += Fraction(c3 * lam ** 3, c6)
    ints = []
    for s in sums:
        if s.denominator != 1:
            raise ArithmeticError("localization sum is not an integer: %r" % s)
        ints.append(int(s))
    i0, i1, i2, i3 = ints
    euler_cy = i3 - 3 * i2 + 6 * i1 - 10 * i0
    return LocalizationReport(w, tuple(rows), (i0, i1, i2, i3), euler_cy, 4 - euler_cy)
