"""The varieties of reductions: membership, orbits, tangent spaces, cubics.

A candidate point is a 2-plane span{X, Y} of traceless Jordan matrices; it
lies on the variety of reductions exactly when trace(X o (u Y)) = 0 for every
derivation u.  Orbit classification, the count of rank-one points on a member
line, and tangent-space dimensions all reduce to exact linear algebra and to
root extraction for binary forms of degree at most 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import List, Optional, Tuple

from .algebra import AlgebraTag, AlgElement
from .gaussrat import GR_I, GR_ONE, GR_ZERO, GaussRational
from .jordan import (JordanMatrix, SeveriClass, char_poly, classify_severi,
                     discriminant, inner, jordan_mul)
from .liealg import (LieCombo, bform_inverse, j0_coords, j0_dim, j0_gram,
                     j0_numerators, so3a_matrices)
from .linalg import nullspace, rank
from .polyq import PolyQi, poly_gcd, roots_qi, squarefree_factors


THIRD = GR_ONE / 3


class ReductionLine:
    """An ordered pair of independent traceless matrices spanning a 2-plane."""

    __slots__ = ("X", "Y")

    def __init__(self, X: JordanMatrix, Y: JordanMatrix):
        if X.tag != Y.tag:
            raise ValueError("algebra mismatch")
        if not (X.is_traceless() and Y.is_traceless()):
            raise ValueError("spanning matrices must be traceless")
        if X.is_zero() or Y.is_zero() or _proportional(X, Y):
            raise ValueError("spanning matrices must be linearly independent")
        self.X = X
        self.Y = Y

    @property
    def tag(self) -> AlgebraTag:
        return self.X.tag

    def basis_change(self, a, b, c, d) -> "ReductionLine":
        """The same plane spanned by (aX + bY, cX + dY); (a,b;c,d) invertible."""
        a, b, c, d = (GaussRational(v) for v in (a, b, c, d))
        if (a * d - b * c).is_zero():
            raise ValueError("basis change must be invertible")
        return ReductionLine(self.X.scale(a) + self.Y.scale(b),
                             self.X.scale(c) + self.Y.scale(d))

    def to_json(self):
        return {"X": self.X.to_json(), "Y": self.Y.to_json()}

    @classmethod
    def from_json(cls, obj) -> "ReductionLine":
        """Parse {"X": matrix, "Y": matrix}; any malformed input raises ValueError."""
        try:
            X, Y = (JordanMatrix.from_json(obj[k]) for k in ("X", "Y"))
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            raise ValueError("malformed line: %s: %s" % (type(exc).__name__, exc)) from exc
        return cls(X, Y)


def _proportional(X: JordanMatrix, Y: JordanMatrix) -> bool:
    xc, yc = j0_coords(X), j0_coords(Y)
    lam = None
    for a, b in zip(xc, yc):
        if a.is_zero() and b.is_zero():
            continue
        if a.is_zero() or b.is_zero():
            return False
        r = b / a
        if lam is None:
            lam = r
        elif lam != r:
            return False
    return True


# -- membership -----------------------------------------------------------------


def membership_values(X: JordanMatrix, Y: JordanMatrix) -> List[GaussRational]:
    """The pairing trace(X o (u_k Y)) over the so3(A) basis."""
    return pi_pairings(X.tag, wedge_of(X, Y))


def membership(line: ReductionLine) -> bool:
    """Whether the plane is a point of the variety of reductions."""
    return all(v.is_zero() for v in membership_values(line.X, line.Y))


def project_so3a(X: JordanMatrix, Y: JordanMatrix) -> LieCombo:
    """The component of X wedge Y along so3(A) inside the wedge square of J0.

    Computed through dual bases for the trace form B on the realized
    operators; the result vanishes exactly when span{X, Y} is a member.
    """
    return pi_of_wedge(X.tag, wedge_of(X, Y))


# -- the wedge square and the kernel of the projection ----------------------------


@lru_cache(maxsize=None)
def wedge_pairs(tag: AlgebraTag):
    n = j0_dim(tag)
    return tuple((r, s) for r in range(n) for s in range(r + 1, n))


@lru_cache(maxsize=None)
def pi_table(tag: AlgebraTag):
    """The nonzero terms (w, r, s, c) of S_k = G M_k above the diagonal.

    One tuple of terms per so3(A) basis operator M_k, with G the Gram matrix
    of J0 and w the index of the wedge pair (r, s).  Each S_k is skew, since
    derivations are orthogonal for the trace form, so x^T S_k y is the sum of
    c (x_r y_s - x_s y_r) over the terms: a linear form on the wedge square.
    """
    g = j0_gram(tag)
    n = j0_dim(tag)
    table = []
    for m in so3a_matrices(tag):
        sk = [[sum(g[r][t] * m[t][s] for t in range(n) if g[r][t]) for s in range(n)]
              for r in range(n)]
        if any(sk[r][s] != -sk[s][r] for r in range(n) for s in range(r, n)):
            raise ArithmeticError("G M_k is not skew: a realized operator is not "
                                  "orthogonal for the trace form")
        table.append(tuple((w, r, s, sk[r][s])
                           for w, (r, s) in enumerate(wedge_pairs(tag)) if sk[r][s]))
    return tuple(table)


def pi_pairings(tag: AlgebraTag, w) -> List[GaussRational]:
    """The linear forms F_k of the pi table applied to a wedge tensor w."""
    out = []
    for terms in pi_table(tag):
        s = GR_ZERO
        for i, _, _, c in terms:
            v = w[i]
            if v:
                s = s + v * c
        out.append(s)
    return out


@lru_cache(maxsize=None)
def pi_functional_matrix(tag: AlgebraTag):
    """Integer rows F_k over wedge pairs: F_k[(r,s)] = (G M_k)[r][s]."""
    width = len(wedge_pairs(tag))
    rows = []
    for terms in pi_table(tag):
        row = [0] * width
        for w, _, _, c in terms:
            row[w] = c
        rows.append(tuple(row))
    return tuple(rows)


def ker_pi_dim(tag: AlgebraTag) -> int:
    return len(ker_pi_basis(tag))


@lru_cache(maxsize=None)
def ker_pi_basis(tag: AlgebraTag):
    """Rational basis of the kernel of the projection, as wedge coordinates."""
    return tuple(tuple(v) for v in nullspace(pi_functional_matrix(tag),
                                             len(wedge_pairs(tag))))


def wedge_of(X: JordanMatrix, Y: JordanMatrix):
    """Coordinates of X wedge Y over the wedge pairs of the J0 basis."""
    xr, xi, dx = j0_numerators(X)
    yr, yi, dy = j0_numerators(Y)
    d = dx * dy
    out = []
    for r, s in wedge_pairs(X.tag):
        # x_r y_s - x_s y_r on the numerators, over dx dy
        a, b, c, e = xr[r], xi[r], yr[s], yi[s]
        f, g, h, k = xr[s], xi[s], yr[r], yi[r]
        out.append(GaussRational._make(a * c - b * e - f * h + g * k,
                                       a * e + b * c - f * k - g * h, d))
    return tuple(out)


def pi_of_wedge(tag: AlgebraTag, w) -> LieCombo:
    """Extension of the projection to arbitrary wedge tensors."""
    vals = pi_pairings(tag, w)
    binv = bform_inverse(tag)
    coeffs = []
    for l in range(len(vals)):
        s = GR_ZERO
        for i, v in enumerate(vals):
            if not v.is_zero() and binv[l][i]:
                s = s + v * binv[l][i]
        coeffs.append(s)
    return LieCombo(tag, coeffs)


def in_ker_pi(tag: AlgebraTag, w) -> bool:
    return all(v.is_zero() for v in pi_pairings(tag, w))


# -- Pierce decompositions ---------------------------------------------------------


@dataclass(frozen=True)
class PierceTriple:
    e1: JordanMatrix
    e2: JordanMatrix
    e3: JordanMatrix

    def members(self):
        return (self.e1, self.e2, self.e3)

    def validate(self) -> bool:
        tag = self.e1.tag
        ident = JordanMatrix.identity(tag)
        if self.e1 + self.e2 + self.e3 != ident:
            return False
        for i, e in enumerate(self.members()):
            if jordan_mul(e, e) != e or e.trace() != GR_ONE:
                return False
            for j, f in enumerate(self.members()):
                if i < j and not jordan_mul(e, f).is_zero():
                    return False
        return True


def pierce_from_roots(X: JordanMatrix, roots) -> PierceTriple:
    """Lagrange projectors onto the eigenspaces of X for its exact roots.

    The three roots must be pairwise distinct and reproduce the characteristic
    polynomial of X exactly; then pi_i = prod_{j != i} (X - a_j I)/(a_i - a_j).
    """
    roots = tuple(GaussRational(r) if not isinstance(r, GaussRational) else r
                  for r in roots)
    if len(roots) != 3 or len({(r.re, r.im) for r in roots}) != 3:
        raise ValueError("need three pairwise distinct roots")
    one, mt, qp, md = char_poly(X)
    e1 = roots[0] + roots[1] + roots[2]
    e2 = roots[0] * roots[1] + roots[0] * roots[2] + roots[1] * roots[2]
    e3 = roots[0] * roots[1] * roots[2]
    if not (mt == -e1 and qp == e2 and md == -e3):
        raise ValueError("roots do not match the characteristic polynomial")
    tag = X.tag
    ident = JordanMatrix.identity(tag)
    projectors = []
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        num = jordan_mul(X - ident.scale(roots[j]), X - ident.scale(roots[k]))
        den = (roots[i] - roots[j]) * (roots[i] - roots[k])
        projectors.append(num.scale(GR_ONE / den))
    if sum((p.scale(r) for p, r in zip(projectors, roots)), JordanMatrix.zero(tag)) != X:
        raise ArithmeticError("Lagrange projectors do not reassemble X")
    return PierceTriple(*projectors)


def omega_plucker(triple: PierceTriple):
    """The wedge representative of the plane of a Pierce triple.

    Each idempotent is first projected to J0 along the identity; the result is
    trace(e1) p(e2) wedge p(e3) + cyclic, which lands in the kernel of the
    projection.
    """
    if not triple.validate():
        raise ValueError("not a Pierce decomposition")
    tag = triple.e1.tag
    ident = JordanMatrix.identity(tag)
    projected = [e - ident.scale(e.trace() * THIRD) for e in triple.members()]
    traces = [e.trace() for e in triple.members()]
    coords = [j0_coords(p) for p in projected]
    pairs = wedge_pairs(tag)
    out = [GR_ZERO] * len(pairs)
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        t = traces[i]
        if t.is_zero():
            continue
        cj, ck = coords[j], coords[k]
        for idx, (r, s) in enumerate(pairs):
            out[idx] = out[idx] + t * (cj[r] * ck[s] - cj[s] * ck[r])
    return tuple(out)


# -- rank-one points on a member line ------------------------------------------------


@dataclass(frozen=True)
class SeveriPoint:
    """A point of the projected rank-one locus on a member line.

    `param` is (lam, mu) with the point lam*X + mu*Y when it is defined over
    Q(i); for points only defined over an extension, `param` is None and
    `extension_degree` counts the conjugate points of the irreducible factor.
    """

    special: bool
    param: Optional[Tuple[GaussRational, GaussRational]] = None
    matrix: Optional[JordanMatrix] = None
    extension_degree: int = 1


@dataclass(frozen=True)
class SeveriPointReport:
    whole_line: bool
    points: Tuple[SeveriPoint, ...]

    def count_general(self) -> int:
        return sum(p.extension_degree for p in self.points if not p.special)

    def count_special(self) -> int:
        return sum(p.extension_degree for p in self.points if p.special)


def _pencil_polys(X: JordanMatrix, Y: JordanMatrix):
    """Coordinate polynomials of M(t) = X + tY and N(t) = M^2 - (Q/3) I."""
    tag = X.tag
    xx, xy, yy = jordan_mul(X, X), jordan_mul(X, Y), jordan_mul(Y, Y)
    q0, q1, q2 = inner(X, X), inner(X, Y), inner(Y, Y)
    ident = JordanMatrix.identity(tag)
    n0 = xx - ident.scale(q0 * THIRD)
    n1 = (xy - ident.scale(q1 * THIRD)).scale(2)
    n2 = yy - ident.scale(q2 * THIRD)
    # J0 coordinates are only defined for traceless matrices; N(t) is traceless
    ncoords = list(zip(j0_coords(n0), j0_coords(n1), j0_coords(n2)))
    mcoords = list(zip(j0_coords(X), j0_coords(Y)))
    # full-matrix coordinates of M(t)^2, for squareness checks mod a factor
    sq = list(zip(_full_coords(xx), _full_coords(xy.scale(2)), _full_coords(yy)))
    return mcoords, ncoords, sq


def _full_coords(A: JordanMatrix):
    d = A.d
    return [GaussRational._make(r, i, d) for r, i in zip(A.nr, A.ni)]


def _check_rank_one(M: JordanMatrix) -> SeveriClass:
    cls, _ = classify_severi(M)
    if cls not in (SeveriClass.SQUARE_ZERO, SeveriClass.PROJECTED_RANK_ONE):
        raise ArithmeticError("a point found on the line is not on the rank-one locus")
    return cls


def severi_points_on_line(line: ReductionLine) -> SeveriPointReport:
    """All points of the line lying on the projected rank-one locus.

    A traceless nonzero M lies there exactly when M o M - (Q(M)/3) I is
    proportional to M, so the 2x2 minors of the coefficient pair give binary
    cubics whose common zeros are the points sought.  Points at parameter
    infinity (mu = 0) are handled by classifying Y directly.
    """
    if not membership(line):
        raise ValueError("line is not a point of the variety of reductions")
    X, Y = line.X, line.Y
    mcoords, ncoords, sq = _pencil_polys(X, Y)
    n = len(mcoords)
    minors = []
    for r in range(n):
        for s in range(r + 1, n):
            p = PolyQi(list(ncoords[r])) * PolyQi(list(mcoords[s])) - \
                PolyQi(list(ncoords[s])) * PolyQi(list(mcoords[r]))
            if not p.is_zero():
                minors.append(p)
    if not minors:
        _check_rank_one(Y)
        return SeveriPointReport(whole_line=True, points=())
    g = minors[0]
    for p in minors[1:]:
        if g.degree == 0:
            break
        g = poly_gcd(g, p)
    points = []
    cls_y, _ = classify_severi(Y)
    if cls_y in (SeveriClass.SQUARE_ZERO, SeveriClass.PROJECTED_RANK_ONE):
        points.append(SeveriPoint(special=(cls_y == SeveriClass.SQUARE_ZERO),
                                  param=(GR_ZERO, GR_ONE), matrix=Y))
    if g.degree > 0:
        for factor, _mult in squarefree_factors(g):
            roots, leftovers = roots_qi(factor)
            for t0 in roots:
                m = X + Y.scale(t0)
                cls = _check_rank_one(m)
                points.append(SeveriPoint(special=(cls == SeveriClass.SQUARE_ZERO),
                                          param=(GR_ONE, t0), matrix=m))
            for irr in leftovers:
                special = all(irr.divides(PolyQi(list(c))) for c in sq)
                points.append(SeveriPoint(special=special, param=None, matrix=None,
                                          extension_degree=irr.degree))
    return SeveriPointReport(whole_line=False, points=tuple(points))


# -- orbit classification ---------------------------------------------------------------


class OrbitClass(Enum):
    OPEN0 = "open"
    CODIM1 = "codim1"
    CODIM2 = "codim2"
    CODIM4 = "codim4"


_SAMPLE_PARAMS = (0, 1, -1, 2, -2, 3)


def classify_orbit(line: ReductionLine) -> OrbitClass:
    """The orbit of a member line under the automorphism group.

    The restriction of the degree-6 discriminant to the line either vanishes
    identically (checked on 7 parameters, more than the degree) or the line is
    in the open orbit.  Lines inside the discriminant are separated by their
    rank-one points: a whole line of them is the closed orbit; otherwise the
    presence of a non-special point distinguishes codimension one from two.
    """
    if not membership(line):
        raise ValueError("line is not a point of the variety of reductions")
    X, Y = line.X, line.Y
    disc_vanishes = discriminant(Y).is_zero()
    if disc_vanishes:
        for t in _SAMPLE_PARAMS:
            if not discriminant(X + Y.scale(t)).is_zero():
                disc_vanishes = False
                break
    if not disc_vanishes:
        return OrbitClass.OPEN0
    report = severi_points_on_line(line)
    if report.whole_line:
        return OrbitClass.CODIM4
    if report.count_general() > 0:
        return OrbitClass.CODIM1
    return OrbitClass.CODIM2


# -- tangent spaces -----------------------------------------------------------------------


def tangent_dim(line: ReductionLine) -> int:
    """Dimension of the tangent space to the variety of reductions at the line.

    Linearizes the membership pairings in (dX, dY), subtracts the 4 spanning
    reparametrizations; smoothness predicts 3a everywhere.
    """
    if not membership(line):
        raise ValueError("line is not a point of the variety of reductions")
    n = j0_dim(line.tag)
    xv, yv = j0_coords(line.X), j0_coords(line.Y)
    rows = []
    for terms in pi_table(line.tag):
        # the gradient [S_k y ; -S_k x] of x^T S_k y
        row = [GR_ZERO] * (2 * n)
        for _, r, s, c in terms:
            row[r] = row[r] + c * yv[s]
            row[s] = row[s] - c * yv[r]
            row[n + s] = row[n + s] + c * xv[r]
            row[n + r] = row[n + r] - c * xv[s]
        rows.append(row)
    nullity = 2 * n - rank(rows)
    return nullity - 4


# -- cubic forms --------------------------------------------------------------------------


def _gram_apply(tag: AlgebraTag, vec):
    g = j0_gram(tag)
    out = []
    for row in g:
        s = GR_ZERO
        for c, v in zip(row, vec):
            if c:
                s = s + v * c
        out.append(s)
    return out


def eval_cubic_theta(tag: AlgebraTag, theta, X: JordanMatrix) -> GaussRational:
    """theta(X, X o X - (Q/3) I) for a wedge tensor theta in the kernel of pi.

    The wedge pairs against J0 through the invariant form; these cubics cut
    out the projected rank-one locus.
    """
    if not in_ker_pi(tag, theta):
        raise ValueError("theta is not in the kernel of the projection")
    q = inner(X, X)
    c = jordan_mul(X, X) - JordanMatrix.identity(tag).scale(q * THIRD)
    gx = _gram_apply(tag, j0_coords(X))
    gc = _gram_apply(tag, j0_coords(c))
    out = GR_ZERO
    for coeff, (r, s) in zip(theta, wedge_pairs(tag)):
        cc = coeff if isinstance(coeff, GaussRational) else GaussRational(coeff)
        if cc.is_zero():
            continue
        out = out + cc * (gx[r] * gc[s] - gx[s] * gc[r])
    return out


def eval_cubic_ab(A: JordanMatrix, B: JordanMatrix, X: JordanMatrix) -> GaussRational:
    """trace(X o ((A o X) o (B o X))) for traceless A, B."""
    if not (A.is_traceless() and B.is_traceless()):
        raise ValueError("A and B must be traceless")
    return inner(X, jordan_mul(jordan_mul(A, X), jordan_mul(B, X)))


# -- orbit representatives ------------------------------------------------------------------


def z_representative(tag: AlgebraTag) -> JordanMatrix:
    """The square-zero representative with upper entries ((1, i, 0), (-1, 0), 0)."""
    z = AlgElement.zero(tag)
    return JordanMatrix(tag, (1, -1, 0), (z, z, AlgElement.scalar(tag, GR_I)))


def representative(tag: AlgebraTag, orbit: OrbitClass) -> ReductionLine:
    """The explicit representative line of each orbit (codim 4 needs a > 1)."""
    zero = AlgElement.zero(tag)
    if orbit == OrbitClass.OPEN0:
        return ReductionLine(JordanMatrix.diag(tag, 0, 1, -1),
                             JordanMatrix.diag(tag, 1, 0, -1))
    Z = z_representative(tag)
    if orbit == OrbitClass.CODIM1:
        return ReductionLine(Z, JordanMatrix.diag(tag, 1, 1, -2))
    if orbit == OrbitClass.CODIM2:
        Y = JordanMatrix(tag, (0, 0, 0),
                         (AlgElement.scalar(tag, GR_I), AlgElement.one(tag), zero))
        return ReductionLine(Z, Y)
    if orbit == OrbitClass.CODIM4:
        if tag.dim < 2:
            raise ValueError("the closed orbit is empty for the one-dimensional algebra")
        one, e1 = AlgElement.one(tag), AlgElement.basis(tag, 1)
        x1 = one.scale(GR_I) + e1          # entry i + e1 at (2,3)
        x2 = one + e1.scale(GR_I)          # entry 1 + i e1 at (3,1)
        return ReductionLine(Z, JordanMatrix(tag, (0, 0, 0), (x1, x2, zero)))
    raise ValueError("unknown orbit %r" % orbit)


def available_orbits(tag: AlgebraTag):
    orbits = [OrbitClass.OPEN0, OrbitClass.CODIM1, OrbitClass.CODIM2]
    if tag.dim > 1:
        orbits.append(OrbitClass.CODIM4)
    return tuple(orbits)
