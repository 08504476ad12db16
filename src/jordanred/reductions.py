"""The varieties of reductions: membership, orbits, tangent spaces, cubics.

A candidate point is a 2-plane span{X, Y} of traceless Jordan matrices; it
lies on the variety of reductions exactly when trace(X o (u Y)) = 0 for every
derivation u.  The rank-one points on a member line and tangent-space
dimensions reduce to exact linear algebra and to root extraction for binary
forms of degree at most 3, and a line's orbit is read off its rank-one
points alone.  The pairings are read off `liealg.pi_table`, and the tangent
dimension off `liealg.orbit_rank`.  The rank-one points are the common roots
of the 2x2 minors of the pencil (M(t), N(t)); only the 2n - 3 minors against
two pivot coordinates are formed (see `_rank_one_gcd`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Optional, Tuple

from .algebra import AlgebraTag, AlgElement
from .gaussrat import (GR_I, GR_ONE, GR_ZERO, GaussRational, bilinear, mat_vec, normalize,
                       to_numerators)
from .jordan import JordanMatrix, SeveriClass, char_poly, classify_severi, inner, jordan_mul
from .liealg import (j0_dim, j0_gram, j0_numerators, orbit_rank, pi_table,
                     traceless_numerators, wedge_pairs)
from .linalg import RowSpan, nullspace
from .polyq import PolyQi, poly_gcd, roots_qi


class ReductionLine:
    """An ordered pair of independent traceless matrices spanning a 2-plane.

    X and Y are read-only, so a line is an immutable value.  A line memoizes
    two results about itself: its membership verdict and, once it is known
    to be a member, its `SeveriPointReport`.  Each is computed on first use
    and read back after that; a computation that raises stores nothing.
    Two threads sharing a line may both compute a result, but they store
    equal values, so a line is safe to use concurrently.
    """

    __slots__ = ("_X", "_Y", "_member", "_severi")

    def __init__(self, X: JordanMatrix, Y: JordanMatrix):
        if X.tag != Y.tag:
            raise ValueError("algebra mismatch")
        if not (X.is_traceless() and Y.is_traceless()):
            raise ValueError("spanning matrices must be traceless")
        if _pivots(j0_numerators(X)[:2], j0_numerators(Y)[:2]) is None:
            raise ValueError("spanning matrices must be linearly independent")
        self._X = X
        self._Y = Y
        self._member = None
        self._severi = None

    @property
    def X(self) -> JordanMatrix:
        return self._X

    @property
    def Y(self) -> JordanMatrix:
        return self._Y

    @property
    def tag(self) -> AlgebraTag:
        return self._X.tag

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


def _pivots(x, y):
    """Coordinates (r, s) with x_r y_s - x_s y_r != 0, or None if x, y are dependent.

    x and y are numerator vectors (re, im); r is the first nonzero entry of x
    and s the first coordinate that makes the minor nonzero.
    """
    xr, xi = x
    yr, yi = y
    r = next((k for k, (a, b) in enumerate(zip(xr, xi)) if a or b), None)
    if r is None:
        return None
    a, b, c, e = xr[r], xi[r], yr[r], yi[r]
    for s, (f, g, h, k) in enumerate(zip(xr, xi, yr, yi)):
        if a * h - b * k - f * c + g * e or a * k + b * h - f * e - g * c:
            return r, s
    return None


# -- membership -----------------------------------------------------------------


def membership(line: ReductionLine) -> bool:
    """Whether the plane is a point of the variety of reductions.

    The verdict is memoized on the line.
    """
    if line._member is None:
        line._member = in_ker_pi(line.tag, _wedge_numerators(
            line.tag, j0_numerators(line.X), j0_numerators(line.Y)))
    return line._member


def _require_member(line: ReductionLine) -> None:
    if not membership(line):
        raise ValueError("line is not a point of the variety of reductions")


# -- the wedge square and the kernel of the projection ----------------------------


def pi_pairings(tag: AlgebraTag, re, im):
    """The linear forms F_k of the pi table on a wedge tensor, as integer sums.

    The tensor is given by integer numerators re + i im over a common
    denominator d; for each so3(A) basis operator this yields the pair
    (real, imaginary) of numerators of F_k over the same d.  The pairs are
    produced lazily, so a caller testing for zero can stop at the first
    nonzero one.
    """
    for terms in pi_table(tag):
        a = b = 0
        for w, _, _, c in terms:
            a += c * re[w]
            b += c * im[w]
        yield a, b


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
    """Basis of the kernel of the projection, as wedge triples (re, im, d)."""
    width = len(wedge_pairs(tag))
    zero = (0,) * width
    return tuple(nullspace([(row, zero) for row in pi_functional_matrix(tag)], width))


def _wedge_numerators(tag: AlgebraTag, x, y):
    """(re, im, d): x wedge y over the wedge pairs, for numerator vectors x, y of J0.

    x and y are triples (re, im, d) such as `j0_numerators` gives; the wedge
    lies over d = dx dy.
    """
    xr, xi, dx = x
    yr, yi, dy = y
    re, im = [], []
    for r, s in wedge_pairs(tag):
        # x_r y_s - x_s y_r on the numerators
        a, b, c, e = xr[r], xi[r], yr[s], yi[s]
        f, g, h, k = xr[s], xi[s], yr[r], yi[r]
        re.append(a * c - b * e - f * h + g * k)
        im.append(a * e + b * c - f * k - g * h)
    return re, im, dx * dy


def in_ker_pi(tag: AlgebraTag, w) -> bool:
    """Whether every pi pairing of the wedge triple w vanishes.

    Stops at the first pairing with a nonzero real or imaginary numerator.
    """
    re, im, _ = w
    return not any(a or b for a, b in pi_pairings(tag, re, im))


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
    if len(roots) != 3 or len(set(roots)) != 3:
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

    It is trace(e1) p(e2) wedge p(e3) + cyclic, with p the projection to J0
    along the identity, and lands in the kernel of the projection.  Each trace
    is 1 and p(e1) + p(e2) + p(e3) = p(I) = 0, so every cyclic term equals
    p(e1) wedge p(e2) and the sum is three times it.  It comes back as a
    normalised wedge triple (re, im, d).
    """
    if not triple.validate():
        raise ValueError("not a Pierce decomposition")
    re, im, d = _wedge_numerators(triple.e1.tag, traceless_numerators(triple.e1),
                                  traceless_numerators(triple.e2))
    return normalize([3 * v for v in re], [3 * v for v in im], d)


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

    def counts(self) -> Tuple[int, int, bool]:
        """(general, special, whole_line), the triple SEVERI_TABLE lists per orbit."""
        return self.count_general(), self.count_special(), self.whole_line


def _over_common_denominator(numerators):
    """Coefficient rows of sum_i A_i t^i, coordinate by coordinate.

    `numerators` lists (re, im, d) for A_0, A_1, ...; each coordinate comes
    back as the pair (re, im) of its ascending integer coefficient numerators
    over the lcm D of the d's.  Writing every coefficient over the same D
    scales the whole polynomial vector by D, which changes no zero, no
    proportionality and no divisibility.
    """
    numerators = list(numerators)
    n = len(numerators[0][0])
    re, im, _ = to_numerators((), numerators)
    return list(zip(zip(*(re[k:k + n] for k in range(0, len(re), n))),
                    zip(*(im[k:k + n] for k in range(0, len(im), n)))))


def _pencil_polys(X: JordanMatrix, Y: JordanMatrix):
    """Coordinate polynomials of M(t) = X + tY and N(t) = M^2 - (Q/3) I.

    M and N are each written over one common denominator (see
    `_over_common_denominator`).  With Q = trace(M o M), N is the traceless
    part of the Jordan squares (X o X, 2 X o Y, Y o Y) of M(t)^2, which come
    along for squareness checks.
    """
    sq = (jordan_mul(X, X), jordan_mul(X, Y).scale(2), jordan_mul(Y, Y))
    mc = _over_common_denominator([j0_numerators(X), j0_numerators(Y)])
    nc = _over_common_denominator([traceless_numerators(A) for A in sq])
    return mc, nc, sq


def _rank_one_minors(mc, nc):
    """The nonzero minors N_p M_k - N_k M_p as (re, im) numerator rows.

    p runs over the pivots (r, s) that `_pivots` finds for the line
    M(t) = x + ty and k over the other coordinates: 2n - 3 minors for n
    coordinates.  M and N are each over one common denominator, so every
    minor is scaled by the same nonzero constant and has Gaussian integer
    coefficients of degrees 0 to 3.
    """
    (xr, yr), (xi, yi) = (zip(*part) for part in zip(*mc))
    r, s = _pivots((xr, xi), (yr, yi))
    for p in (r, s):
        (a0, a1, a2), (b0, b1, b2) = nc[p]
        (c0, c1), (e0, e1) = mc[p]
        for j in range(len(mc)):
            if j == p or (p == s and j == r):  # m_sr is m_rs up to sign
                continue
            (f0, f1, f2), (g0, g1, g2) = nc[j]
            (h0, h1), (k0, k1) = mc[j]
            # (a + ib)(h + ik) - (f + ig)(c + ie), degree by degree
            re = (a0 * h0 - b0 * k0 - f0 * c0 + g0 * e0,
                  a0 * h1 - b0 * k1 + a1 * h0 - b1 * k0
                  - f0 * c1 + g0 * e1 - f1 * c0 + g1 * e0,
                  a1 * h1 - b1 * k1 + a2 * h0 - b2 * k0
                  - f1 * c1 + g1 * e1 - f2 * c0 + g2 * e0,
                  a2 * h1 - b2 * k1 - f2 * c1 + g2 * e1)
            im = (a0 * k0 + b0 * h0 - f0 * e0 - g0 * c0,
                  a0 * k1 + b0 * h1 + a1 * k0 + b1 * h0
                  - f0 * e1 - g0 * c1 - f1 * e0 - g1 * c0,
                  a1 * k1 + b1 * h1 + a2 * k0 + b2 * h0
                  - f1 * e1 - g1 * c1 - f2 * e0 - g2 * c0,
                  a2 * k1 + b2 * h1 - f2 * e1 - g2 * c1)
            if any(re) or any(im):
                yield re, im


def _rank_one_gcd(mc, nc) -> Optional[PolyQi]:
    """The monic gcd of all 2x2 minors m_jk = N_j M_k - N_k M_j, or None if they vanish.

    Only the minors against the pivots r, s of `_rank_one_minors` are formed,
    and they generate the same ideal as all of them: x_r y_s - x_s y_r != 0,
    so M_r and M_s share no root and a M_r + b M_s = 1 for some polynomials
    a, b; and M_r m_jk = M_j m_rk - M_k m_rj for any j, k, likewise with s in
    place of r, so m_jk = a M_r m_jk + b M_s m_jk.  They go into one `RowSpan`,
    whose at most 4 reduced rows span the same space and so have the same gcd.
    """
    span = RowSpan(_rank_one_minors(mc, nc))
    if not span.dim:
        return None
    g = PolyQi(())
    for row, d in span.rows.values():
        re, im = zip(*(row.get(j, (0, 0)) for j in range(4)))
        g = poly_gcd(g, PolyQi._make(re, im, d))
    return g


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
    infinity (mu = 0) are handled by classifying Y directly.  The report is
    memoized on the line.
    """
    _require_member(line)
    if line._severi is None:
        line._severi = _find_severi_points(line.X, line.Y)
    return line._severi


def _find_severi_points(X: JordanMatrix, Y: JordanMatrix) -> SeveriPointReport:
    mc, nc, sq = _pencil_polys(X, Y)
    g = _rank_one_gcd(mc, nc)
    if g is None:
        _check_rank_one(Y)
        return SeveriPointReport(whole_line=True, points=())
    points = []
    cls_y, _ = classify_severi(Y)
    if cls_y in (SeveriClass.SQUARE_ZERO, SeveriClass.PROJECTED_RANK_ONE):
        points.append(SeveriPoint(special=(cls_y == SeveriClass.SQUARE_ZERO),
                                  param=(GR_ZERO, GR_ONE), matrix=Y))
    if g.degree > 0:
        # the points are the distinct roots of g, each found once
        roots, leftovers = roots_qi(g)
        for t0 in roots:
            m = X + Y.scale(t0)
            cls = _check_rank_one(m)
            points.append(SeveriPoint(special=(cls == SeveriClass.SQUARE_ZERO),
                                      param=(GR_ONE, t0), matrix=m))
        for irr in leftovers:
            # full-matrix coordinates of M(t)^2, for squareness mod irr
            squares = [PolyQi._make(re, im, 1) for re, im in _over_common_denominator(
                [(A.nr, A.ni, A.d) for A in sq])]
            special = all(irr.divides(c) for c in squares)
            points.append(SeveriPoint(special=special, param=None, matrix=None,
                                      extension_degree=irr.degree))
    return SeveriPointReport(whole_line=False, points=tuple(points))


# -- orbit classification ---------------------------------------------------------------


class OrbitClass(Enum):
    OPEN0 = "open"
    CODIM1 = "codim1"
    CODIM2 = "codim2"
    CODIM4 = "codim4"


def classify_orbit(line: ReductionLine) -> OrbitClass:
    """The orbit of a member line under the automorphism group.

    Read off the line's rank-one points, counted as (general, special):
    open (3, 0), codim1 (1, 1), codim2 (0, 1), or codim4 when the whole line
    is rank one.  So no special (square-zero) point means open, and a general
    point beside a special one means codimension one.
    """
    report = severi_points_on_line(line)
    if report.whole_line:
        return OrbitClass.CODIM4
    if not report.count_special():
        return OrbitClass.OPEN0
    if report.count_general():
        return OrbitClass.CODIM1
    return OrbitClass.CODIM2


# -- tangent spaces -----------------------------------------------------------------------


def tangent_dim(line: ReductionLine) -> int:
    """Dimension of the tangent space to the variety of reductions at the line.

    Linearizes the membership pairings x^T S_k y in (dX, dY): their gradients
    (S_k y | -S_k x) are the orbit map at (y, x) up to the sign of a column
    block.  Subtracts the 4 spanning reparametrizations; smoothness predicts
    3a everywhere.
    """
    _require_member(line)
    tag = line.tag
    return 2 * j0_dim(tag) - 4 - orbit_rank(tag, j0_numerators(line.Y), j0_numerators(line.X))


# -- cubic forms --------------------------------------------------------------------------


def eval_cubic_theta(tag: AlgebraTag, theta, X: JordanMatrix) -> GaussRational:
    """theta(X, X o X - (Q/3) I) for a wedge triple theta in the kernel of pi.

    The wedge pairs against J0 through the invariant form; these cubics cut
    out the projected rank-one locus.
    """
    if not in_ker_pi(tag, theta):
        raise ValueError("theta is not in the kernel of the projection")
    tr, ti, td = theta
    g = j0_gram(tag)
    wr, wi, wd = _wedge_numerators(tag, mat_vec(g, *j0_numerators(X)),
                                   mat_vec(g, *traceless_numerators(jordan_mul(X, X))))
    return GaussRational._make(*bilinear(tr, ti, wr, wi), td * wd)


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
