"""Exact linear algebra over Q(i): one Gauss-Jordan kernel on integer numerators.

`RowSpan` holds the reduced row echelon form of the vectors added so far.
Each reduced row is kept in the numerator layout of `gaussrat`: a sparse map
from column to the Gaussian integer numerator (re, im), over one row
denominator d, with the numerator at the pivot equal to (d, 0).  Elimination
uses integer arithmetic only.  Vectors enter through `add_numerators` as
integer numerator sequences; `add` and `contains` first put Q(i) scalars
(GaussRational, Fraction or int) in that layout with `gaussrat.to_numerators`.
`rank`, `rref`, `nullspace` and `invert` are views of the span, and return
GaussRational entries.
"""

from __future__ import annotations

from math import gcd

from .gaussrat import GR_ONE, GR_ZERO, GaussRational, to_numerators


def _sparse(re, im):
    """The nonzero entries of a numerator vector, as a map column -> (re, im)."""
    if not any(im):
        return {j: (a, 0) for j, a in enumerate(re) if a}
    return {j: (a, b) for j, (a, b) in enumerate(zip(re, im)) if a or b}


def _content(v, g=0):
    """The gcd of g and every numerator of the sparse vector v."""
    for a, b in v.values():
        g = gcd(g, a, b)
        if g == 1:
            break
    return g


def _divide(v, g):
    return {j: (a // g, b // g) for j, (a, b) in v.items()}


def _clear(v, p, row, d):
    """Make v zero at the pivot p of row (over d), in place, up to a nonzero factor.

    With f = v[p] and g = gcd(f, d) this is (v d - f row)/g, whose entry at p
    is 0 because row is d there; v is scaled only when d/g is not 1.
    """
    fr, fi = v.pop(p)
    g = gcd(fr, fi, d)
    s = d // g
    if g != 1:
        fr //= g
        fi //= g
    if s != 1:
        for j, (a, b) in v.items():
            v[j] = (a * s, b * s)
    for j, (x, y) in row.items():
        if j == p:
            continue
        a, b = v.get(j, (0, 0))
        a -= fr * x - fi * y
        b -= fr * y + fi * x
        if a or b:
            v[j] = (a, b)
        else:
            del v[j]


class RowSpan:
    """Incrementally reduced row space, for exact rank and span-membership tests.

    `rows` maps each pivot column p to a pair (row, d): row is a sparse map
    from column to integer numerators (re, im), and the row of the span is
    row/d.  row[p] is (d, 0) and row is 0 at every other pivot and left of p,
    so the rows together are the reduced row echelon form of the span.  Each
    row is primitive: d and its numerators have no common factor.
    """

    def __init__(self, vectors=()):
        self.rows = {}
        for v in vectors:
            self.add(v)

    def _reduce(self, v) -> dict:
        """v modulo the span, up to a nonzero integer factor, with content removed."""
        rows = self.rows
        for p in [p for p in v if p in rows]:
            _clear(v, p, *rows[p])
        g = _content(v)
        return _divide(v, g) if g > 1 else v

    def add_numerators(self, re, im) -> bool:
        """Add the vector with integer numerators re + i im (over any denominator).

        Returns True if it enlarged the span.  A new pivot row is divided by
        its pivot a + bi by multiplying by a - bi, over a^2 + b^2; every
        earlier row is then cleared at the new pivot.
        """
        v = self._reduce(_sparse(re, im))
        if not v:
            return False
        p = min(v)
        a, b = v[p]
        if b:
            d = a * a + b * b
            v = {j: (x * a + y * b, y * a - x * b) for j, (x, y) in v.items()}
        elif a < 0:
            d = -a
            v = {j: (-x, -y) for j, (x, y) in v.items()}
        else:
            d = a
        g = _content(v, d)
        if g > 1:
            v, d = _divide(v, g), d // g
        rows = self.rows
        for q, (other, _) in rows.items():
            if p in other:
                _clear(other, p, v, d)
                g = _content(other)
                if g > 1:
                    other = _divide(other, g)
                rows[q] = (other, other[q][0])
        rows[p] = (v, d)
        return True

    def add(self, vec) -> bool:
        """Add a vector of Q(i) scalars; returns True if it enlarged the span."""
        return self.add_numerators(*to_numerators(vec)[:2])

    def contains(self, vec) -> bool:
        return not self._reduce(_sparse(*to_numerators(vec)[:2]))

    @property
    def dim(self) -> int:
        return len(self.rows)


def rank_numerators(rows) -> int:
    """Rank of a matrix given by rows of integer numerator pairs (re, im)."""
    span = RowSpan()
    for re, im in rows:
        span.add_numerators(re, im)
    return span.dim


def rank(rows) -> int:
    """Rank of a matrix given as a list of rows of Q(i) scalars."""
    return RowSpan(rows).dim


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    rows = list(rows)
    span = RowSpan(rows)
    pivots = sorted(span.rows)
    out = []
    for p in pivots:
        row, d = span.rows[p]
        vec = [GR_ZERO] * len(rows[0])
        for j, (a, b) in row.items():
            vec[j] = GaussRational._make(a, b, d)
        out.append(vec)
    return out, pivots


def nullspace(rows, ncols=None):
    """Basis of the right kernel of the matrix, as a list of vectors.

    The vectors are the canonical kernel basis read off the reduced row
    echelon form: one per free column, 1 there and 0 at the other free
    columns.
    """
    rows = list(rows)
    if rows:
        ncols = len(rows[0])
    if ncols is None:
        raise ValueError("empty matrix needs an explicit column count")
    span = RowSpan(rows)
    basis = []
    for fc in range(ncols):
        if fc in span.rows:
            continue
        v = [GR_ZERO] * ncols
        v[fc] = GR_ONE
        for p, (row, d) in span.rows.items():
            if fc in row:
                a, b = row[fc]
                v[p] = GaussRational._make(-a, -b, d)
        basis.append(v)
    return basis


def invert(rows):
    """Inverse of a small square matrix over Q(i): rref of [A | I]."""
    n = len(rows)
    red, pivots = rref([list(r) + [int(i == j) for j in range(n)]
                        for i, r in enumerate(rows)])
    if pivots[n - 1] != n - 1:
        raise ValueError("singular matrix")
    return [row[n:] for row in red]

