"""Exact linear algebra over Q(i): one Gauss-Jordan kernel on integer numerators.

Rows and results are in the numerator layout of `gaussrat`.  A row enters
as a pair (re, im) of integer numerator sequences, standing for the row
re + i im; a row over a denominator enters as its numerators, and a real
row with im all zero.  `RowSpan` holds the reduced row echelon form of the
rows added so far, and `rank` is its dimension; neither depends on a
nonzero factor of a row.  `nullspace` returns one normalised triple
(re, im, d) per kernel vector and `invert` the inverse of the integer
matrix as one normalised matrix triple (re rows, im rows, d); no report
inverts a matrix, and `invert` is kept only for `liealg.bform_inverse`.
Elimination uses integer arithmetic only.
"""

from __future__ import annotations

from math import gcd, lcm

from .gaussrat import normalize, normalize_matrix


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

    def __init__(self, rows=()):
        self.rows = {}
        for re, im in rows:
            self.add(re, im)

    def _reduce(self, v) -> dict:
        """v modulo the span, up to a nonzero integer factor, with content removed."""
        rows = self.rows
        for p in [p for p in v if p in rows]:
            _clear(v, p, *rows[p])
        g = _content(v)
        return _divide(v, g) if g > 1 else v

    def add(self, re, im) -> bool:
        """Add the row with integer numerators re + i im (over any denominator).

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

    def contains(self, re, im) -> bool:
        """Whether the row with integer numerators re + i im lies in the span."""
        return not self._reduce(_sparse(re, im))

    @property
    def dim(self) -> int:
        return len(self.rows)


def rank(rows) -> int:
    """Rank of a matrix given by rows of integer numerator pairs (re, im)."""
    return RowSpan(rows).dim


def nullspace(rows, ncols: int):
    """Basis of the right kernel of the matrix with ncols columns, as triples.

    The vectors are the canonical kernel basis read off the reduced row
    echelon form: one per free column, 1 there and 0 at the other free
    columns, each as a normalised triple (re, im, d).  Real vectors share
    one all-zero imaginary tuple.
    """
    span = RowSpan(rows)
    basis = []
    zero = (0,) * ncols  # the imaginary numerators of every real kernel vector
    for fc in range(ncols):
        if fc in span.rows:
            continue
        # -row[fc]/d at each pivot whose row meets fc, over the lcm of those d
        terms = [(p, row[fc], d) for p, (row, d) in span.rows.items() if fc in row]
        den = lcm(*(d for _, _, d in terms))
        re, im = [0] * ncols, [0] * ncols
        re[fc] = den
        for p, (a, b), d in terms:
            re[p], im[p] = -a * (den // d), -b * (den // d)
        re, im, den = normalize(re, im, den)
        basis.append((re, im if any(im) else zero, den))
    return basis


def invert(rows):
    """Inverse of a square integer matrix, as a matrix triple: rref of [A | I]."""
    n = len(rows)
    span = RowSpan((list(re) + [int(i == j) for j in range(n)], list(im) + [0] * n)
                   for i, (re, im) in enumerate(rows))
    if any(p not in span.rows for p in range(n)):
        raise ValueError("singular matrix")
    den = lcm(*(span.rows[p][1] for p in range(n)))
    out_re, out_im = [], []
    for p in range(n):
        row, d = span.rows[p]
        f = den // d
        out_re.append([row.get(j, (0, 0))[0] * f for j in range(n, 2 * n)])
        out_im.append([row.get(j, (0, 0))[1] * f for j in range(n, 2 * n)])
    return normalize_matrix(out_re, out_im, den)
