"""Exact linear algebra for small matrices: one Gauss-Jordan kernel.

Everything works over an exact field whose elements support +, -, *, / and
truth testing (Fraction and GaussRational both do); int entries are promoted
to Fraction.  `RowSpan` holds the reduced row echelon form of the vectors
added so far, as sparse unit-pivot rows; `rref`, `rank`, `nullspace` and
`invert` are views of it.
"""

from __future__ import annotations

from fractions import Fraction


def _field(x):
    return Fraction(x) if isinstance(x, int) else x


def _clear(v, p, prow):
    """Subtract v[p] * prow from the sparse vector v, over prow's nonzero columns."""
    f = v[p]
    for j, x in prow.items():
        y = v.get(j)
        y = -f * x if y is None else y - f * x
        if y:
            v[j] = y
        else:
            del v[j]


class RowSpan:
    """Incrementally reduced row space, for exact rank and span-membership tests.

    `rows` maps each pivot column to its row, a dict of the nonzero
    (index, value) pairs; each row is 1 at its own pivot, 0 at every other
    pivot and 0 left of its pivot, so together they are the reduced row
    echelon form of the span.
    """

    def __init__(self, vectors=()):
        self.rows = {}
        for v in vectors:
            self.add(v)

    def reduce(self, vec) -> dict:
        """The sparse remainder of vec modulo the span."""
        v = {j: _field(x) for j, x in enumerate(vec) if x}
        for p in [p for p in v if p in self.rows]:
            _clear(v, p, self.rows[p])
        return v

    def add(self, vec) -> bool:
        """Add a vector; returns True if it enlarged the span."""
        v = self.reduce(vec)
        if not v:
            return False
        p = min(v)
        pv = v[p]
        row = v if pv == 1 else {j: x / pv for j, x in v.items()}
        for other in self.rows.values():
            if p in other:
                _clear(other, p, row)
        self.rows[p] = row
        return True

    def contains(self, vec) -> bool:
        return not self.reduce(vec)

    @property
    def dim(self) -> int:
        return len(self.rows)


def rank(rows) -> int:
    """Rank of a matrix given as a list of rows over an exact field."""
    return RowSpan(rows).dim


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    rows = list(rows)
    span = RowSpan(rows)
    pivots = sorted(span.rows)
    out = []
    for p in pivots:
        row = span.rows[p]
        zero = row[p] - row[p]
        out.append([row.get(j, zero) for j in range(len(rows[0]))])
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
    one = _field(rows[0][0]) ** 0 if rows else Fraction(1)
    zero = one - one
    basis = []
    for fc in range(ncols):
        if fc in span.rows:
            continue
        v = [zero] * ncols
        v[fc] = one
        for p, row in span.rows.items():
            if fc in row:
                v[p] = -row[fc]
        basis.append(v)
    return basis


def invert(rows):
    """Inverse of a small square matrix over an exact field: rref of [A | I]."""
    n = len(rows)
    red, pivots = rref([list(r) + [int(i == j) for j in range(n)]
                        for i, r in enumerate(rows)])
    if pivots[n - 1] != n - 1:
        raise ValueError("singular matrix")
    return [row[n:] for row in red]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        ai = a[i]
        row = []
        for j in range(m):
            s = ai[0] * b[0][j]
            for t in range(1, k):
                if ai[t]:
                    s = s + ai[t] * b[t][j]
            row.append(s)
        out.append(row)
    return out
