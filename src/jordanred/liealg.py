"""The derivation Lie algebras so3(A) = t(A) + A_1 + A_2 + A_3.

The triality algebra t(A) -- triples (u1, u2, u3) of skew endomorphisms of A
with u1(xy) = u2(x)y + x u3(y) -- is the exact nullspace of one system read
straight off the multiplication table.  An operator of so3(A) is one integer
matrix on the 3a + 3 coordinates of J3(A), built once from its components by
one cyclic rule: with (j, k) = (i + 1, i + 2) and s = +1, +1,
-1 for slot i = 1, 2, 3, the generator a in slot i sends c_j by -2s q(a, x_i),
c_k by +2s q(a, x_i), x_i by s (c_j - c_k) a, x_j by s conj(x_k a) and x_k by
-s conj(a x_j); a triality triple (v1, v2, v3) sends x1 to v3 x1, x2 to
conj v1 conj x2 and x3 to v2 x3.  Its restriction to the traceless subspace
J0 in a fixed basis is an integer matrix M_k too, so that membership,
stabilizer and tangent computations reduce to exact linear algebra.  A
matrix with a trace reaches J0 along the identity, through
`traceless_numerators` only.  The pairing table `pi_table` holds the skew
matrices S_k = G M_k, G the Gram matrix of the trace form on J0: they give
the membership pairings x^T S_k y of `reductions` and the orbit map
u -> (u v_1, ..., u v_m), whose rank `orbit_rank` is the one source of the
stabilizer and tangent dimensions.

Basis of J0 (dimension 3a + 2):
    D1 = diag(1,-1,0), D2 = diag(0,1,-1),
    then slot 1, slot 2, slot 3 each running over the algebra basis.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from operator import mul

from .algebra import AlgebraTag, AlgElement, mult_table, structure_constants
from .gaussrat import mat_mat, mat_vec, normalize, normalize_matrix
from .jordan import JordanMatrix, _slots, inner
from .linalg import RowSpan, invert, nullspace, rank


# -- the basis of J0 -----------------------------------------------------------


@lru_cache(maxsize=None)
def j0_dim(tag: AlgebraTag) -> int:
    return 3 * tag.dim + 2


@lru_cache(maxsize=None)
def j0_basis(tag: AlgebraTag):
    basis = [JordanMatrix.diag(tag, 1, -1, 0), JordanMatrix.diag(tag, 0, 1, -1)]
    zero = AlgElement.zero(tag)
    for slot in range(3):
        for k in range(tag.dim):
            x = [zero, zero, zero]
            x[slot] = AlgElement.basis(tag, k)
            basis.append(JordanMatrix(tag, (0, 0, 0), tuple(x)))
    return tuple(basis)


def j0_numerators(X: JordanMatrix):
    """(real numerators, imaginary numerators, d) of the J0 coordinates of X."""
    if not X.is_traceless():
        raise ValueError("matrix is not traceless")
    nr, ni = X.nr, X.ni
    return (nr[0], -nr[2]) + nr[3:], (ni[0], -ni[2]) + ni[3:], X.d


def traceless_numerators(Z: JordanMatrix):
    """The J0 numerators of Z - (trace Z / 3) I over 3d, not normalised.

    The one place that projects onto J0 along I: over 3d the J0 coordinates
    c_1 and -c_3 are 2c_1 - c_2 - c_3 and c_1 + c_2 - 2c_3, and the slots 3x.
    """
    def part(v):
        return (2 * v[0] - v[1] - v[2], v[0] + v[1] - 2 * v[2]) + tuple(3 * c for c in v[3:])
    return part(Z.nr), part(Z.ni), 3 * Z.d


def j0_from_numerators(tag: AlgebraTag, nr, ni, d) -> JordanMatrix:
    """The traceless matrix with J0 numerators nr, ni over d (inverts j0_numerators)."""
    if len(nr) != j0_dim(tag):
        raise ValueError("expected %d J0 coordinates, got %d" % (j0_dim(tag), len(nr)))
    return JordanMatrix._make(tag, (nr[0], nr[1] - nr[0], -nr[1]) + tuple(nr[2:]),
                              (ni[0], ni[1] - ni[0], -ni[1]) + tuple(ni[2:]), d)


@lru_cache(maxsize=None)
def j0_gram(tag: AlgebraTag):
    """Integer Gram matrix of trace(X o Y) in the J0 basis."""
    basis = j0_basis(tag)
    g = []
    for bi in basis:
        row = []
        for bj in basis:
            v = inner(bi, bj)
            if v.ni or v.d != 1:
                raise ArithmeticError("trace form not integral on the J0 basis")
            row.append(v.nr)
        g.append(tuple(row))
    return tuple(g)


@lru_cache(maxsize=None)
def wedge_pairs(tag: AlgebraTag):
    """The index pairs (r, s), r < s, of the wedge square of J0, in order."""
    n = j0_dim(tag)
    return tuple((r, s) for r in range(n) for s in range(r + 1, n))


# -- skew endomorphisms and the triality algebra -------------------------------


@lru_cache(maxsize=None)
def triality_basis(tag: AlgebraTag):
    """Integer basis of t(A) as triples (u1, u2, u3) of skew matrices.

    The unknowns are the coefficients of u1, u2 and u3 over the skew
    generators of the pairs p < q in lexicographic order; generator t sends
    e_q to e_p and e_p to -e_q.  For each basis pair with e_i e_j = sg e_k,
    the a rows of u1(e_i e_j) - u2(e_i) e_j - e_i u3(e_j) are read off the
    multiplication table: a generator moving e_k to sign e_out puts sg sign
    in row out, one moving e_i puts -sign g in the row r of e_out e_j =
    g e_r, and one moving e_j puts -sign g in the row r of e_i e_out = g e_r.
    The basis is the nullspace of these rows; sizes come out 0, 2, 9, 28.
    """
    a = tag.dim
    pairs = [(p, q) for p in range(a) for q in range(p + 1, a)]
    s = len(pairs)
    if s == 0:
        return ()
    table = mult_table(a)
    # moves[x] lists (t, out, sign): generator t sends e_x to sign e_out
    moves = [[] for _ in range(a)]
    for t, (p, q) in enumerate(pairs):
        moves[q].append((t, p, 1))
        moves[p].append((t, q, -1))
    rows = []
    zero = (0,) * (3 * s)
    for i in range(a):
        for j in range(a):
            k, sg = table[i][j]
            block = [[0] * (3 * s) for _ in range(a)]
            for t, out, sign in moves[k]:
                block[out][t] = sg * sign
            for t, out, sign in moves[i]:
                r, g = table[out][j]
                block[r][s + t] = -sign * g
            for t, out, sign in moves[j]:
                r, g = table[i][out]
                block[r][2 * s + t] = -sign * g
            rows.extend((row, zero) for row in block)
    triples = []
    # each kernel vector is real, and its numerators are an integer multiple of it
    for ints, _, _ in nullspace(rows, 3 * s):
        mats = []
        for block in range(3):
            m = [[0] * a for _ in range(a)]
            for t, (p, q) in enumerate(pairs):
                m[p][q] = ints[block * s + t]
                m[q][p] = -ints[block * s + t]
            mats.append(tuple(map(tuple, m)))
        triples.append(tuple(mats))
    return tuple(triples)


def triality_identity_holds(tag: AlgebraTag, triple) -> bool:
    """Exhaustive check of u1(xy) = u2(x)y + x u3(y) over basis pairs."""
    a = tag.dim
    table = mult_table(a)
    u1, u2, u3 = triple
    for i in range(a):
        for j in range(a):
            k, sg = table[i][j]
            lhs = [sg * u1[r][k] for r in range(a)]
            rhs = [0] * a
            for r in range(a):
                c = u2[r][i]
                if c:
                    kk, ss = table[r][j]
                    rhs[kk] += ss * c
                c = u3[r][j]
                if c:
                    kk, ss = table[i][r]
                    rhs[kk] += ss * c
            if lhs != rhs:
                return False
    return True


# -- the action on J3(A) --------------------------------------------------------


class So3AOperator:
    """A derivation of J3(A), built from its (t, a1, a2, a3) components.

    `tmats` is a triality triple (v1, v2, v3) of skew integer matrices (or
    None), and each a_i is an algebra element with integer real coordinates
    (anything else raises ArithmeticError).  The operator is an integer matrix
    on the 3a + 3 coordinates (c1, c2, c3, x1, x2, x3) of J3(A), kept as
    `terms`: each row's nonzero (column, value) pairs.  With (j, k) = (i + 1,
    i + 2) cyclically, s = +1, +1, -1 for i = 1, 2, 3 and a = a_i, slot i acts by

        c_j -= 2s q(a, x_i),  c_k += 2s q(a, x_i),
        x_i += s (c_j - c_k) a,
        x_j += s conj(x_k a),  x_k -= s conj(a x_j),

    and the triple by x1 -> v3 x1, x2 -> conj v1 conj x2, x3 -> v2 x3.  The
    a_i generator is twice the inner derivation [L_{F_i(a)}, L_{D_i}], with
    F_i(a) carrying a in slot i and D_i the traceless diagonal matrix giving
    the coefficient s (c_j - c_k); the test suite checks it against those
    commutators.  `matrix` is the restriction to J0 in its fixed basis: rows
    c1, -c3 and the slots, columns c1 - c2, c2 - c3 and the slots.
    """

    __slots__ = ("tag", "kind", "terms", "matrix")

    def __init__(self, tag, tmats=None, a1=None, a2=None, a3=None):
        self.tag = tag
        self.kind = "t" if tmats is not None else "a"
        a = tag.dim
        lo = _slots(a)
        plain, conj = (1,) * a, (1,) + (-1,) * (a - 1)
        full = [[0] * (3 * a + 3) for _ in range(3 * a + 3)]

        def add_block(i, j, sign, block, rows=plain, cols=plain):
            """sign diag(rows) block diag(cols), from slot j into slot i."""
            for p, row in enumerate(block):
                out = full[lo[i] + p]
                for q, v in enumerate(row):
                    out[lo[j] + q] += sign * rows[p] * cols[q] * v

        if tmats is not None:
            v1, v2, v3 = tmats
            add_block(0, 0, 1, v3)
            add_block(1, 1, 1, v1, conj, conj)
            add_block(2, 2, 1, v2)
        for i, (elt, s) in enumerate(zip((a1, a2, a3), (1, 1, -1))):
            if elt is None:
                continue
            if elt.tag != tag:
                raise ValueError("operator and slot generator live over different algebras")
            if elt.d != 1 or any(elt.ni):
                raise ArithmeticError("slot generator is not an integral real element")
            j, k = (i + 1) % 3, (i + 2) % 3
            for p, v in enumerate(elt.nr):
                full[j][lo[i] + p] -= 2 * s * v
                full[k][lo[i] + p] += 2 * s * v
                full[lo[i] + p][j] += s * v
                full[lo[i] + p][k] -= s * v
            left, right = mult_matrices(elt)
            add_block(j, k, s, right, conj)
            add_block(k, j, -s, left, conj)
        self.terms = tuple(tuple((j, v) for j, v in enumerate(row) if v) for row in full)
        rows = [full[0], [-v for v in full[2]]] + full[3:]
        self.matrix = tuple((r[0] - r[1], r[1] - r[2]) + tuple(r[3:]) for r in rows)

    def apply(self, X: JordanMatrix) -> JordanMatrix:
        """The derivation applied to X: each row's terms on its numerators."""
        if X.tag != self.tag:
            raise ValueError("operator and matrix live over different algebras")
        nr, ni = X.nr, X.ni
        outr, outi = [0] * len(nr), [0] * len(nr)
        for i, row in enumerate(self.terms):
            for j, v in row:
                outr[i] += v * nr[j]
                outi[i] += v * ni[j]
        return JordanMatrix._raw(self.tag, *normalize(outr, outi, X.d))

    def __repr__(self):
        return "So3AOperator(%s, %s)" % (self.tag, self.kind)


@lru_cache(maxsize=None)
def so3a_basis(tag: AlgebraTag):
    """Basis of so3(A): the triality part followed by the 3a slot generators."""
    ops = [So3AOperator(tag, tmats=t) for t in triality_basis(tag)]
    ops += [So3AOperator(tag, **{"a%d" % (slot + 1): AlgElement.basis(tag, k)})
            for slot in range(3) for k in range(tag.dim)]
    return tuple(ops)


def so3a_matrices(tag: AlgebraTag):
    return [op.matrix for op in so3a_basis(tag)]


def so3a_rank(tag: AlgebraTag) -> int:
    """Rank of the stacked realized operators (linear independence check)."""
    return operator_span(tag).dim


# -- the invariant form B on so3(A) ------------------------------------------------


@lru_cache(maxsize=None)
def bform_gram(tag: AlgebraTag):
    """B(u, v) = trace of the composed realized operators on J0.

    trace(M_i M_j) is summed over the nonzero entries of M_i only, and B is
    symmetric, so only its upper half is computed.  No report reads B: it is
    kept, with `bform_inverse`, for the benchmark's set-up probe and as the
    tests' B^-1 reference.
    """
    mats = so3a_matrices(tag)
    n = len(mats)
    g = [[0] * n for _ in range(n)]
    for i, mi in enumerate(mats):
        nonzero = [(r, k, c) for r, row in enumerate(mi) for k, c in enumerate(row) if c]
        for j in range(i, n):
            mj = mats[j]
            g[i][j] = g[j][i] = sum(c * mj[k][r] for r, k, c in nonzero)
    return tuple(tuple(row) for row in g)


@lru_cache(maxsize=None)
def bform_inverse(tag: AlgebraTag):
    """B^-1 as a matrix triple (re rows, im rows, d).

    No report reads it: membership is decided by the pairings of `pi_table`
    alone.  It is kept for the benchmark's set-up probe, which times its cold
    build, and as the tests' B^-1 reference, which projects a wedge onto
    so3(A) through dual bases independently of the pairings.
    """
    g = bform_gram(tag)
    zero = (0,) * len(g)
    return invert([(row, zero) for row in g])


# -- the pairing table, the orbit map and stabilizers ----------------------------


@lru_cache(maxsize=None)
def pi_table(tag: AlgebraTag):
    """The nonzero terms (w, r, s, c) of S_k = G M_k above the diagonal.

    One tuple of terms per so3(A) basis operator M_k, with G the Gram matrix
    of J0 and w the index of the wedge pair (r, s).  Each S_k is skew, since
    derivations are orthogonal for the trace form, so x^T S_k y is the sum of
    c (x_r y_s - x_s y_r) over the terms: a linear form on the wedge square.
    """
    g = j0_gram(tag)
    # the nonzero entries G[r][t] of each column t of G
    gcols = [[(r, row[t]) for r, row in enumerate(g) if row[t]] for t in range(len(g))]
    index = {pair: w for w, pair in enumerate(wedge_pairs(tag))}
    table = []
    for m in so3a_matrices(tag):
        sk = {}
        for t, row in enumerate(m):
            for s, c in enumerate(row):
                if c:
                    for r, gc in gcols[t]:
                        sk[r, s] = sk.get((r, s), 0) + gc * c
        # skew on the nonzero entries and their mirrors covers every entry
        if any(sk.get((s, r), 0) != -v for (r, s), v in sk.items()):
            raise ArithmeticError("G M_k is not skew: a realized operator is not "
                                  "orthogonal for the trace form")
        table.append(tuple(sorted((index[r, s], r, s, v)
                                  for (r, s), v in sk.items() if r < s and v)))
    return tuple(table)


def orbit_rank(tag: AlgebraTag, *vectors) -> int:
    """The rank of the orbit map u -> (u v_1, ..., u v_m) of so3(A) on J0.

    Each v is a numerator triple (re, im, d) of J0 coordinates.  The row of
    the basis operator M_k is (S_k v_1 | ... | S_k v_m) on the numerators,
    with S_k = G M_k read off the skew terms of `pi_table`.  G is invertible
    and each denominator scales one block of columns, so the rank is kept.
    """
    n = j0_dim(tag)
    width = n * len(vectors)
    blocks = [(i * n, vr, vi) for i, (vr, vi, _) in enumerate(vectors)]
    rows = []
    for terms in pi_table(tag):
        re, im = [0] * width, [0] * width
        for off, vr, vi in blocks:
            for _, r, s, c in terms:
                re[off + r] += c * vr[s]
                im[off + r] += c * vi[s]
                re[off + s] -= c * vr[r]
                im[off + s] -= c * vi[r]
        rows.append((re, im))
    return rank(rows)


def stabilizer_dims(X: JordanMatrix):
    """(annihilator_dim, orbit_dim, perp_dim) for a nonzero traceless X.

    annihilator = {u in so3(A) : u X = 0}; orbit_dim is the dimension of
    so3(A) X; perp_dim the codimension of that span in J0 under trace(X o Y).
    """
    if X.is_zero():
        raise ValueError("zero matrix has no stabilizer data")
    tag = X.tag
    r = orbit_rank(tag, j0_numerators(X))
    return len(pi_table(tag)) - r, r, j0_dim(tag) - r


# -- brackets ---------------------------------------------------------------------


def bracket_matrix(m1, m2):
    """Commutator of two integer operator matrices."""
    n = len(m1)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        m1i, m2i = m1[i], m2[i]
        oi = out[i]
        for k in range(n):
            c1, c2 = m1i[k], m2i[k]
            if c1:
                row = m2[k]
                for j in range(n):
                    if row[j]:
                        oi[j] += c1 * row[j]
            if c2:
                row = m1[k]
                for j in range(n):
                    if row[j]:
                        oi[j] -= c2 * row[j]
    return out


def _flat_row(mat):
    """An integer matrix flattened to one real numerator row (re, im)."""
    re = [v for row in mat for v in row]
    return re, [0] * len(re)


@lru_cache(maxsize=None)
def operator_span(tag: AlgebraTag) -> RowSpan:
    """Span of the flattened realized so3(A) operators."""
    return RowSpan(_flat_row(m) for m in so3a_matrices(tag))


def bracket_in_span(tag: AlgebraTag, i: int, j: int) -> bool:
    mats = so3a_matrices(tag)
    return operator_span(tag).contains(*_flat_row(bracket_matrix(mats[i], mats[j])))


# -- left and right multiplication ------------------------------------------------


def mult_matrices(z: AlgElement):
    """The integer matrices (L_z, R_z) of left and right multiplication by z.

    Read off the structure constants: e_i e_j = sign e_k puts sign z_i at
    L_z[k][j] and sign z_j at R_z[k][i].  Every coordinate of z is an entry
    of both, so a fractional or imaginary coordinate raises ValueError.
    """
    if z.d != 1 or any(z.ni):
        raise ValueError("matrix has an entry that is not an integer")
    a, nr = z.tag.dim, z.nr
    left = [[0] * a for _ in range(a)]
    right = [[0] * a for _ in range(a)]
    for k, pairs in enumerate(structure_constants(a)):
        for sign, terms in zip((1, -1), pairs):
            for i, j in terms:
                left[k][j] += sign * nr[i]
                right[k][i] += sign * nr[j]
    return tuple(map(tuple, left)), tuple(map(tuple, right))


# -- unipotent automorphisms (exact exponentials of nilpotent derivations) --------
#
# These matrices are triples (re rows, im rows, d) in the numerator layout of
# `gaussrat`.  Whether a power vanishes does not depend on d, so the powers
# are taken of the Gaussian integer numerators alone, over 1.


def _identity(n):
    rows = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return rows, tuple((0,) * n for _ in range(n)), 1


def _nonzero_powers(mat):
    """[A^0, A^1, ..., A^m] with A^(m+1) = 0, for the numerators A of mat.

    None when A is not nilpotent, that is when A^n does not vanish.
    """
    re, im, _ = mat
    a = (re, im, 1)
    powers = [_identity(len(re))]
    while True:
        p = mat_mat(powers[-1], a)
        if not any(map(any, p[0] + p[1])):
            return powers
        if len(powers) == len(re):
            return None
        powers.append(p)


def is_nilpotent(mat) -> bool:
    """Whether the matrix triple mat is nilpotent."""
    return _nonzero_powers(mat) is not None


def exp_nilpotent(mat):
    """Exact exp of a nilpotent matrix triple (re rows, im rows, d), as a triple.

    With A its numerators and A^m the last nonzero power, exp(A/d) is the
    sum of A^k d^(m-k) (m!/k!) over the one denominator d^m m!.
    """
    powers = _nonzero_powers(mat)
    if powers is None:
        raise ValueError("matrix is not nilpotent")
    d, m = mat[2], len(powers) - 1
    f = [d ** (m - k) * (factorial(m) // factorial(k)) for k in range(m + 1)]

    def weighted_sum(part):
        return [[sum(map(mul, f, entries)) for entries in zip(*rows)]
                for rows in zip(*(p[part] for p in powers))]

    return normalize_matrix(weighted_sum(0), weighted_sum(1), d ** m * factorial(m))


@lru_cache(maxsize=None)
def nilpotent_generators(tag: AlgebraTag):
    """A few nilpotent derivations m1 + i m2 on J0, as triples (m1, m2, 1)."""
    ops = so3a_basis(tag)
    ntr = len(triality_basis(tag))
    a = tag.dim

    def slot_matrix(slot, k):
        return ops[ntr + slot * a + k].matrix

    # isotropic combinations across two slots: a_i(e0) +/- i a_j(e0)
    pairs = [(slot_matrix(s1, 0), slot_matrix(s2, 0), sign)
             for s1, s2 in ((0, 1), (1, 2), (0, 2)) for sign in (1, -1)]
    # isotropic element inside one slot (needs a >= 2)
    if a >= 2:
        pairs += [(slot_matrix(slot, 0), slot_matrix(slot, 1), 1) for slot in range(3)]
    out = []
    for m1, m2, sign in pairs:
        cand = (m1, tuple(tuple(sign * v for v in row) for row in m2), 1)
        if is_nilpotent(cand):
            out.append(cand)
    if not out:
        raise RuntimeError("no nilpotent derivations found for %s" % tag)
    return tuple(out)


def random_unipotent(tag: AlgebraTag, rng, factors: int = 3):
    """A random product of exact unipotent automorphisms of J3(A), as a triple on J0."""
    n = len(nilpotent_generators(tag))
    g = _identity(j0_dim(tag))
    for _ in range(factors):
        j = rng.randrange(n)
        g = mat_mat(g, _unipotent_factor(tag, j, rng.choice((-2, -1, 1, 2))))
    return g


@lru_cache(maxsize=None)
def _unipotent_factor(tag: AlgebraTag, j: int, t: int):
    """exp(t N_j) for the nilpotent generator N_j of `nilpotent_generators`."""
    re, im, d = nilpotent_generators(tag)[j]
    return exp_nilpotent(([[t * v for v in row] for row in re],
                          [[t * v for v in row] for row in im], d))


def apply_j0_linear(tag: AlgebraTag, mat, X: JordanMatrix) -> JordanMatrix:
    """Apply a linear map on J0 coordinates, a matrix triple, to a matrix, fixing I."""
    mr, mi, md = mat
    xr, xi, xd = traceless_numerators(X)
    shift = JordanMatrix.identity(tag).scale(X.trace() / 3)
    return j0_from_numerators(tag, *mat_vec(mr, xr, xi, md * xd, mi)) + shift
