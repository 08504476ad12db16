import json
from fractions import Fraction

import pytest

from jordanred import liealg, reductions
from jordanred.algebra import ALG_C, ALG_H, ALG_O, ALG_R, ALL_TAGS, AlgElement, qbilin
from jordanred.gaussrat import (GR_I, GR_ONE, GR_ZERO, GaussRational, from_numerators, gr,
                                mat_mat, to_numerators)
from jordanred.jordan import (JordanMatrix, SeveriClass, classify_severi, discriminant,
                              inner, jordan_mul, sigma1, sigma2)
from jordanred.liealg import (apply_j0_linear, bform_gram, bform_inverse, j0_numerators,
                              random_unipotent, so3a_basis, wedge_pairs)
from jordanred.reductions import (OrbitClass, ReductionLine, _wedge_numerators,
                                  available_orbits, classify_orbit,
                                  eval_cubic_ab, eval_cubic_theta, in_ker_pi,
                                  ker_pi_basis, ker_pi_dim, membership,
                                  omega_plucker, pi_functional_matrix, pi_pairings,
                                  pierce_from_roots, representative,
                                  severi_points_on_line, tangent_dim, z_representative)
from jordanred.sampling import (make_rng, random_member_line,
                                random_pierce_triple,
                                random_projected_rank_one, random_square_zero,
                                random_traceless)
from test_flat_kernels import mat_mul, pi_through_b_inverse, realized, ref_omega, vector_view
from test_hardening import TALL_LINES
from test_linalg import ref_nullspace

KER_PI_DIMS = {1: 7, 2: 20, 4: 70, 8: 273}

SEVERI_COUNTS = {
    OrbitClass.OPEN0: (3, 0, False),
    OrbitClass.CODIM1: (1, 1, False),
    OrbitClass.CODIM2: (0, 1, False),
    OrbitClass.CODIM4: (0, 0, True),
}


def diag_line(tag):
    return ReductionLine(JordanMatrix.diag(tag, 0, 1, -1),
                         JordanMatrix.diag(tag, 1, 0, -1))


def off_diag_perturbation(tag):
    zero = AlgElement.zero(tag)
    e = JordanMatrix(tag, (0, 0, 0), (AlgElement.basis(tag, 0), zero, zero))
    return ReductionLine(JordanMatrix.diag(tag, 0, 1, -1), e)


# -- membership --------------------------------------------------------------------


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_membership_of_representatives(tag):
    assert membership(diag_line(tag))
    for orbit in available_orbits(tag):
        assert membership(representative(tag, orbit)), orbit


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_membership_rejects_generic_perturbation(tag):
    assert not membership(off_diag_perturbation(tag))


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_membership_basis_invariance(tag):
    rng = make_rng()
    for orbit in available_orbits(tag):
        line = representative(tag, orbit)
        for _ in range(5):
            a, b = rng.randint(1, 3), rng.randint(-2, 2)
            c, d = rng.randint(-2, 2), rng.randint(1, 3)
            if a * d == b * c:
                d += 1
            assert membership(line.basis_change(a, b, c, d))
    bad = off_diag_perturbation(tag)
    assert not membership(bad.basis_change(1, 1, 0, 1))


def test_line_validation():
    tag = ALG_C
    with pytest.raises(ValueError):
        ReductionLine(JordanMatrix.diag(tag, 1, 0, 0),
                      JordanMatrix.diag(tag, 0, 1, -1))
    with pytest.raises(ValueError):
        ReductionLine(JordanMatrix.diag(tag, 0, 1, -1),
                      JordanMatrix.diag(tag, 0, 2, -2))
    with pytest.raises(ValueError):
        ReductionLine(JordanMatrix.diag(ALG_C, 0, 1, -1),
                      JordanMatrix.diag(ALG_H, 1, 0, -1))


# -- projection to so3(A) ------------------------------------------------------------


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_projection_vanishes_exactly_on_members(tag):
    """pi through B^-1 vanishes exactly when the pairings do and the line is a
    member: on every orbit representative moved by a unipotent automorphism,
    and on the open one with Y perturbed off the variety.  B pi gives back the
    pairings, and B^-1 B = I."""
    g = bform_gram(tag)
    n = len(g)
    zero, one = ((0,) * n,) * n, tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    assert mat_mat(bform_inverse(tag), (g, zero, 1)) == (one, zero, 1)
    u = random_unipotent(tag, make_rng(21 + ALL_TAGS.index(tag)), factors=2)
    reps = [representative(tag, orbit) for orbit in available_orbits(tag)]
    bad = ReductionLine(reps[0].X, reps[0].Y + off_diag_perturbation(tag).Y)
    for line, member in [(rep, True) for rep in reps] + [(bad, False)]:
        X, Y = (apply_j0_linear(tag, u, M) for M in (line.X, line.Y))
        w = _wedge_numerators(tag, j0_numerators(X), j0_numerators(Y))
        pairings = from_numerators(*zip(*pi_pairings(tag, *w[:2])), w[2])
        coeffs = vector_view(pi_through_b_inverse(X, Y))
        assert [sum((b * c for b, c in zip(row, coeffs)), GR_ZERO) for row in g] == pairings
        assert (not any(coeffs)) == in_ker_pi(tag, w) == membership(ReductionLine(X, Y)) \
            == member


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_membership_values_match_the_symbolic_action(tag):
    """The pi table contraction equals trace(X o (u_k Y)) with u_k applied
    slot-wise, independently of the realized matrices and of the table."""
    rng = make_rng(11)
    ops = so3a_basis(tag)
    for _ in range(2):
        x, y = random_traceless(tag, rng), random_traceless(tag, rng)
        re, im, d = _wedge_numerators(tag, j0_numerators(x), j0_numerators(y))
        vals = from_numerators(*zip(*pi_pairings(tag, re, im)), d)
        assert len(vals) == len(ops)
        for k, op in enumerate(ops):
            assert vals[k] == inner(x, op.apply(y))


def test_pi_table_rejects_a_non_skew_operator(monkeypatch):
    """The wedge fold needs G M_k skew; a non-orthogonal operator is refused."""
    n = 3 * ALG_R.dim + 2
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    liealg.pi_table.cache_clear()
    monkeypatch.setattr(liealg, "so3a_matrices", lambda tag: [identity])
    try:
        with pytest.raises(ArithmeticError):
            liealg.pi_table(ALG_R)
    finally:
        liealg.pi_table.cache_clear()


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_ker_pi_dimension(tag):
    n = 3 * tag.dim + 2
    assert len(wedge_pairs(tag)) == n * (n - 1) // 2
    assert ker_pi_dim(tag) == KER_PI_DIMS[tag.dim]
    basis = ker_pi_basis(tag)
    assert [vector_view(v) for v in basis] == \
        ref_nullspace(pi_functional_matrix(tag), len(wedge_pairs(tag)))
    # the kernel is real: its vectors share one all-zero imaginary tuple
    assert len({id(im) for _, im, _ in basis}) == 1 and not any(basis[0][1])


@pytest.mark.parametrize("tag", (ALG_R, ALG_C, ALG_H), ids=str)
def test_ker_pi_basis(tag):
    basis = ker_pi_basis(tag)
    assert len(basis) == KER_PI_DIMS[tag.dim]
    for v in basis[::5]:
        assert in_ker_pi(tag, v)


@pytest.mark.parametrize("tag", (ALG_C, ALG_H), ids=str)
def test_projection_equivariance(tag):
    """pi(uX ^ Y + X ^ uY) = [u, pi(X ^ Y)] on random samples."""
    rng = make_rng()
    ops = so3a_basis(tag)
    for _ in range(4):
        x = random_traceless(tag, rng)
        y = random_traceless(tag, rng)
        u = ops[rng.randrange(len(ops))]
        ux, uy = u.apply(x), u.apply(y)
        lhs = [[a + b for a, b in zip(ra, rb)] for ra, rb in
               zip(realized(tag, pi_through_b_inverse(ux, y)),
                   realized(tag, pi_through_b_inverse(x, uy)))]
        pi_xy = realized(tag, pi_through_b_inverse(x, y))
        umat = [[GaussRational(v) for v in row] for row in u.matrix]
        rhs_m = mat_mul(umat, pi_xy)
        rhs_s = mat_mul(pi_xy, umat)
        n = len(rhs_m)
        for i in range(n):
            for j in range(n):
                assert lhs[i][j] == rhs_m[i][j] - rhs_s[i][j]


# -- Pierce triples -------------------------------------------------------------------


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_pierce_from_roots_diagonal(tag):
    x = JordanMatrix.diag(tag, -1, 0, 1)
    tri = pierce_from_roots(x, (gr(-1), GR_ZERO, GR_ONE))
    assert tri.validate()
    assert tri.e1 == JordanMatrix.diag(tag, 1, 0, 0)
    assert tri.e2 == JordanMatrix.diag(tag, 0, 1, 0)
    assert tri.e3 == JordanMatrix.diag(tag, 0, 0, 1)


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_pierce_from_roots_random_conjugates(tag):
    rng = make_rng()
    for _ in range(3):
        g = random_unipotent(tag, rng, factors=2)
        x = apply_j0_linear(tag, g, JordanMatrix.diag(tag, -1, 0, 1))
        tri = pierce_from_roots(x, (gr(-1), GR_ZERO, GR_ONE))
        assert tri.validate()
        recon = tri.e1.scale(gr(-1)) + tri.e3
        assert recon == x


def test_pierce_from_roots_rejects_bad_roots():
    x = JordanMatrix.diag(ALG_C, -1, 0, 1)
    with pytest.raises(ValueError):
        pierce_from_roots(x, (gr(-1), gr(-1), GR_ONE))
    with pytest.raises(ValueError):
        pierce_from_roots(x, (gr(-2), GR_ZERO, GR_ONE))


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_omega_plucker(tag):
    # diagonal triple: the wedge of the two independent traceless diagonals
    tri = pierce_from_roots(JordanMatrix.diag(tag, -1, 0, 1),
                            (gr(-1), GR_ZERO, GR_ONE))
    omega = vector_view(omega_plucker(tri))
    assert omega == ref_omega(tri)
    assert any(not v.is_zero() for v in omega)
    d = from_numerators(*_wedge_numerators(tag, j0_numerators(JordanMatrix.diag(tag, 1, -1, 0)),
                                           j0_numerators(JordanMatrix.diag(tag, 0, 1, -1))))
    ratio = None
    for a, b in zip(omega, d):
        if b.is_zero():
            assert a.is_zero()
        else:
            r = a / b
            assert ratio is None or r == ratio
            ratio = r
    assert ratio is not None and not ratio.is_zero()
    assert in_ker_pi(tag, omega_plucker(tri))


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_omega_in_kernel_for_random_triples(tag):
    rng = make_rng()
    n = 20 if tag.dim <= 4 else 6
    for _ in range(n):
        tri = random_pierce_triple(tag, rng)
        omega = omega_plucker(tri)
        assert vector_view(omega) == ref_omega(tri)
        assert any(omega[0]) or any(omega[1])
        assert in_ker_pi(tag, omega)


# -- rank-one points on member lines ---------------------------------------------------


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
@pytest.mark.parametrize("orbit", list(SEVERI_COUNTS), ids=lambda o: o.value)
def test_severi_point_counts(tag, orbit):
    if orbit == OrbitClass.CODIM4 and tag.dim == 1:
        pytest.skip("closed orbit is empty for a = 1")
    rep = severi_points_on_line(representative(tag, orbit))
    expected = SEVERI_COUNTS[orbit]
    assert (rep.count_general(), rep.count_special(), rep.whole_line) == expected


def proportional(a, b):
    coords = list(zip([x for c in a.c for x in [c]], [x for c in b.c for x in [c]]))
    ratio = None
    for e, f in zip(a.x, b.x):
        coords.extend(zip(e.coords, f.coords))
    for u, v in coords:
        if u.is_zero() and v.is_zero():
            continue
        if u.is_zero() or v.is_zero():
            return False
        r = u / v
        if ratio is None:
            ratio = r
        elif r != ratio:
            return False
    return True


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_severi_points_of_diagonal_line_are_the_diagonal_units(tag):
    rep = severi_points_on_line(diag_line(tag))
    expected = [JordanMatrix.diag(tag, 1, 1, -2), JordanMatrix.diag(tag, 1, -2, 1),
                JordanMatrix.diag(tag, -2, 1, 1)]
    for want in expected:
        assert any(p.matrix is not None and proportional(p.matrix, want)
                   for p in rep.points), want


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_severi_points_of_codim1_line(tag):
    line = representative(tag, OrbitClass.CODIM1)
    rep = severi_points_on_line(line)
    special = [p for p in rep.points if p.special]
    general = [p for p in rep.points if not p.special]
    assert len(special) == 1 and proportional(special[0].matrix, line.X)
    assert len(general) == 1 and proportional(general[0].matrix, line.Y)


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_severi_points_on_open_lines(tag):
    """Three distinct points whose normalized rank-one lifts sum to I."""
    rng = make_rng()
    lines = [diag_line(tag)] + [random_member_line(tag, rng) for _ in range(2)]
    for line in lines:
        rep = severi_points_on_line(line)
        assert not rep.whole_line and len(rep.points) == 3
        assert len({p.param for p in rep.points if p.param}) == len(rep.points)
        total = JordanMatrix.zero(tag)
        for p in rep.points:
            assert not p.special
            m = p.matrix
            cls, s = classify_severi(m)
            assert cls == SeveriClass.PROJECTED_RANK_ONE
            lift = m + JordanMatrix.identity(tag).scale(s)
            total = total + lift.scale(GR_ONE / (3 * s))
        assert total == JordanMatrix.identity(tag)


def test_severi_points_requires_membership():
    with pytest.raises(ValueError):
        severi_points_on_line(off_diag_perturbation(ALG_C))
    with pytest.raises(ValueError):
        tangent_dim(off_diag_perturbation(ALG_C))
    with pytest.raises(ValueError):
        classify_orbit(off_diag_perturbation(ALG_C))


@pytest.mark.parametrize("orbit", [OrbitClass.OPEN0, OrbitClass.CODIM4],
                         ids=lambda o: o.value)
def test_severi_points_raise_when_a_point_is_off_the_locus(orbit, monkeypatch):
    """A point that fails the rank-one check is an arithmetic error, also
    under python -O (the check is not an assert)."""
    monkeypatch.setattr(reductions, "classify_severi",
                        lambda m: (SeveriClass.NONE, None))
    with pytest.raises(ArithmeticError):
        severi_points_on_line(representative(ALG_C, orbit))


@pytest.mark.parametrize("orbit", (OrbitClass.CODIM1, OrbitClass.CODIM4), ids=lambda o: o.value)
def test_each_entry_point_checks_membership_once(orbit, monkeypatch):
    """classify_orbit reaches the rank-one points without a second check."""
    calls = []
    real = reductions.membership
    monkeypatch.setattr(reductions, "membership", lambda line: calls.append(1) or real(line))
    line = representative(ALG_H, orbit)
    for entry in (classify_orbit, severi_points_on_line, tangent_dim):
        calls.clear()
        entry(line)
        assert len(calls) == 1, entry.__name__


# -- what a line remembers about itself ---------------------------------------------------

# The benchmark's order: membership, orbit, rank-one points, tangent dimension.
ENTRY_POINTS = (membership, classify_orbit, severi_points_on_line, tangent_dim)


def moved_representative(tag, orbit):
    """The orbit representative moved by a seeded unipotent and a basis change."""
    g = random_unipotent(tag, make_rng(31 + ALL_TAGS.index(tag)), factors=2)
    rep = representative(tag, orbit)
    return ReductionLine(apply_j0_linear(tag, g, rep.X),
                         apply_j0_linear(tag, g, rep.Y)).basis_change(2, -1, 1, 1)


@pytest.mark.parametrize("order", ("benchmark", "reverse"))
@pytest.mark.parametrize("tag, orbit", [(t, o) for t in ALL_TAGS for o in available_orbits(t)],
                         ids=lambda v: v.value if isinstance(v, OrbitClass) else str(v))
def test_a_line_computes_its_wedge_and_pencil_once(tag, orbit, order, monkeypatch):
    """Four entry points, each called twice, build the wedge and the pencil once,
    and every answer equals the answer on a freshly built line."""
    calls = {"_wedge_numerators": 0, "_pencil_polys": 0}

    def counted(name):
        real = getattr(reductions, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(reductions, name, counted(name))
    entries = ENTRY_POINTS if order == "benchmark" else ENTRY_POINTS[::-1]
    line = moved_representative(tag, orbit)
    first = [entry(line) for entry in entries]
    assert [entry(line) for entry in entries] == first
    assert calls == {"_wedge_numerators": 1, "_pencil_polys": 1}
    assert [entry(moved_representative(tag, orbit)) for entry in entries] == first
    assert first[entries.index(classify_orbit)] == orbit
    assert first[entries.index(tangent_dim)] == 3 * tag.dim


def test_the_rank_one_gcd_needs_both_pivots():
    """M = (1 - t, t, 0) and N = (1 - t, t, 1): the minors against pivot 0
    alone have gcd t - 1 and those against pivot 1 alone have gcd t, but all
    the minors together have gcd 1."""
    mc = [((1, -1), (0, 0)), ((0, 1), (0, 0)), ((0, 0), (0, 0))]
    nc = [((1, -1, 0), (0, 0, 0)), ((0, 1, 0), (0, 0, 0)), ((1, 0, 0), (0, 0, 0))]
    g = reductions._rank_one_gcd(mc, nc)
    assert g is not None and g.degree == 0


@pytest.mark.parametrize("orbit", available_orbits(ALG_O), ids=lambda o: o.value)
def test_an_octonion_line_forms_at_most_2n_minus_3_minors(orbit):
    line = moved_representative(ALG_O, orbit)
    mc, nc, _ = reductions._pencil_polys(line.X, line.Y)
    assert len(mc) == 26
    assert len(list(reductions._rank_one_minors(mc, nc))) <= 2 * 26 - 3


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_a_non_member_raises_from_every_entry_point_on_every_call(tag):
    line = off_diag_perturbation(tag)
    for _ in range(2):
        assert membership(line) is False
        for entry in ENTRY_POINTS[1:]:
            with pytest.raises(ValueError):
                entry(line)


@pytest.mark.parametrize("orbit", [OrbitClass.OPEN0, OrbitClass.CODIM4],
                         ids=lambda o: o.value)
def test_a_rank_one_search_that_raised_is_not_remembered(orbit, monkeypatch):
    line = representative(ALG_C, orbit)
    with monkeypatch.context() as patch:
        patch.setattr(reductions, "classify_severi", lambda m: (SeveriClass.NONE, None))
        for _ in range(2):
            with pytest.raises(ArithmeticError):
                severi_points_on_line(line)
    rep = severi_points_on_line(line)
    assert (rep.count_general(), rep.count_special(), rep.whole_line) == SEVERI_COUNTS[orbit]
    assert classify_orbit(line) == orbit


def test_the_spanning_matrices_are_read_only():
    line = representative(ALG_C, OrbitClass.CODIM1)
    X, Y = line.X, line.Y
    assert membership(line)
    for name in ("X", "Y"):
        with pytest.raises(AttributeError):
            setattr(line, name, X + Y)
    assert line.X is X and line.Y is Y
    moved = line.basis_change(1, 1, 0, 1)
    assert moved is not line and (moved.X, moved.Y) == (X + Y, Y)
    assert classify_orbit(moved) == OrbitClass.CODIM1


def square_line(x):
    """span{X, X o X - (Q/3) I}: a member for every traceless X.

    The pairing with u(X^2) collapses through the derivation rule, skewness
    and the associativity of the trace form, so all membership conditions
    vanish identically.
    """
    tag = x.tag
    from jordanred.jordan import inner

    q = inner(x, x)
    y = jordan_mul(x, x) - JordanMatrix.identity(tag).scale(q / 3)
    return ReductionLine(x, y)


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_square_lines_are_members(tag):
    rng = make_rng()
    for _ in range(5):
        x = random_traceless(tag, rng)
        try:
            line = square_line(x)
        except ValueError:
            continue  # degenerate span
        assert membership(line)


def test_severi_points_irrational_triple():
    """A member line whose rank-one points are conjugate over a cubic field.

    The traceless symmetric matrix with off-diagonal entries (3, 4, 5i) has
    characteristic cubic t^3 - 120i, irreducible over Q(i); the three
    rank-one points of its square-line are permuted by the Galois group and
    are reported as a single extension point of degree 3.
    """
    tag = ALG_R
    e = AlgElement.one(tag)
    x = JordanMatrix(tag, (0, 0, 0),
                     (e.scale(gr(3)), e.scale(gr(4)), e.scale(gr(0, 5))))
    line = square_line(x)
    assert membership(line)
    assert classify_orbit(line) == OrbitClass.OPEN0
    rep = severi_points_on_line(line)
    assert not rep.whole_line
    assert rep.count_general() == 3 and rep.count_special() == 0
    assert any(p.param is None and p.extension_degree == 3 for p in rep.points)


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
@pytest.mark.parametrize("orbit", list(SEVERI_COUNTS), ids=lambda o: o.value)
def test_orbit_classification(tag, orbit):
    if orbit == OrbitClass.CODIM4 and tag.dim == 1:
        pytest.skip("closed orbit is empty for a = 1")
    assert classify_orbit(representative(tag, orbit)) == orbit


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_classification_invariant_under_diagonal_automorphisms(tag):
    for orbit in available_orbits(tag):
        line = representative(tag, orbit)
        for sg in (sigma1, sigma2):
            moved = ReductionLine(sg(line.X), sg(line.Y))
            assert membership(moved)
            assert classify_orbit(moved) == orbit


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_classification_invariant_under_unipotents(tag):
    rng = make_rng()
    g = random_unipotent(tag, rng, factors=2)
    for orbit in available_orbits(tag):
        line = representative(tag, orbit)
        moved = ReductionLine(apply_j0_linear(tag, g, line.X),
                              apply_j0_linear(tag, g, line.Y))
        assert membership(moved)
        assert classify_orbit(moved) == orbit


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_the_discriminant_vanishes_on_exactly_the_non_open_lines(tag):
    """The degree-6 discriminant restricted to a member line vanishes
    identically, checked at Y and at 6 parameters of X + tY, exactly when
    the line is not in the open orbit: an oracle for `classify_orbit`, which
    reads the rank-one points only.  Every orbit's representative, moved and
    unmoved, and the tall open lines."""
    lines = [make(tag, orbit) for orbit in available_orbits(tag)
             for make in (representative, moved_representative)]
    lines += [representative(tag, OrbitClass.OPEN0).basis_change(*entries)
              for t, entries in TALL_LINES if t == tag]
    for line in lines:
        X, Y = line.X, line.Y
        vanishes = all(discriminant(M).is_zero()
                       for M in [Y] + [X + Y.scale(t) for t in (0, 1, -1, 2, -2, 3)])
        assert vanishes == (classify_orbit(line) != OrbitClass.OPEN0)


# -- tangent spaces ----------------------------------------------------------------------


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_tangent_dimension_is_3a_everywhere(tag):
    for orbit in available_orbits(tag):
        assert tangent_dim(representative(tag, orbit)) == 3 * tag.dim


def test_tangent_dimension_open_orbit_a2():
    assert tangent_dim(diag_line(ALG_C)) == 6


# -- cubic forms ---------------------------------------------------------------------------


def diag_theta(tag):
    """The wedge of the first two projected diagonal idempotents."""
    tri = pierce_from_roots(JordanMatrix.diag(tag, -1, 0, 1),
                            (gr(-1), GR_ZERO, GR_ONE))
    return to_numerators([v / 3 for v in vector_view(omega_plucker(tri))])


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_cubic_vanishes_on_projected_rank_one(tag):
    rng = make_rng()
    theta = diag_theta(tag)
    for _ in range(30):
        x = random_projected_rank_one(tag, rng)
        assert eval_cubic_theta(tag, theta, x).is_zero()
    for _ in range(20):
        x = random_square_zero(tag, rng)
        assert eval_cubic_theta(tag, theta, x).is_zero()


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_cubic_nonzero_off_the_locus(tag):
    theta = diag_theta(tag)
    zero = AlgElement.zero(tag)
    e = AlgElement.basis(tag, 0)
    x = JordanMatrix(tag, (0, 0, 0), (e, e, e)) + JordanMatrix.diag(tag, 1, 1, -2)
    vals = [eval_cubic_theta(tag, theta, x + JordanMatrix.diag(tag, 0, t, -t))
            for t in range(3)]
    assert any(not v.is_zero() for v in vals)


@pytest.mark.parametrize("tag", (ALG_C, ALG_H, ALG_O), ids=str)
def test_cubic_tangent_value(tag):
    """On the tangent vector with parameters (u, v) the diagonal-line cubic
    evaluates to -(2/3) i u_0 q(Im u)."""
    rng = make_rng()
    theta = diag_theta(tag)
    from jordanred.sampling import random_element

    for _ in range(8):
        u = random_element(tag, rng)
        v = random_element(tag, rng)
        u0 = u.re()
        x = JordanMatrix(tag, (-GR_I * u0, GR_I * u0, GR_ZERO),
                         (v.scale(GR_I), v.conj(), u))
        im_u = u - AlgElement.scalar(tag, u0)
        expected = -(gr(2) / 3) * GR_I * u0 * qbilin(im_u, im_u)
        assert eval_cubic_theta(tag, theta, x) == expected
        # linear in theta and cubic in x, over other denominators
        lam = gr(1, 2) / 3
        theta_5 = to_numerators([v / 5 for v in vector_view(theta)])
        assert eval_cubic_theta(tag, theta_5, x.scale(lam)) == \
            expected * lam ** 3 / 5


def test_cubic_theta_requires_kernel_element():
    tag = ALG_C
    pairs = wedge_pairs(tag)
    theta = [GR_ZERO] * len(pairs)
    theta[pairs.index((0, 2))] = GR_ONE
    theta = to_numerators(theta)
    assert not in_ker_pi(tag, theta)
    with pytest.raises(ValueError):
        eval_cubic_theta(tag, theta, JordanMatrix.diag(tag, 1, 1, -2))


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_cubic_ab_vanishes_on_square_zero(tag):
    rng = make_rng()
    for _ in range(20):
        x = random_square_zero(tag, rng)
        a = random_traceless(tag, rng)
        b = random_traceless(tag, rng)
        assert eval_cubic_ab(a, b, x).is_zero()
    with pytest.raises(ValueError):
        eval_cubic_ab(JordanMatrix.identity(tag), random_traceless(tag, rng),
                      random_traceless(tag, rng))


# -- serialization ----------------------------------------------------------------------


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_line_json_round_trip(tag):
    line = representative(tag, OrbitClass.CODIM1)
    blob = json.dumps(line.to_json())
    back = ReductionLine.from_json(json.loads(blob))
    assert back.X == line.X and back.Y == line.Y


def test_z_representative_shape():
    for tag in ALL_TAGS:
        z = z_representative(tag)
        assert jordan_mul(z, z).is_zero()
        assert classify_severi(z)[0] == SeveriClass.SQUARE_ZERO


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_line_rejects_proportional_pairs_over_different_denominators(tag):
    lam = gr(Fraction(1, 3), Fraction(2, 3))
    for orbit in available_orbits(tag):
        rep = representative(tag, orbit)
        X = rep.X.scale(Fraction(1, 5)) + rep.Y
        Y = X.scale(lam)
        assert X.d != Y.d
        for pair in ((X, Y), (Y, X)):
            with pytest.raises(ValueError):
                ReductionLine(*pair)
        line = ReductionLine(X, Y + rep.Y.scale(Fraction(2, 7)))
        assert membership(line)
        assert classify_orbit(line) == orbit
