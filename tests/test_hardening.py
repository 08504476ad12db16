"""Robustness checks beyond the golden representatives: reversed spanning
pairs, transported lines, mixed-parameter configurations and the octonion
equivariance sample."""

import signal
from contextlib import contextmanager

import pytest

from jordanred.algebra import ALG_O, ALG_R, ALL_TAGS, AlgElement
from jordanred.gaussrat import GR_ONE, GR_ZERO, GaussRational
from jordanred.jordan import JordanMatrix, jordan_mul
from jordanred.liealg import apply_j0_linear, random_unipotent, so3a_basis
from jordanred.reductions import (OrbitClass, ReductionLine, available_orbits,
                                  classify_orbit, membership, representative,
                                  severi_points_on_line, tangent_dim)
from jordanred.sampling import make_rng, random_member_line, random_traceless
from test_flat_kernels import mat_mul, pi_through_b_inverse, realized

COUNTS = {OrbitClass.OPEN0: (3, 0, False), OrbitClass.CODIM1: (1, 1, False),
          OrbitClass.CODIM2: (0, 1, False), OrbitClass.CODIM4: (0, 0, True)}


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_reversed_spanning_pairs(tag):
    """Counts and classes cannot depend on the order of the spanning pair."""
    for orbit in available_orbits(tag):
        line = representative(tag, orbit)
        swapped = ReductionLine(line.Y, line.X)
        assert membership(swapped)
        assert classify_orbit(swapped) == orbit
        pts = severi_points_on_line(swapped)
        assert (pts.count_general(), pts.count_special(), pts.whole_line) == \
            COUNTS[orbit]
        assert tangent_dim(swapped) == 3 * tag.dim


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_transported_lines_keep_all_invariants(tag):
    rng = make_rng(99)
    g = random_unipotent(tag, rng, factors=3)
    for orbit in available_orbits(tag):
        line = representative(tag, orbit)
        moved = ReductionLine(apply_j0_linear(tag, g, line.X),
                              apply_j0_linear(tag, g, line.Y))
        assert membership(moved)
        assert classify_orbit(moved) == orbit
        pts = severi_points_on_line(moved)
        assert (pts.count_general(), pts.count_special(), pts.whole_line) == \
            COUNTS[orbit]
        assert tangent_dim(moved) == 3 * tag.dim


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_line_through_two_rank_one_projections(tag):
    """Both spanning matrices already on the locus; the third point appears."""
    line = ReductionLine(JordanMatrix.diag(tag, 1, 1, -2),
                         JordanMatrix.diag(tag, 1, -2, 1))
    assert membership(line)
    assert classify_orbit(line) == OrbitClass.OPEN0
    pts = severi_points_on_line(line)
    assert pts.count_general() == 3 and pts.count_special() == 0


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_sheared_bases_of_member_lines(tag):
    rng = make_rng(7)
    for orbit in available_orbits(tag):
        line = representative(tag, orbit)
        for _ in range(3):
            a, b = rng.randint(1, 2), rng.randint(-2, 2)
            c, d = rng.randint(-2, 2), rng.randint(1, 2)
            if a * d == b * c:
                continue
            sheared = line.basis_change(a, b, c, d)
            pts = severi_points_on_line(sheared)
            assert (pts.count_general(), pts.count_special(),
                    pts.whole_line) == COUNTS[orbit]


def test_projection_equivariance_octonions():
    """One full equivariance sample in the largest algebra."""
    tag = ALG_O
    rng = make_rng(5)
    ops = so3a_basis(tag)
    x, y = random_traceless(tag, rng), random_traceless(tag, rng)
    u = ops[17]
    ux, uy = u.apply(x), u.apply(y)
    lhs = [[a + b for a, b in zip(ra, rb)] for ra, rb in
           zip(realized(tag, pi_through_b_inverse(ux, y)),
               realized(tag, pi_through_b_inverse(x, uy)))]
    pi_xy = realized(tag, pi_through_b_inverse(x, y))
    umat = [[GaussRational(v) for v in row] for row in u.matrix]
    comm_l = mat_mul(umat, pi_xy)
    comm_r = mat_mul(pi_xy, umat)
    n = len(lhs)
    for i in range(n):
        for j in range(n):
            assert lhs[i][j] == comm_l[i][j] - comm_r[i][j]


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_random_member_lines_full_surface(tag):
    rng = make_rng(2024)
    for _ in range(2):
        line = random_member_line(tag, rng)
        assert membership(line)
        assert classify_orbit(line) == OrbitClass.OPEN0
        pts = severi_points_on_line(line)
        assert pts.count_general() == 3 and pts.count_special() == 0
        assert tangent_dim(line) == 3 * tag.dim


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_scaled_representatives(tag):
    """Integer rescalings of the spanning matrices change nothing."""
    for orbit in available_orbits(tag):
        line = representative(tag, orbit)
        scaled = ReductionLine(line.X.scale(GaussRational(-3)), line.Y.scale(GaussRational(2, 1)))
        assert membership(scaled)
        assert classify_orbit(scaled) == orbit


@pytest.mark.parametrize("tag", ALL_TAGS, ids=str)
def test_square_line_points_are_the_pierce_projections(tag):
    """For diagonalizable X, the rank-one points of span{X, X^2 - (Q/3) I}
    are precisely the projected Lagrange projectors of X."""
    from jordanred.jordan import inner
    from jordanred.reductions import pierce_from_roots

    def proportional(a, b):
        pairs = list(zip(a.c, b.c))
        for e, f in zip(a.x, b.x):
            pairs.extend(zip(e.coords, f.coords))
        ratio = None
        for u, v in pairs:
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

    rng = make_rng(31)
    g = random_unipotent(tag, rng, factors=2)
    x = apply_j0_linear(tag, g, JordanMatrix.diag(tag, -1, 0, 1))
    tri = pierce_from_roots(x, (GaussRational(-1), GR_ZERO, GR_ONE))
    q = inner(x, x)
    y = jordan_mul(x, x) - JordanMatrix.identity(tag).scale(q / 3)
    line = ReductionLine(x, y)
    assert membership(line)
    pts = severi_points_on_line(line)
    assert pts.count_general() == 3
    ident = JordanMatrix.identity(tag)
    for e in tri.members():
        projected = e - ident.scale(GR_ONE / 3)
        assert any(p.matrix is not None and proportional(p.matrix, projected)
                   for p in pts.points), e


# Open lines with tall entries: the plane of representative(tag, OPEN0) in the
# basis (aX + bY, cX + dY).  Their three rank-one points are the rational
# roots of a real cubic with tall coefficients.
TALL = 10 ** 18
TALL_LINES = [(ALG_R, (720720, 1, 1, 367567201)),
              (ALG_R, (TALL + 3, 1, 1, TALL + 9)),
              (ALG_O, (TALL + 3, 1, 1, TALL + 9))]
TALL_LINE_BUDGET_S = 2


@contextmanager
def time_budget(seconds):
    """Raise TimeoutError in the body once `seconds` of wall time have passed."""
    def expire(signum, frame):
        raise TimeoutError("over the %s s budget" % seconds)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("tag, entries", TALL_LINES, ids=["R-720720", "R-1e18", "O-1e18"])
def test_tall_open_lines_classify_within_the_budget(tag, entries):
    line = representative(tag, OrbitClass.OPEN0).basis_change(*entries)
    with time_budget(TALL_LINE_BUDGET_S):
        assert classify_orbit(line) == OrbitClass.OPEN0
        pts = severi_points_on_line(line)
    assert (pts.count_general(), pts.count_special(), pts.whole_line) == (3, 0, False)
