"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every expected value is pinned here exactly; nothing is deferred to later
calibration.  Criterion 3 asserts the Bott integrals of Y_2 that the paper's
theorem forces: Y_a is Fano of index a + 1, so the c_1 integral is (a + 1)
times the degree, and the Euler data of the Calabi-Yau linear section follow
by adjunction.  The source table prints that c_1 integral with the wrong sign
and carries the sign into its Euler number and b_3; criterion 3 keeps the
printed triple as a constant and asserts that Riemann-Roch refutes it.  The
CLI reports still compare against the table as printed and flag those three
checks.  See README, "A deliberate red flag", and tests/test_bott.py for the
independent cross-checks.
"""

from jordanred.algebra import ALL_TAGS
from jordanred.bott import WeightVector, enumerate_fixed_points, localize, staircase_tangent_char
from jordanred.chow import blowup_intersection, degree_y2_blowup, degree_y2_hilb, topology
from jordanred.cli import (build_lie_dims, build_orbits, build_properties,
                           build_verify_algebra, build_verify_jordan)


def build_orbits_suite(seed):
    return build_orbits(None, None, seed)
from jordanred.liealg import so3a_basis, so3a_rank, triality_basis
from jordanred.reductions import (OrbitClass, available_orbits, classify_orbit,
                                  ker_pi_dim, membership, representative,
                                  severi_points_on_line, tangent_dim)


def report(num, name, ok, detail=""):
    line = "ACCEPTANCE %d [%s]: %s%s" % (num, name, "PASS" if ok else "FAIL",
                                         (" -- " + detail) if detail else "")
    print(line)
    assert ok, line


DEGREE_Y2 = 57


def test_criterion_1_degree_both_routes():
    blow = degree_y2_blowup()
    hilb = degree_y2_hilb()
    report(1, "degree 57 by the blow-up and Hilbert-scheme routes",
           blow == DEGREE_Y2 and hilb == DEGREE_Y2,
           "blowup=%d hilb=%d" % (blow, hilb))


def test_criterion_2_blowup_numbers():
    got = [blowup_intersection(7 - k, k) for k in range(7)]
    report(2, "blow-up intersection numbers",
           got == [1, 0, 0, 6, 30, 96, 246], str(got))


# Criterion 3.  The source table prints the c3, c2 and c1 integrals of Y_2 as
# (243, 261, -171), with Euler number -2136 and b_3 = 2140 for the Calabi-Yau
# section.  The c3 and c2 integrals are kept as printed; the c1 integral and
# the two numbers derived from it carry a sign misprint.
INDEX_Y2 = 2 + 1  # Y_a is Fano of index a + 1; here a = 2
SOURCE_C3_INTEGRAL = 243
SOURCE_C2_INTEGRAL = 261
PRINTED_MISPRINTS = (-171, -2136, 2140)  # c1 integral, euler, b3
H0_OC1 = 20 - 3  # h^0(O_C(1)): the section C spans P^16 inside P^19


def euler_of_section(i0, i1, i2, i3):
    """e(C) for C = Y_2 cut by three hyperplanes: c(C) = c(Y_2)/(1 + l)^3."""
    return i3 - 3 * i2 + 6 * i1 - 10 * i0


def chi_section_twelfths(i0, i1, i2):
    """12 chi(O_C(1)) by Riemann-Roch on the Calabi-Yau threefold C.

    chi(O_C(1)) = l^3/6 + c_2(C) l/12 with l^3 = i0 and
    c_2(C) l = i2 - 3 i1 + 6 i0, that is (8 i0 + i2 - 3 i1)/12.
    """
    return 8 * i0 + i2 - 3 * i1


def test_criterion_3_bott_localization():
    """Bott localization at (0,1,3) reproduces the integrals index 3 forces.

    c_1(Y_2) = 3l gives I1 = 3 * 57 = 171; adjunction then gives e = -84 and
    b_3 = 4 - e = 88 (h^{1,1} = 1).  A second weight vector must agree.  The
    printed (-171, -2136, 2140) is asserted refuted: -171 makes chi(O_C(1))
    a non-integer, and flipping the sign of I1 in the adjunction formula
    reproduces exactly the printed Euler number and b_3.
    """
    i0, i2, i3 = DEGREE_Y2, SOURCE_C2_INTEGRAL, SOURCE_C3_INTEGRAL
    i1 = INDEX_Y2 * i0
    euler = euler_of_section(i0, i1, i2, i3)
    assert chi_section_twelfths(i0, i1, i2) == 12 * H0_OC1

    printed_i1, printed_euler, printed_b3 = PRINTED_MISPRINTS
    assert printed_i1 == -i1
    assert chi_section_twelfths(i0, printed_i1, i2) % 12 != 0
    assert euler_of_section(i0, printed_i1, i2, i3) == printed_euler
    assert 4 - printed_euler == printed_b3

    rep = localize(WeightVector(0, 1, 3))
    second = localize(WeightVector(0, 1, 5))
    expected = {"l^6": (i0, rep.integrals[0]),
                "c1 integral": (i1, rep.integrals[1]),
                "c2 integral": (i2, rep.integrals[2]),
                "c3 integral": (i3, rep.integrals[3]),
                "euler": (euler, rep.euler_cy), "b3": (4 - euler, rep.b3),
                "second weight vector agrees": (list(rep.integrals),
                                                list(second.integrals))}
    mismatches = ["%s: expected %s, computed %s" % (k, e, g)
                  for k, (e, g) in expected.items() if e != g]
    report(3, "Bott localization at (0,1,3)", not mismatches,
           "; ".join(mismatches) or "index-3 integrals reproduced; "
           "printed %s refuted" % (PRINTED_MISPRINTS,))


def test_criterion_4_lie_dimensions():
    t_dims = [len(triality_basis(t)) for t in ALL_TAGS]
    so_dims = [len(so3a_basis(t)) for t in ALL_TAGS]
    ranks = [so3a_rank(t) for t in ALL_TAGS]
    u_dims = [ker_pi_dim(t) for t in ALL_TAGS]
    # The criterion's triality dimensions are (0, 2, 9, 28): the quaternion
    # entry is forced to 9 by the same criterion's so3(A) dimension 21 = 9 + 12
    # (a "6" would contradict it and the worked sizes elsewhere).
    ok = (t_dims == [0, 2, 9, 28] and so_dims == [3, 8, 21, 52]
          and ranks == so_dims and u_dims == [7, 20, 70, 273])
    report(4, "Lie-algebra dimensions by exact rank", ok,
           "t=%s so3=%s U=%s" % (t_dims, so_dims, u_dims))


COUNTS = {OrbitClass.OPEN0: (3, 0, False), OrbitClass.CODIM1: (1, 1, False),
          OrbitClass.CODIM2: (0, 1, False), OrbitClass.CODIM4: (0, 0, True)}


def test_criterion_5_orbit_suite():
    ok = True
    details = []
    for tag in ALL_TAGS:
        for orbit in available_orbits(tag):
            line = representative(tag, orbit)
            member = membership(line)
            cls = classify_orbit(line)
            pts = severi_points_on_line(line)
            got = (pts.count_general(), pts.count_special(), pts.whole_line)
            if not member or cls != orbit or got != COUNTS[orbit]:
                ok = False
                details.append("%s/%s: member=%s class=%s counts=%s" %
                               (tag, orbit.value, member, cls.value, got))
    report(5, "orbit representatives: membership, class, rank-one counts", ok,
           "; ".join(details) or "all four orbits for every algebra")


def test_criterion_6_smoothness_suite():
    ok = True
    details = []
    for tag in ALL_TAGS:
        for orbit in available_orbits(tag):
            dim = tangent_dim(representative(tag, orbit))
            details.append("%s/%s: %d" % (tag, orbit.value, dim))
            if dim != 3 * tag.dim:
                ok = False
    report(6, "tangent dimension 3a at every representative", ok,
           "; ".join(details))


def test_criterion_7_topology_suite():
    tables = {
        1: (1, 1, 1, 1),
        2: (1, 1, 3, 3, 3, 1, 1),
        4: (1, 1, 2, 3, 4, 5, 5, 5, 4, 3, 2, 1, 1),
        8: (1, 1, 2, 2, 3, 4, 5, 6, 7, 8, 8, 9, 9, 9, 8, 8, 7, 6, 5, 4, 3,
            2, 2, 1, 1),
    }
    eulers = {1: 4, 2: 13, 4: 37, 8: 121}
    ok = True
    for a in (1, 2, 4, 8):
        table, euler, fc = topology(a)
        if table != tables[a] or euler != eulers[a]:
            ok = False
        if a >= 2 and fc != 3 * a * a // 2 + 3 * a + 1:
            ok = False
        if fc != euler:
            ok = False
    report(7, "Betti tables, Euler characteristics, fixed-point counts", ok)


def test_criterion_8_property_suites():
    seed = 20570
    suites = {
        "algebra": build_verify_algebra(None, seed),
        "jordan": build_verify_jordan(None, seed),
        "lie": build_lie_dims(seed),
        "orbits": build_orbits_suite(seed),
        "cross-module": build_properties(seed),
    }
    failures = ["%s: %s" % (label, c.name)
                for label, r in suites.items() for c in r.checks if not c.ok]
    report(8, "seeded property campaigns run with zero failures",
           not failures, "; ".join(failures) or
           "%d checks" % sum(len(r.checks) for r in suites.values()))


def test_criterion_9_staircase_oracle():
    pts = enumerate_fixed_points()
    ok = len(pts) == 22 and all(
        staircase_tangent_char(p.supports) == p.tangent_char for p in pts)
    report(9, "staircase characters equal the tabulated ones symbolically",
           ok, "22 fixed points")
