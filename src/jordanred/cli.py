"""Command-line verification campaigns with machine-readable reports.

Every subcommand assembles a deterministic list of checks (name, expected,
computed, pass, provenance tag) and renders it as JSON or text.  Exit status
is 0 when every check passes, 1 when any fails, 2 on usage or parse errors.
Randomized property checks draw from a seeded generator recorded in the
report header, so identical invocations produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional

from . import bott as bott_mod
from . import chow
from .algebra import ALL_TAGS, AlgElement, qbilin, tag_by_name
from .gaussrat import GR_ONE, GR_ZERO, GaussRational, to_numerators
from .jordan import (JordanMatrix, cayley_hamilton_residual,
                     classify_severi, det, det3, discriminant, inner,
                     is_rank_one, jordan_mul, jordan_mul_full, rank_one_lift,
                     sigma1, sigma2, trace_forms)
from .liealg import (bracket_in_span, so3a_basis, so3a_rank, stabilizer_dims,
                     triality_basis, triality_identity_holds)
from .linalg import rank
from .reductions import (OrbitClass, ReductionLine, available_orbits,
                         classify_orbit, eval_cubic_ab, eval_cubic_theta,
                         in_ker_pi, ker_pi_dim, membership, omega_plucker,
                         pierce_from_roots, representative,
                         severi_points_on_line, tangent_dim, z_representative)
from .sampling import (DEFAULT_SEED, make_rng, random_element, random_jordan,
                       random_member_line, random_pierce_triple,
                       random_projected_rank_one, random_square_zero,
                       random_traceless)

SCHEMA = "1"

# Fixed property-campaign sample counts, recorded in every report header.
# Two campaigns use counts that the header does not record: associativity
# draws 20 triples and the diagonal-permutation automorphisms 10 pairs.
SAMPLES = {
    "unit_law": 20,
    "composition_random": 100,
    "conj_random": 50,
    "jordan_identity": 50,
    "cayley_hamilton": 100,
    "discriminant_oracle": 200,
    "derivation_pairs": 20,
    "bracket_samples": 40,
    "cubic_vanishing": 30,
    "square_zero_vanishing": 20,
    "membership_basis_invariance": 5,
}


@dataclass
class Check:
    name: str
    expected: object
    computed: object
    ok: bool
    tag: str  # provenance: "reference", "derived" or "trivial"

    def to_json(self):
        return {"name": self.name, "expected": self.expected,
                "computed": self.computed, "pass": self.ok, "tag": self.tag}


@dataclass
class Report:
    command: str
    parameters: dict
    checks: List[Check] = field(default_factory=list)
    result: Optional[dict] = None

    def add(self, name, expected, computed, tag):
        expected, computed = _plain(expected), _plain(computed)
        self.checks.append(Check(name, expected, computed, expected == computed, tag))

    def add_bool(self, name, computed, tag):
        self.add(name, True, bool(computed), tag)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json(self):
        payload = {"schema": SCHEMA, "command": self.command,
                   "parameters": self.parameters}
        if self.result is not None:
            payload.update(self.result)
        payload["checks"] = [c.to_json() for c in self.checks]
        payload["pass"] = self.ok
        return payload

    def render(self, as_json: bool) -> str:
        if as_json:
            return json.dumps(self.to_json(), indent=2)
        lines = ["# %s" % self.command,
                 "parameters: %s" % json.dumps(self.parameters)]
        for c in self.checks:
            status = "ok  " if c.ok else "FAIL"
            lines.append("[%s] (%s) %s: %s" % (status, c.tag, c.name,
                                               json.dumps(c.computed))
                         + ("" if c.ok else "  expected %s" % json.dumps(c.expected)))
        lines.append("overall: %s (%d/%d)" % ("pass" if self.ok else "FAIL",
                                              sum(c.ok for c in self.checks),
                                              len(self.checks)))
        return "\n".join(lines)


def _plain(v):
    """Canonical JSON-able rendering of computed values."""
    if isinstance(v, GaussRational):
        return v.to_json()
    if isinstance(v, bool) or v is None or isinstance(v, (int, str)):
        return v
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, dict):
        return {str(k): _plain(x) for k, x in v.items()}
    return repr(v)


def _tags_for(name: Optional[str]):
    if name is None or name == "all":
        return ALL_TAGS
    return (tag_by_name(name),)


# -- verify-algebra ------------------------------------------------------------


def build_verify_algebra(algebra: Optional[str], seed: int) -> Report:
    rep = Report("verify-algebra", {"algebra": algebra or "all", "seed": seed,
                                    "samples": SAMPLES})
    for tag in _tags_for(algebra):
        rng = make_rng(seed)
        a = tag.dim
        one = AlgElement.one(tag)
        units = [random_element(tag, rng) for _ in range(SAMPLES["unit_law"])]
        rep.add_bool("%s: 1 is a two-sided unit (random)" % tag,
                     all(one * x == x and x * one == x for x in units), "trivial")
        ok = all(qbilin(ei * ej, ei * ej) ==
                 qbilin(ei, ei) * qbilin(ej, ej)
                 for i in range(a) for j in range(a)
                 for ei in (AlgElement.basis(tag, i),)
                 for ej in (AlgElement.basis(tag, j),))
        rep.add_bool("%s: composition law over basis pairs" % tag, ok, "reference")
        pairs = [(random_element(tag, rng), random_element(tag, rng))
                 for _ in range(SAMPLES["composition_random"])]
        ok = all(qbilin(x * y, x * y) == qbilin(x, x) * qbilin(y, y) for x, y in pairs)
        rep.add_bool("%s: composition law (random)" % tag, ok, "reference")
        basis = [AlgElement.basis(tag, k) for k in range(a)]
        ok = all((x * x) * y == x * (x * y) and (y * x) * x == y * (x * x)
                 for x in basis for y in basis)
        rep.add_bool("%s: alternativity over basis" % tag, ok, "derived")
        conjugated = [random_element(tag, rng) for _ in range(SAMPLES["conj_random"])]
        ok = all(x * x.conj() == AlgElement.scalar(tag, qbilin(x, x))
                 and x.conj().conj() == x for x in conjugated)
        rep.add_bool("%s: x conj(x) = q(x) and conj is an involution" % tag,
                     ok, "trivial")
        ok = all((x * y).conj() == y.conj() * x.conj() for x in basis for y in basis)
        rep.add_bool("%s: conj(xy) = conj(y) conj(x) over basis" % tag, ok, "derived")
        if a <= 4:
            triples = [(random_element(tag, rng), random_element(tag, rng),
                        random_element(tag, rng)) for _ in range(20)]
            rep.add_bool("%s: associativity (random)" % tag,
                         all((x * y) * z == x * (y * z) for x, y, z in triples), "derived")
        else:
            e1, e2, e4 = basis[1], basis[2], basis[4]
            rep.add_bool("%s: an associator does not vanish" % tag,
                         (e1 * e2) * e4 != e1 * (e2 * e4), "derived")
    return rep


# -- verify-jordan ---------------------------------------------------------------


def build_verify_jordan(algebra: Optional[str], seed: int) -> Report:
    rep = Report("verify-jordan", {"algebra": algebra or "all", "seed": seed,
                                   "samples": SAMPLES})
    for tag in _tags_for(algebra):
        rng = make_rng(seed)
        ident = JordanMatrix.identity(tag)
        X = random_jordan(tag, rng)
        rep.add_bool("%s: I o A = A" % tag, jordan_mul(ident, X) == X, "trivial")
        rep.add_bool("%s: diagonal products multiply entrywise" % tag,
                     jordan_mul(JordanMatrix.diag(tag, 2, 3, 5),
                                JordanMatrix.diag(tag, 7, 1, -1))
                     == JordanMatrix.diag(tag, 14, 3, -5), "trivial")
        pairs = [(random_jordan(tag, rng), random_jordan(tag, rng))
                 for _ in range(SAMPLES["jordan_identity"])]
        rep.add_bool("%s: product agrees with the full-matrix oracle" % tag,
                     all(jordan_mul(A, B) == jordan_mul_full(A, B) for A, B in pairs),
                     "derived")
        ok = all(jordan_mul(jordan_mul(A, B), AA) == jordan_mul(A, jordan_mul(B, AA))
                 for A, B in pairs for AA in (jordan_mul(A, A),))
        rep.add_bool("%s: Jordan identity (random)" % tag, ok, "reference")
        matrices = [random_jordan(tag, rng) for _ in range(SAMPLES["cayley_hamilton"])]
        rep.add_bool("%s: Cayley-Hamilton residual vanishes" % tag,
                     all(cayley_hamilton_residual(A).is_zero() for A in matrices),
                     "reference")
        t, q, qp = trace_forms(JordanMatrix.diag(tag, 0, 1, -1))
        rep.add("%s: trace forms of diag(0,1,-1)" % tag,
                ["0", "2", "-1"], [t, q, qp], "trivial")
        rep.add("%s: det(I)" % tag, "1", det(ident), "trivial")
        rep.add("%s: det diag(2,3,5)" % tag, "30",
                det(JordanMatrix.diag(tag, 2, 3, 5)), "trivial")
        Z = z_representative(tag)
        rep.add("%s: det of the square-zero representative" % tag, "0", det(Z),
                "reference")
        X = random_jordan(tag, rng)
        rep.add_bool("%s: 3 det3(I,I,X) = trace(X) (polarized normalization)" % tag,
                     3 * det3(ident, ident, X) == X.trace(), "reference")
        cls, _ = classify_severi(Z)
        rep.add("%s: square-zero representative class" % tag, "square_zero",
                cls.value, "reference")
        rep.add_bool("%s: square-zero representative is rank one" % tag,
                     is_rank_one(Z), "reference")
        cls, s = classify_severi(JordanMatrix.diag(tag, 1, 1, -2))
        lift, _ = rank_one_lift(JordanMatrix.diag(tag, 1, 1, -2))
        rep.add("%s: diag(1,1,-2) classifies as projected rank one" % tag,
                ["projected_rank_one", "-1", True], [cls.value, s,
                lift == JordanMatrix.diag(tag, 0, 0, -3)], "derived")
        cls, _ = classify_severi(JordanMatrix.diag(tag, 0, 1, -1))
        rep.add("%s: diag(0,1,-1) is off the locus" % tag, "none", cls.value,
                "derived")
        rep.add("%s: discriminant of diag(0,1,-1)" % tag, "8",
                discriminant(JordanMatrix.diag(tag, 0, 1, -1)), "trivial")
        traceless = [random_traceless(tag, rng)
                     for _ in range(SAMPLES["discriminant_oracle"])]
        rep.add_bool("%s: discriminant matches the cubic-discriminant oracle"
                     % tag, all(_matches_cubic_discriminant(X) for X in traceless),
                     "derived")
        # nondegeneracy of the trace form on all of J3(A)
        n = 3 * tag.dim + 3
        basis = [JordanMatrix._raw(tag, tuple(int(j == k) for j in range(n)), (0,) * n, 1)
                 for k in range(n)]
        gram = [[inner(a, b) for b in basis] for a in basis]
        rep.add("%s: trace form is nondegenerate on J3(A)" % tag,
                3 * tag.dim + 3, rank(to_numerators(row)[:2] for row in gram), "derived")
        pairs = [(random_jordan(tag, rng), random_jordan(tag, rng)) for _ in range(10)]
        ok = all(sg(jordan_mul(A, B)) == jordan_mul(sg(A), sg(B)) and det(sg(A)) == det(A)
                 for A, B in pairs for sg in (sigma1, sigma2))
        rep.add_bool("%s: diagonal-permutation automorphisms preserve o and det"
                     % tag, ok, "derived")
    return rep


def _matches_cubic_discriminant(X: JordanMatrix) -> bool:
    """disc(X) is twice the discriminant of t^3 + p t + q, p = -q(X)/2, q = -det X."""
    _, q, _ = trace_forms(X)
    p_coef, q_coef = -q / 2, -det(X)
    cubic_disc = -4 * p_coef * p_coef * p_coef - 27 * q_coef * q_coef
    disc = discriminant(X)
    return disc.is_zero() == cubic_disc.is_zero() and disc == 2 * cubic_disc


# -- lie-dims -----------------------------------------------------------------------


def build_lie_dims(seed: int) -> Report:
    rep = Report("lie-dims", {"seed": seed, "samples": SAMPLES})
    t_dims, so_dims, u_dims = [], [], []
    for tag in ALL_TAGS:
        t_dims.append(len(triality_basis(tag)))
        so_dims.append(len(so3a_basis(tag)))
        u_dims.append(ker_pi_dim(tag))
    rep.add("dim t(A) for a = 1,2,4,8", [0, 2, 9, 28], t_dims, "reference")
    rep.add("dim so3(A) for a = 1,2,4,8", [3, 8, 21, 52], so_dims, "derived")
    rep.add("dim U_a = ker pi for a = 1,2,4,8", [7, 20, 70, 273], u_dims,
            "derived")
    rep.add("realized operators are independent",
            [3, 8, 21, 52], [so3a_rank(t) for t in ALL_TAGS], "derived")
    for tag in ALL_TAGS:
        rng = make_rng(seed)
        ident = JordanMatrix.identity(tag)
        ops = so3a_basis(tag)
        pairs = [(random_jordan(tag, rng), random_jordan(tag, rng))
                 for _ in range(SAMPLES["derivation_pairs"])]
        images = [(op, X, Y, op.apply(X), op.apply(Y))
                  for op in ops[::max(1, len(ops) // 8)] for X, Y in pairs]
        ok = all(op.apply(jordan_mul(X, Y)) == jordan_mul(dX, Y) + jordan_mul(X, dY)
                 for op, X, Y, dX, dY in images)
        rep.add_bool("%s: derivation identity (sampled)" % tag, ok, "reference")
        ok = all((inner(dX, Y) + inner(X, dY)).is_zero() for _, X, Y, dX, dY in images)
        rep.add_bool("%s: infinitesimal orthogonality (sampled)" % tag, ok,
                     "reference")
        ok = all(op.apply(ident).is_zero() for op in ops) and \
            all(dX.trace().is_zero() for _, _, _, dX, _ in images)
        rep.add_bool("%s: operators kill I and preserve trace" % tag, ok, "trivial")
        ok = all(triality_identity_holds(tag, tr) for tr in triality_basis(tag))
        rep.add_bool("%s: triality triples satisfy the defining identity" % tag,
                     ok, "reference")
        ann, orb, perp = stabilizer_dims(JordanMatrix.diag(tag, 0, 1, -1))
        rep.add("%s: annihilator of diag(0,1,-1) is t(A)" % tag,
                len(triality_basis(tag)), ann, "reference")
        rep.add("%s: generic perp dimension" % tag, 2, perp, "reference")
        _, _, perp2 = stabilizer_dims(JordanMatrix.diag(tag, 1, 1, -2))
        rep.add("%s: perp dimension on the projected rank-one locus" % tag,
                tag.dim + 2, perp2, "reference")
        _, _, perp3 = stabilizer_dims(z_representative(tag))
        rep.add("%s: perp dimension on the square-zero locus" % tag,
                tag.dim + 2, perp3, "reference")
        n = len(ops)
        brackets = [(rng.randrange(n), rng.randrange(n))
                    for _ in range(SAMPLES["bracket_samples"])]
        rep.add_bool("%s: brackets stay in the span (sampled)" % tag,
                     all(bracket_in_span(tag, i, j) for i, j in brackets), "derived")
    return rep


# -- orbits ------------------------------------------------------------------------


SEVERI_TABLE = {OrbitClass.OPEN0: (3, 0, False), OrbitClass.CODIM1: (1, 1, False),
                OrbitClass.CODIM2: (0, 1, False), OrbitClass.CODIM4: (0, 0, True)}


def build_orbits(algebra: Optional[str], line_file: Optional[str], seed: int) -> Report:
    if line_file is not None:
        with open(line_file) as fh:
            try:
                data = json.load(fh)
            except RecursionError:
                raise ValueError("line file %s is nested too deeply" % line_file) from None
        line = ReductionLine.from_json(data)
        if algebra not in (None, "all") and line.tag.name != algebra:
            raise ValueError("line is over %s, not %s" % (line.tag.name, algebra))
        rep = Report("orbits", {"algebra": line.tag.name, "line": line_file,
                                "seed": seed})
        member = membership(line)
        rep.result = {"member": member}
        rep.add_bool("line is a member", member, "reference")
        if member:
            orbit = classify_orbit(line)
            pts = severi_points_on_line(line)
            td = tangent_dim(line)
            rep.result.update({
                "orbit": orbit.value,
                "tangent_dim": td,
                "rank_one_points": dict(zip(("general", "special", "whole_line"),
                                            pts.counts())),
            })
            rep.add("orbit", orbit.value, orbit.value, "reference")
            rep.add("tangent dimension", 3 * line.tag.dim, td, "reference")
            rep.add("rank-one points (general, special, whole_line)",
                    SEVERI_TABLE[orbit], pts.counts(), "reference")
        return rep
    rep = Report("orbits", {"algebra": algebra or "all", "seed": seed,
                            "samples": SAMPLES})
    for tag in _tags_for(algebra):
        rng = make_rng(seed)
        for orbit in available_orbits(tag):
            line = representative(tag, orbit)
            rep.add_bool("%s %s: representative is a member"
                         % (tag, orbit.value), membership(line), "reference")
            rep.add("%s %s: classification" % (tag, orbit.value),
                    orbit.value, classify_orbit(line).value, "reference")
            rep.add("%s %s: rank-one point counts" % (tag, orbit.value),
                    SEVERI_TABLE[orbit], severi_points_on_line(line).counts(),
                    "reference")
            rep.add("%s %s: tangent dimension" % (tag, orbit.value),
                    3 * tag.dim, tangent_dim(line), "reference")
        line = representative(tag, OrbitClass.OPEN0)
        changes = [(rng.randint(1, 3), rng.randint(-2, 2), rng.randint(-2, 2),
                    rng.randint(1, 3))
                   for _ in range(SAMPLES["membership_basis_invariance"])]
        member = membership(line)
        ok = all(membership(line.basis_change(a, b, c, d if a * d != b * c else d + 1))
                 == member for a, b, c, d in changes)
        rep.add_bool("%s: membership is basis invariant" % tag, ok, "derived")
    return rep


# -- linear-spaces --------------------------------------------------------------------


def build_linear_spaces(algebra: Optional[str], seed: int) -> Report:
    rep = Report("linear-spaces", {"algebra": algebra or "all", "seed": seed})
    for tag in _tags_for(algebra):
        a = tag.dim
        counts, expected = [], []
        for orbit in available_orbits(tag):
            pts = severi_points_on_line(representative(tag, orbit))
            counts.append([orbit.value, *pts.counts()])
            expected.append([orbit.value, *SEVERI_TABLE[orbit]])
        rep.add("%s: maximal linear space counts through orbit points" % tag,
                expected, counts, "reference")
        _, _, perp = stabilizer_dims(JordanMatrix.diag(tag, 1, 1, -2))
        rep.add("%s: linear spaces through rank-one projections have dim a"
                % tag, a + 2, perp, "reference")
        _, _, perp = stabilizer_dims(JordanMatrix.diag(tag, 0, 1, -1))
        rep.add("%s: generic points lie on no positive-dimensional family"
                % tag, 2, perp, "reference")
    return rep


# -- degree / betti / bott ---------------------------------------------------------------


def build_degree() -> Report:
    rep = Report("degree", {})
    rep.add("blow-up numbers H^i E^j for j = 0..6",
            [1, 0, 0, 6, 30, 96, 246],
            [chow.blowup_intersection(7 - k, k) for k in range(7)], "reference")
    rep.add("degree via the blow-up route", 57, chow.degree_y2_blowup(), "reference")
    rep.add("degree via the Hilbert-scheme route", 57, chow.degree_y2_hilb(),
            "reference")
    rep.add("the two routes agree", True,
            chow.degree_y2_blowup() == chow.degree_y2_hilb(), "derived")
    rep.add("Hilbert-scheme term table", [15, 90, 45, -240, 180, -18, -15],
            list(chow.hilb_term_table()), "derived")
    x, y, z = chow.schubert_coefficients()
    rep.add("Schubert class coefficients", [1, 2, 4], [x, y, z], "reference")
    rep.add("degree relation 5x + 16y + 5z", 57, 5 * x + 16 * y + 5 * z, "reference")
    return rep


BETTI_TABLES = {
    1: [1, 1, 1, 1],
    2: [1, 1, 3, 3, 3, 1, 1],
    4: [1, 1, 2, 3, 4, 5, 5, 5, 4, 3, 2, 1, 1],
    8: [1, 1, 2, 2, 3, 4, 5, 6, 7, 8, 8, 9, 9, 9, 8, 8, 7, 6, 5, 4, 3, 2, 2, 1, 1],
}


def build_betti(a: int) -> Report:
    rep = Report("betti", {"a": a})
    table, euler, fc = chow.topology(a)
    # the odd Betti numbers vanish, so the Euler number is the sum of the even ones
    reference_euler = sum(BETTI_TABLES[a])
    rep.add("even Betti numbers", BETTI_TABLES[a], list(table), "reference")
    rep.add("Euler characteristic", reference_euler, euler, "reference")
    rep.add("torus fixed-point count", reference_euler, fc, "reference")
    rep.add_bool("Poincare symmetry", table == table[::-1], "derived")
    return rep


# Reference values as printed in the source tables.  Three of them (the
# first Chern integral and the Euler data derived from it) fail this
# package's internal cross-checks: Riemann-Roch forces chi(O_C(1)) =
# (717 - 3 I1)/12 to be the integer 17, which pins I1 = +171, while the
# printed value is -171.  The checks below keep the printed expectations
# and are allowed to fail loudly; see the test suite for the cross-checks.
BOTT_REFERENCE = {"I3": 243, "I2": 261, "I1": -171, "I0": 57,
                  "euler_cy": -2136, "b3": 2140}


def build_bott(weights: str) -> Report:
    w = _parse_weights(weights)
    rep = Report("bott", {"weights": [w.w0, w.w1, w.w2]})
    pts = bott_mod.enumerate_fixed_points()
    rep.add("number of fixed points", 22, len(pts), "reference")
    rep.add("class sizes", {"1": 1, "2": 6, "3": 6, "4": 6, "5": 3},
            {str(k): v for k, v in sorted(Counter(p.class_id for p in pts).items())},
            "reference")
    rep.add_bool("staircase oracle equals the tabulated characters",
                 all(bott_mod.staircase_tangent_char(p.supports) == p.tangent_char
                     for p in pts), "derived")
    loc = bott_mod.localize(w)
    i0, i1, i2, i3 = loc.integrals
    rep.add("integral of c3 l^3", BOTT_REFERENCE["I3"], i3, "reference")
    rep.add("integral of c2 l^4", BOTT_REFERENCE["I2"], i2, "reference")
    rep.add("integral of c1 l^5", BOTT_REFERENCE["I1"], i1, "reference")
    rep.add("integral of l^6 equals the degree", BOTT_REFERENCE["I0"], i0,
            "derived")
    rep.add("Euler number of the Calabi-Yau section",
            BOTT_REFERENCE["euler_cy"], loc.euler_cy, "reference")
    rep.add("third Betti number of the section", BOTT_REFERENCE["b3"], loc.b3,
            "reference")
    second = bott_mod.WeightVector(0, 1, 5)
    if (w.w0, w.w1, w.w2) == (0, 1, 5):
        second = bott_mod.WeightVector(0, 1, 3)
    rep.add("integrals at a second generic weight vector",
            list(loc.integrals), list(bott_mod.localize(second).integrals),
            "derived")
    chi = Fraction(717 - 3 * i1, 12)
    rep.add("Riemann-Roch: chi(O_C(1)) is the section count", "17", str(chi),
            "derived")
    if (w.w0, w.w1, w.w2) == (0, 1, 3):
        row1 = [r for r in loc.rows if r.class_id == 1][0]
        rep.add("reduced-triple row: weights, c6, lambda",
                [[-3, -2, -1, 1, 2, 3], -36, 8],
                [list(row1.weights), row1.c6, row1.lam], "reference")
        lam_by_class = {}
        for r in loc.rows:
            lam_by_class.setdefault(r.class_id, []).append(r.lam)
        rep.add("lambda column by class",
                {"1": [8], "2": [3, 3, 9, 9, 12, 12], "3": [5, 6, 7, 9, 10, 11],
                 "4": [3, 3, 9, 9, 12, 12], "5": [4, 7, 13]},
                {str(k): sorted(v) for k, v in sorted(lam_by_class.items())},
                "reference")
    return rep


def _parse_weights(weights: str) -> bott_mod.WeightVector:
    try:
        parts = [int(x) for x in weights.split(",")]
        if len(parts) != 3:
            raise ValueError
    except ValueError:
        raise ValueError("--weights expects three comma-separated integers")
    w = bott_mod.WeightVector(*parts)
    if not w.is_generic():
        raise ValueError("weight vector %s is not generic" % weights)
    return w


# -- property campaign shared by `all` ------------------------------------------------


def build_properties(seed: int) -> Report:
    """The cross-module property campaign: cubics, Pierce triples, members."""
    rep = Report("properties", {"seed": seed, "samples": SAMPLES})
    for tag in ALL_TAGS:
        rng = make_rng(seed)
        tri = pierce_from_roots(JordanMatrix.diag(tag, -1, 0, 1),
                                (GaussRational(-1), GR_ZERO, GR_ONE))
        omega = omega_plucker(tri)
        projected = [random_projected_rank_one(tag, rng)
                     for _ in range(SAMPLES["cubic_vanishing"])]
        square_zero = [(random_square_zero(tag, rng), random_traceless(tag, rng),
                        random_traceless(tag, rng))
                       for _ in range(SAMPLES["square_zero_vanishing"])]
        ok = all(eval_cubic_theta(tag, omega, x).is_zero() for x in projected) and \
            all(eval_cubic_theta(tag, omega, x).is_zero() and eval_cubic_ab(A, B, x).is_zero()
                for x, A, B in square_zero)
        rep.add_bool("%s: cubic forms vanish on the projected rank-one locus"
                     % tag, ok, "reference")
        tri = random_pierce_triple(tag, rng)
        rep.add_bool("%s: random Pierce triple satisfies all axioms" % tag,
                     tri.validate(), "derived")
        rep.add_bool("%s: its wedge representative is in the kernel" % tag,
                     in_ker_pi(tag, omega_plucker(tri)), "reference")
        line = random_member_line(tag, rng)
        rep.add_bool("%s: random member line passes membership" % tag,
                     membership(line), "derived")
        rep.add("%s: random member line is in the open orbit" % tag, "open",
                classify_orbit(line).value, "derived")
    return rep


# -- driver ----------------------------------------------------------------------------


def build_all(seed: int) -> List[Report]:
    reps = [build_verify_algebra(None, seed), build_verify_jordan(None, seed),
            build_lie_dims(seed), build_orbits(None, None, seed),
            build_linear_spaces(None, seed), build_degree()]
    for a in (1, 2, 4, 8):
        reps.append(build_betti(a))
    reps.append(build_bott("0,1,3"))
    reps.append(build_properties(seed))
    return reps


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as the one line `error: <message>` and exits 2."""

    def error(self, message):
        self.exit(2, "error: %s\n" % message)


ALGEBRA = ("--algebra", {"choices": ["R", "C", "H", "O", "all"], "default": "all"})

# Each subcommand: (help, options, the reports it builds from the parsed
# arguments).  The lambdas read the cli.build_* globals when they run, so a
# builder swapped on the module is the one called.
COMMANDS = {
    "verify-algebra": ("composition-algebra checks", [ALGEBRA],
                       lambda a: [build_verify_algebra(a.algebra, a.seed)]),
    "verify-jordan": ("Jordan-algebra checks", [ALGEBRA],
                      lambda a: [build_verify_jordan(a.algebra, a.seed)]),
    "lie-dims": ("derivation-algebra dimension checks", [],
                 lambda a: [build_lie_dims(a.seed)]),
    "orbits": ("orbit suite, or classify a line from a file",
               [ALGEBRA, ("--line", {"help": "JSON file with spanning matrices X and Y"})],
               lambda a: [build_orbits(a.algebra, a.line, a.seed)]),
    "linear-spaces": ("maximal linear space counts", [ALGEBRA],
                      lambda a: [build_linear_spaces(a.algebra, a.seed)]),
    "degree": ("degree 57 by two routes", [], lambda a: [build_degree()]),
    "betti": ("Betti table, Euler and fixed-point count",
              [("--a", {"type": int, "choices": [1, 2, 4, 8], "required": True})],
              lambda a: [build_betti(a.a)]),
    "bott": ("torus localization report", [("--weights", {"default": "0,1,3"})],
             lambda a: [build_bott(a.weights)]),
    "all": ("every suite in sequence", [], lambda a: build_all(a.seed)),
}


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON")
    common.add_argument("--text", action="store_true", help="emit text (default)")
    common.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed for the property-check sampler")
    parser = _Parser(
        prog="jordanred",
        description="Exact verification suite for composition algebras, "
                    "3x3 Hermitian Jordan algebras and their varieties of "
                    "reductions.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options, _) in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)

    args = parser.parse_args(argv)
    as_json = args.json and not args.text

    try:
        reports = COMMANDS[args.command][2](args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    if as_json:
        payload = reports[0].to_json() if len(reports) == 1 else \
            {"schema": SCHEMA, "reports": [r.to_json() for r in reports],
             "pass": all(r.ok for r in reports)}
        print(json.dumps(payload, indent=2))
    else:
        for r in reports:
            print(r.render(False))
            print()
    return 0 if all(r.ok for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
