"""Seeded random generators for property campaigns.

All sampling flows through an explicit random.Random instance so that CLI
reports and tests are byte-for-byte reproducible.  Coordinates are kept to
small Gaussian integers to keep the exact arithmetic fast.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import AlgebraTag, AlgElement, qbilin
from .gaussrat import GR_I, GR_ONE, GaussRational
from .jordan import JordanMatrix, rank_one_from_chart
from .liealg import apply_j0_linear, j0_from_numerators, random_unipotent, traceless_numerators
from .reductions import ReductionLine, pierce_from_roots

DEFAULT_SEED = 20570


def make_rng(seed: int = DEFAULT_SEED) -> random.Random:
    return random.Random(seed)


def random_scalar(rng: random.Random, span: int = 2) -> GaussRational:
    return GaussRational(rng.randint(-span, span), rng.randint(-1, 1))


def _draw(rng: random.Random, n: int):
    """n random Gaussian integers as (real numerators, imaginary numerators).

    Each draws its real part in [-2, 2] and then its imaginary part in
    [-1, 1], as `random_scalar` does, with no scalar object built.
    """
    re, im = [], []
    for _ in range(n):
        re.append(rng.randint(-2, 2))
        im.append(rng.randint(-1, 1))
    return re, im


def random_element(tag: AlgebraTag, rng: random.Random) -> AlgElement:
    re, im = _draw(rng, tag.dim)
    return AlgElement._raw(tag, tuple(re), tuple(im), 1)


def random_jordan(tag: AlgebraTag, rng: random.Random) -> JordanMatrix:
    """c_1, c_2, c_3 and then x_1, x_2, x_3, drawn in the flat coordinate order."""
    re, im = _draw(rng, 3 * tag.dim + 3)
    return JordanMatrix._raw(tag, tuple(re), tuple(im), 1)


def random_traceless(tag: AlgebraTag, rng: random.Random) -> JordanMatrix:
    """c_1 and c_2, then x_1, x_2, x_3; c_3 is -c_1 - c_2."""
    cr, ci = _draw(rng, 2)
    xr, xi = _draw(rng, 3 * tag.dim)
    return JordanMatrix._raw(tag, (*cr, -cr[0] - cr[1], *xr),
                             (*ci, -ci[0] - ci[1], *xi), 1)


def random_rank_one(tag: AlgebraTag, rng: random.Random) -> JordanMatrix:
    """A random point of the rank-one locus, in the first affine chart."""
    return rank_one_from_chart(tag, random_element(tag, rng), random_element(tag, rng))


def random_projected_rank_one(tag: AlgebraTag, rng: random.Random) -> JordanMatrix:
    """A traceless matrix on the projection of the rank-one locus."""
    while True:
        x = j0_from_numerators(tag, *traceless_numerators(random_rank_one(tag, rng)))
        if not x.is_zero():
            return x


def element_of_norm(tag: AlgebraTag, target: GaussRational) -> AlgElement:
    """An element with q(y) equal to a prescribed scalar (needs dim >= 2)."""
    beta = (target + GR_ONE) / 2
    gamma = (target - GR_ONE) / 2 * GR_I
    coords = [GaussRational(0)] * tag.dim
    coords[0] = beta
    coords[1] = gamma
    out = AlgElement(tag, coords)
    if qbilin(out, out) != target:
        raise ArithmeticError("element does not have the prescribed norm")
    return out


def random_square_zero(tag: AlgebraTag, rng: random.Random) -> JordanMatrix:
    """A traceless matrix with vanishing square (rank one on the hyperplane)."""
    if tag.dim == 1:
        # 1 + x0^2 must be a rational square: x0 = (m^2-1)/2m works
        m = rng.randint(2, 9)
        x = AlgElement(tag, [GaussRational(Fraction(m * m - 1, 2 * m))])
        y = AlgElement(tag, [GaussRational(0, Fraction(m * m + 1, 2 * m))])
    else:
        x = random_element(tag, rng)
        y = element_of_norm(tag, GaussRational(-1) - qbilin(x, x))
    z = rank_one_from_chart(tag, x, y)
    if not z.trace().is_zero():
        raise ArithmeticError("square-zero sample is not traceless")
    return z


def random_pierce_triple(tag: AlgebraTag, rng: random.Random):
    """A Pierce triple conjugate to the diagonal one by a unipotent automorphism."""
    g = random_unipotent(tag, rng, factors=2)
    x = apply_j0_linear(tag, g, JordanMatrix.diag(tag, -1, 0, 1))
    return pierce_from_roots(x, (GaussRational(-1), GaussRational(0), GaussRational(1)))


def random_member_line(tag: AlgebraTag, rng: random.Random) -> ReductionLine:
    """A random member of the variety of reductions, from a Pierce triple."""
    tri = random_pierce_triple(tag, rng)
    return ReductionLine(*(j0_from_numerators(tag, *traceless_numerators(e))
                           for e in (tri.e1, tri.e2)))
