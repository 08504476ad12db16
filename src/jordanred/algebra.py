"""The four complexified composition algebras R, C, H, O.

Elements carry exact Q(i) coordinates over an orthonormal basis
e_0 = 1, e_1, ..., e_{a-1}.  The multiplication table is generated by the
Cayley-Dickson doubling  (a, b)(c, d) = (ac - d*b, da + bc*)  starting from
the reals; for a = 8 this fixes one Fano-plane convention.  The table is
not trusted on faith: the test suite checks the composition law
q(xy) = q(x)q(y) and alternativity exhaustively over basis pairs and
triples.

The quadratic form q is complex-bilinear (a plain sum of coordinate
products, no conjugation), matching the complexified norm.

An element is stored as one flat Q(i) vector: a tuple `nr` of integer real
numerators, a tuple `ni` of integer imaginary numerators and one shared
denominator `d`, so coordinate k is (nr[k] + ni[k] i)/d.  Every element is
normalised: d > 0 and the gcd of d and all numerators is 1, so equal
elements have equal fields.  Arithmetic runs on the numerators and
normalises once per operation; `coords` is a read-only view of
`GaussRational` scalars.

The product `mul_numerators` is one straight-line function per dimension,
built on first use (`product_kernel`).  `product_terms` writes the structure
constants (i, j, k, sign) with e_i e_j = sign e_k out as signed products of
the numerators' names, and `compile_kernel` turns such terms into Python
source and compiles it with `exec`, so that a product does no loop or
index work.  `jordan` builds its product from the same two functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .gaussrat import GaussRational, bilinear, from_numerators, normalize, to_numerators


@dataclass(frozen=True)
class AlgebraTag:
    name: str
    dim: int

    def __post_init__(self):
        if _DIM_BY_NAME.get(self.name) != self.dim:
            raise ValueError("bad algebra tag %r/%d" % (self.name, self.dim))

    def __repr__(self):
        return self.name


_DIM_BY_NAME = {"R": 1, "C": 2, "H": 4, "O": 8}

ALG_R = AlgebraTag("R", 1)
ALG_C = AlgebraTag("C", 2)
ALG_H = AlgebraTag("H", 4)
ALG_O = AlgebraTag("O", 8)

ALL_TAGS = (ALG_R, ALG_C, ALG_H, ALG_O)


def tag_by_name(name: str) -> AlgebraTag:
    for t in ALL_TAGS:
        if t.name == name:
            return t
    raise ValueError("unknown algebra %r (expected R, C, H or O)" % name)


def _cd_index(dim: int, i: int, j: int):
    """(k, sign) with e_i e_j = sign * e_k in the Cayley-Dickson algebra."""
    if dim == 1:
        return 0, 1
    half = dim // 2
    hi, hj = i >= half, j >= half
    li, lj = i % half, j % half
    # conjugation in the half algebra: e_0 fixed, others negated
    if not hi and not hj:  # (p,0)(q,0) = (pq, 0)
        return _cd_index(half, li, lj)
    if not hi and hj:  # (p,0)(0,q) = (0, qp)
        k, s = _cd_index(half, lj, li)
        return k + half, s
    if hi and not hj:  # (0,p)(q,0) = (0, p conj(q))
        k, s = _cd_index(half, li, lj)
        if lj != 0:
            s = -s
        return k + half, s
    # (0,p)(0,q) = (-conj(q) p, 0)
    k, s = _cd_index(half, lj, li)
    if lj != 0:
        s = -s
    return k, -s


@lru_cache(maxsize=None)
def mult_table(dim: int):
    return tuple(
        tuple(_cd_index(dim, i, j) for j in range(dim)) for i in range(dim)
    )


@lru_cache(maxsize=None)
def structure_constants(dim: int):
    """The terms (i, j, k, sign) of e_i e_j = sign e_k, grouped by k and sign.

    Entry k is (pairs with sign +1, pairs with sign -1), each a tuple of the
    index pairs (i, j) whose product lands on e_k.
    """
    out = [([], []) for _ in range(dim)]
    for i, row in enumerate(mult_table(dim)):
        for j, (k, s) in enumerate(row):
            out[k][0 if s > 0 else 1].append((i, j))
    return tuple((tuple(pos), tuple(neg)) for pos, neg in out)


def scalar_terms(k: int, x, y):
    """The terms of k x y for Q(i) numerators x = (re, im) and y = (re, im).

    x and y hold names of the kernel's locals; the result is (real terms,
    imaginary terms), each a list of (coefficient, name, name) for
    coefficient * name * name.
    """
    (a, b), (c, e) = x, y
    return [(k, a, c), (-k, b, e)], [(k, a, e), (k, b, c)]


def product_terms(dim: int, k: int, x, y):
    """For each coordinate of k x y, x and y algebra elements given as one
    (re, im) pair of local names per coordinate: (real terms, imaginary terms)."""
    out = [([], []) for _ in range(dim)]
    for m, signed in enumerate(structure_constants(dim)):
        for s, pairs in zip((k, -k), signed):
            for i, j in pairs:
                re, im = scalar_terms(s, x[i], y[j])
                out[m][0].extend(re)
                out[m][1].extend(im)
    return out


def _sum_source(terms) -> str:
    """The terms (coefficient, name, name) as one Python sum, "0" for none."""
    src = " ".join("%s %s%s*%s" % ("-" if k < 0 else "+", "" if abs(k) == 1 else "%d*" % abs(k),
                                   u, v) for k, u, v in terms)
    if not src:
        return "0"
    return src[2:] if src[0] == "+" else "-" + src[2:]


def compile_kernel(name: str, params, outputs):
    """The straight-line function name(*params) -> ([re...], [im...]).

    Each parameter is a tuple of integer numerators, unpacked into the
    locals <param>0, <param>1, ...; `params` maps each name to its length.
    `outputs` is one (real terms, imaginary terms) pair per output coordinate,
    each as `scalar_terms` gives them.  The source is compiled with `exec`
    in a namespace without builtins, as `dataclasses` generates its methods,
    and kept as the function's `source` attribute.
    """
    lines = ["def %s(%s):" % (name, ", ".join(params))]
    for p, n in params.items():
        lines.append("    %s%s = %s" % (", ".join("%s%d" % (p, t) for t in range(n)),
                                       "," if n == 1 else "", p))
    lines.append("    return [%s], [%s]" % tuple(
        ", ".join(_sum_source(out[h]) for out in outputs) for h in (0, 1)))
    source = "\n".join(lines) + "\n"
    namespace = {}
    exec(compile(source, "<kernel %s>" % name, "exec"), {"__builtins__": {}}, namespace)
    kernel = namespace[name]
    kernel.source = source
    return kernel


@lru_cache(maxsize=None)
def product_kernel(dim: int):
    """The compiled product of `mul_numerators` for one dimension."""
    x = [("xr%d" % t, "xi%d" % t) for t in range(dim)]
    y = [("yr%d" % t, "yi%d" % t) for t in range(dim)]
    return compile_kernel("mul%d" % dim, dict.fromkeys(("xr", "xi", "yr", "yi"), dim),
                          product_terms(dim, 1, x, y))


def mul_numerators(dim: int, xr, xi, yr, yi):
    """Real and imaginary numerators of the product x y, from those of x and y.

    The product's denominator is the product of the two denominators; the
    result is not normalised.
    """
    return product_kernel(dim)(xr, xi, yr, yi)


class FlatVector:
    """A flat Q(i) vector over an algebra: numerators nr, ni over d, normalised.

    The linear structure, equality and hashing shared by `AlgElement` and
    `JordanMatrix`; subclasses give the coordinates their meaning.
    """

    __slots__ = ("tag", "nr", "ni", "d")

    @classmethod
    def _make(cls, tag: AlgebraTag, nr, ni, d: int):
        """The vector with numerators nr, ni over d, normalised here."""
        return cls._raw(tag, *normalize(nr, ni, d))

    @classmethod
    def _raw(cls, tag: AlgebraTag, nr, ni, d: int):
        """The vector with fields that are already normalised tuples."""
        self = object.__new__(cls)
        self.tag, self.nr, self.ni, self.d = tag, nr, ni, d
        return self

    def _check(self, other):
        if self.tag != other.tag:
            raise ValueError("algebra mismatch: %s vs %s" % (self.tag, other.tag))

    def _lincomb(self, other, sign: int):
        """self + sign * other, for sign = +-1."""
        self._check(other)
        dx, dy = self.d, other.d
        if dx == dy:
            fx, fy, d = 1, sign, dx
        else:
            g = gcd(dx, dy)
            fx, fy, d = dy // g, sign * (dx // g), dx // g * dy
        return self._make(self.tag, [a * fx + b * fy for a, b in zip(self.nr, other.nr)],
                          [a * fx + b * fy for a, b in zip(self.ni, other.ni)], d)

    def __add__(self, other):
        return self._lincomb(other, 1)

    def __sub__(self, other):
        return self._lincomb(other, -1)

    def __neg__(self):
        return self._raw(self.tag, tuple(-a for a in self.nr),
                         tuple(-a for a in self.ni), self.d)

    def scale(self, s):
        """s times the vector, for an int, Fraction or GaussRational s."""
        s = GaussRational._coerce(s)
        if s is None:
            raise TypeError("can only scale by an int, Fraction or GaussRational")
        sr, si = s.nr, s.ni
        if si == 0:
            nr = [a * sr for a in self.nr]
            ni = [b * sr for b in self.ni]
        else:
            nr = [a * sr - b * si for a, b in zip(self.nr, self.ni)]
            ni = [a * si + b * sr for a, b in zip(self.nr, self.ni)]
        return self._make(self.tag, nr, ni, self.d * s.d)

    def is_zero(self) -> bool:
        return not any(self.nr) and not any(self.ni)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.tag == other.tag and self.d == other.d and self.nr == other.nr
                and self.ni == other.ni)

    def __hash__(self):
        return hash((self.tag, self.nr, self.ni, self.d))


class AlgElement(FlatVector):
    """An element of a complexified composition algebra, as a flat Q(i) vector."""

    __slots__ = ()

    def __init__(self, tag: AlgebraTag, coords):
        nr, ni, d = to_numerators(coords)
        if len(nr) != tag.dim:
            raise ValueError("expected %d coordinates, got %d" % (tag.dim, len(nr)))
        self.tag, self.nr, self.ni, self.d = tag, nr, ni, d

    @property
    def coords(self):
        """The coordinates as a tuple of GaussRational scalars (a view)."""
        return tuple(from_numerators(self.nr, self.ni, self.d))

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, tag: AlgebraTag) -> "AlgElement":
        z = (0,) * tag.dim
        return cls._raw(tag, z, z, 1)

    @classmethod
    def one(cls, tag: AlgebraTag) -> "AlgElement":
        return cls.basis(tag, 0)

    @classmethod
    def basis(cls, tag: AlgebraTag, k: int) -> "AlgElement":
        nr = [0] * tag.dim
        nr[k] = 1
        return cls._raw(tag, tuple(nr), (0,) * tag.dim, 1)

    @classmethod
    def scalar(cls, tag: AlgebraTag, s) -> "AlgElement":
        s = s if isinstance(s, GaussRational) else GaussRational(s)
        z = (0,) * (tag.dim - 1)
        return cls._raw(tag, (s.nr,) + z, (s.ni,) + z, s.d)

    # -- ring structure --------------------------------------------------

    def __mul__(self, other: "AlgElement") -> "AlgElement":
        """The composition-algebra product, from the structure constants."""
        self._check(other)
        nr, ni = mul_numerators(self.tag.dim, self.nr, self.ni, other.nr, other.ni)
        return AlgElement._make(self.tag, nr, ni, self.d * other.d)

    def conj(self) -> "AlgElement":
        nr, ni = self.nr, self.ni
        return AlgElement._raw(self.tag, nr[:1] + tuple(-v for v in nr[1:]),
                               ni[:1] + tuple(-v for v in ni[1:]), self.d)

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.coords):
            if c.is_zero():
                continue
            terms.append("%r%s" % (c, "" if k == 0 else "*e%d" % k))
        return " + ".join(terms) if terms else "0"

    # -- JSON ---------------------------------------------------------------

    def to_json(self):
        return {"algebra": self.tag.name,
                "coords": [[GaussRational._frac_str(c.re), GaussRational._frac_str(c.im)]
                           for c in self.coords]}

    @classmethod
    def from_json(cls, obj) -> "AlgElement":
        tag = tag_by_name(obj["algebra"])
        if not isinstance(obj["coords"], list):
            raise ValueError("coords must be a JSON array")
        return cls(tag, [GaussRational.from_json(c) for c in obj["coords"]])


def qbilin(x: AlgElement, y: AlgElement) -> GaussRational:
    """The complex-bilinear scalar product: sum of coordinate products."""
    if x.tag != y.tag:
        raise ValueError("algebra mismatch: %s vs %s" % (x.tag, y.tag))
    return GaussRational._make(*bilinear(x.nr, x.ni, y.nr, y.ni), x.d * y.d)
