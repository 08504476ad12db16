"""Exact arithmetic for the four composition algebras, the Jordan algebras
of Hermitian 3x3 matrices over them, their derivation Lie algebras, and the
varieties of reductions, together with the intersection-theoretic and
localization computations attached to the degree-57 sixfold.

Everything is computed over Q(i); there is no floating point anywhere.
"""

from .algebra import ALG_C, ALG_H, ALG_O, ALG_R, ALL_TAGS, AlgElement, AlgebraTag, qbilin
from .gaussrat import GaussRational
from .jordan import (JordanMatrix, SeveriClass, cayley_hamilton_residual,
                     char_poly, classify_severi, det, det3, discriminant,
                     inner, is_rank_one, jordan_mul, rank_one_lift, trace_forms)
from .liealg import So3AOperator, so3a_basis, stabilizer_dims, triality_basis
from .reductions import (OrbitClass, PierceTriple, ReductionLine,
                         classify_orbit, membership, pierce_from_roots,
                         representative, severi_points_on_line, tangent_dim)

__version__ = "1.0.0"
